"""The one file container, and the rules for checking what files and callers
hand the pipeline.

Every array artifact, a ``.dict`` and a ``.ckpt`` alike, is one container:
a one-line JSON header (``json.dumps`` with sorted keys), a delimiter line
of the artifact's own, then its arrays as little-endian float32 values.
``write_blob`` writes one and ``read_blob`` reads one back.

A reader runs its checks inside ``naming(path)``, so that every ValueError
starts with the path of the file at fault. JSON is read as UTF-8, and its
objects and numbers are checked here, for files and constructors alike.

What a caller hands the pipeline passes one of three gates: every array
``real_rows``, which refuses complex values, the wrong shape and NaN or inf
rows; every scalar ``number``, which refuses NaN and inf too; and every dict
of named arrays ``fits``, which refuses names or shapes other than a layout's.
"""

from __future__ import annotations

import io
import json
import math
import numbers
from contextlib import contextmanager
from pathlib import Path

import numpy as np


@contextmanager
def naming(path: Path):
    """Start the message of a ValueError raised in the block with ``path``."""
    try:
        yield
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def write_blob(path: Path, header: dict, delimiter: bytes, arrays) -> None:
    """Write ``header`` as one JSON line, the ``delimiter`` line, then each of
    ``arrays`` flattened to little-endian float32, in order."""
    with open(path, "wb") as fh:
        fh.writelines([json.dumps(header, sort_keys=True).encode("utf-8"), b"\n", delimiter])
        for array in arrays:
            fh.write(np.ascontiguousarray(array, dtype="<f4"))


def read_blob(path: Path, delimiter: bytes) -> tuple[object, np.ndarray]:
    """The header value and the flat float32 values of a ``write_blob`` file.

    A second line other than ``delimiter``, a first line that is not UTF-8
    JSON and a blob that is not whole float32 values are refused. The values
    are read straight into one new array, aligned and writable, so no bytes
    object holds a second copy of them.
    """
    with open(path, "rb") as fh:
        line = fh.readline()
        if fh.readline() != delimiter:
            raise ValueError(f"second line is not the {delimiter.decode().strip()} delimiter")
        try:
            header = json.loads(line.decode("utf-8"))
        except ValueError as err:  # also UnicodeDecodeError
            raise ValueError(f"header is not JSON: {err}") from None
        start = fh.tell()
        size = fh.seek(0, io.SEEK_END) - start
        if size % 4:
            raise ValueError(f"blob of {size} bytes is not whole float32 values")
        fh.seek(start)
        blob = np.empty(size // 4, dtype="<f4")
        if fh.readinto(blob) != size:  # the file shrank while it was read
            raise ValueError(f"blob of {size} bytes read short")
    return header, blob


def read_json(path: Path):
    """The value in the JSON file ``path``; a UTF-8 or JSON decoding error is a ValueError."""
    return json.loads(path.read_text(encoding="utf-8"))


def json_object(name: str, value, required=(), allowed=None) -> dict:
    """``value`` if it is a dict holding every ``required`` key, and, unless
    ``allowed`` is None, no key outside ``required`` and ``allowed``."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object, got {type(value).__name__}")
    missing = [key for key in required if key not in value]
    if missing:
        raise ValueError(f"{name} lacks {missing}")
    unknown = [] if allowed is None else sorted(set(value) - {*required, *allowed})
    if unknown:
        raise ValueError(f"unknown {name} keys {unknown}")
    return value


def number(name: str, value, integral: bool = False) -> int | float:
    """``value`` as a Python int if ``integral``, else as a finite float.

    A bool is refused: Python counts it an int, but JSON's true is no
    number. So are a real too large for a float, NaN and inf.
    """
    if isinstance(value, bool) or not isinstance(
            value, numbers.Integral if integral else numbers.Real):
        raise ValueError(f"{name} must be {'an integer' if integral else 'a number'}, "
                         f"got {value!r}")
    if integral:
        return int(value)
    try:
        value = float(value)
    except OverflowError:
        raise ValueError(f"{name} is too large for a float") from None
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def fits(name: str, arrays: dict, layout: dict) -> None:
    """Refuse ``arrays`` unless it holds exactly the names of ``layout``, each
    of its shape.

    One error names every difference as name: (given shape, expected
    shape), None standing for a missing name's given shape or an extra
    one's expected shape. Shapes are read with ``np.shape``, so a nested
    list of the right shape fits.
    """
    given = {key: np.shape(value) for key, value in arrays.items()}
    bad = {key: (given.get(key), layout.get(key))
           for key in sorted(given.keys() | layout.keys(), key=str)
           if given.get(key) != layout.get(key)}
    if bad:
        raise ValueError(f"{name} do not fit, name: (given shape, expected shape): {bad}")


def real_rows(name: str, values, width: int | None = None,
              dtype=np.float64) -> np.ndarray:
    """``values`` as a C-contiguous (B, width) array of ``dtype``.

    Complex values are refused, as a cast would keep their real part only.
    An array already C-contiguous in ``dtype`` is returned, not copied. The
    width must be ``width``, or any width of at least 1 if that is None;
    B may be 0. Rows holding NaN or inf are refused by index, and so are,
    as beyond ``dtype``, rows that overflow in the cast to it.
    """
    given = np.asanyarray(values)
    if np.iscomplexobj(given):
        raise ValueError(f"complex {name}; mrfmap takes real values, "
                         f"such as a signal's magnitudes (np.abs)")
    with np.errstate(over="ignore"):  # an overflowing cast gives an inf row
        values = np.require(given, dtype, "C")
    if values.ndim != 2 or values.shape[1] < 1 or width not in (None, values.shape[1]):
        expected = f"(B, {width})" if width else "(B, N) with N >= 1"
        raise ValueError(f"{name} must be {expected}, got {values.shape}")
    # A float64 row sum, which makes no (B, width) temporary, is finite when
    # its row is, unless it overflows: rows whose sum is not finite are
    # checked again, so a finite row is never refused.
    with np.errstate(over="ignore", invalid="ignore"):
        suspect = np.flatnonzero(~np.isfinite(values.sum(axis=1, dtype=np.float64)))
    bad = suspect[~np.isfinite(values[suspect]).all(axis=1)]
    if bad.size:
        # A row that is finite as given overflowed in the cast.
        over = np.isfinite(given[bad].astype(np.float64)).all(axis=1)
        faults = [f"{fault} at rows {rows.tolist()}" for fault, rows in (
            ("holding NaN or inf", bad[~over]), (f"beyond {values.dtype}", bad[over])) if rows.size]
        raise ValueError(f"{name} {' and '.join(faults)}")
    return values
