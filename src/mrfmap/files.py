"""The rules for checking what files and callers hand the pipeline.

A reader runs its checks inside ``naming(path)``, so that every ValueError
starts with the path of the file at fault. JSON is read as UTF-8, and its
objects and numbers are checked here, for files and constructors alike.

Every array a caller hands the pipeline passes one gate, ``real_rows``,
which refuses complex values, the wrong shape and NaN or inf rows.
"""

from __future__ import annotations

import json
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
    """``value`` as a Python int if ``integral``, else as a float.

    A bool is refused: Python counts it an int, but JSON's true is no
    number. So is a real too large for a float.
    """
    if isinstance(value, bool) or not isinstance(
            value, numbers.Integral if integral else numbers.Real):
        raise ValueError(f"{name} must be {'an integer' if integral else 'a number'}, "
                         f"got {value!r}")
    try:
        return int(value) if integral else float(value)
    except OverflowError:
        raise ValueError(f"{name} is too large for a float") from None


def real_rows(name: str, values, width: int | None = None,
              dtype=np.float64) -> np.ndarray:
    """``values`` as a C-contiguous (B, width) array of ``dtype``.

    Complex values are refused, as a cast would keep their real part only.
    An array already C-contiguous in ``dtype`` is returned, not copied. The
    width must be ``width``, or any width of at least 1 if that is None;
    B may be 0. Rows holding NaN or inf are refused by index, and so are
    rows that overflow in the cast to ``dtype``.
    """
    values = np.asanyarray(values)
    if np.iscomplexobj(values):
        raise ValueError(f"complex {name}; mrfmap takes real values, "
                         f"such as a signal's magnitudes (np.abs)")
    with np.errstate(over="ignore"):  # an overflowing cast gives an inf row
        values = np.require(values, dtype, "C")
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
        raise ValueError(f"{name} holding NaN or inf at rows {bad.tolist()}")
    return values
