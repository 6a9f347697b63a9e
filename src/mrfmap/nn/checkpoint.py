"""Model checkpoint files.

A ``.ckpt`` file is a one-line JSON header (model spec, label-scaling
constants, seed, training metadata), a delimiter line, then every parameter
array of ``param_layout(spec)``, in its order and shapes, flattened to
little-endian float32; the ``param_order`` and ``param_shapes`` that older
headers also hold are ignored. Loading restores float64 parameters whose
values are exactly the stored f32 ones, so save -> load -> save is
byte-identical. Saving refuses parameters off that layout; saving and loading
refuse NaN or inf parameters, label scaling that is not a finite positive
number, a ``seed`` that is not an integer and ``metadata`` that is not an
object. Loading also rejects a header that lacks a key, holds an unknown spec
key or a spec value ``ModelSpec`` refuses, or a ``spec`` or ``label_scaling``
that is not a JSON object, and a blob whose size disagrees with the layout;
each with a ValueError that names the file.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..schedule import _naming
from .models import ModelSpec, param_layout

DELIMITER = b"---PARAMS---\n"


@dataclass
class ModelCheckpoint:
    spec: ModelSpec
    params: dict[str, np.ndarray]
    t1_max: float
    t2_max: float
    seed: int
    metadata: dict = field(default_factory=dict)


def _reject_nonfinite(params: dict[str, np.ndarray]) -> None:
    bad = [name for name, arr in params.items() if not np.all(np.isfinite(arr))]
    if bad:
        raise ValueError(f"NaN or inf values in parameters {bad}")


def _check_object(key: str, value) -> None:
    if not isinstance(value, dict):
        raise ValueError(f"{key} must be a JSON object, got {type(value).__name__}")


def _check_values(t1_max, t2_max, seed, metadata) -> None:
    """ValueError unless both label scalings are finite positive numbers,
    ``seed`` is an integer and ``metadata`` an object."""
    bad = {key: value for key, value in (("t1_max", t1_max), ("t2_max", t2_max))
           if isinstance(value, bool) or not isinstance(value, (int, float))
           or not (math.isfinite(value) and value > 0)}
    if bad:
        raise ValueError(f"label scaling must be finite and positive, got {bad}")
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    _check_object("metadata", metadata)


def save_checkpoint(ckpt: ModelCheckpoint, path: str | Path) -> Path:
    path = Path(path)
    with _naming(path):
        _check_values(ckpt.t1_max, ckpt.t2_max, ckpt.seed, ckpt.metadata)
        layout = param_layout(ckpt.spec)
        given = {name: np.shape(arr) for name, arr in ckpt.params.items()}
        wrong = {name: (given.get(name), layout.get(name))
                 for name in sorted(given.keys() | layout.keys())
                 if given.get(name) != layout.get(name)}
        if wrong:
            raise ValueError(f"parameters do not fit the {ckpt.spec.kind} spec, "
                             f"name: (given shape, spec shape): {wrong}")
        stored = {name: np.ascontiguousarray(ckpt.params[name], dtype="<f4")
                  for name in layout}
        _reject_nonfinite(stored)
    header = {
        "spec": ckpt.spec.to_json_dict(),
        "label_scaling": {"t1_max": ckpt.t1_max, "t2_max": ckpt.t2_max},
        "seed": ckpt.seed,
        "metadata": ckpt.metadata,
    }
    blob = b"".join(arr.tobytes() for arr in stored.values())
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(DELIMITER)
        fh.write(blob)
    return path


def load_checkpoint(path: str | Path) -> ModelCheckpoint:
    path = Path(path)
    raw = path.read_bytes()
    with _naming(path):
        cut = raw.find(DELIMITER)
        if cut < 0:
            raise ValueError("missing parameter delimiter")
        try:
            header = json.loads(raw[:cut].decode("utf-8"))
        except ValueError as err:  # also UnicodeDecodeError
            raise ValueError(f"header is not JSON: {err}") from None
        blob = raw[cut + len(DELIMITER):]
        _check_object("header", header)
        missing = [key for key in ("spec", "label_scaling", "seed") if key not in header]
        if missing:
            raise ValueError(f"header lacks {missing}")
        for key in ("spec", "label_scaling"):
            _check_object(key, header[key])
        scaling = header["label_scaling"]
        missing = [key for key in ("t1_max", "t2_max") if key not in scaling]
        if missing:
            raise ValueError(f"label_scaling lacks {missing}")
        _check_values(scaling["t1_max"], scaling["t2_max"], header["seed"],
                      header.get("metadata", {}))

        spec = ModelSpec.from_json_dict(header["spec"])
        layout = param_layout(spec)
        expected = sum(4 * math.prod(shape) for shape in layout.values())
        if expected != len(blob):
            raise ValueError(
                f"parameter blob has {len(blob)} bytes, expected {expected}")
        params: dict[str, np.ndarray] = {}
        offset = 0
        for name, shape in layout.items():
            count = math.prod(shape)
            arr = np.frombuffer(blob, dtype="<f4", count=count, offset=offset)
            params[name] = arr.astype(np.float64).reshape(shape)
            offset += 4 * count
        _reject_nonfinite(params)

    return ModelCheckpoint(
        spec=spec,
        params=params,
        t1_max=float(scaling["t1_max"]),
        t2_max=float(scaling["t2_max"]),
        seed=header["seed"],
        metadata=header.get("metadata", {}),
    )
