"""Model checkpoint files.

A ``.ckpt`` file is a one-line JSON header (model spec, label-scaling
constants, seed, training metadata), a delimiter line, then every parameter
array of ``param_layout(spec)``, in its order and shapes, flattened to
little-endian float32; the ``param_order`` and ``param_shapes`` that older
headers also hold are ignored. Loading restores float64 parameters whose
values are exactly the stored f32 ones, so save -> load -> save is
byte-identical. On construction a ``ModelCheckpoint`` refuses a ``spec``
that is not a ``ModelSpec``, ``params`` that are not a dict of arrays by
name, label scaling that is not a finite positive number, a ``seed`` that
is not an integer and ``metadata`` that is not an object. In the file
(arrays and metadata can change after construction), saving refuses
parameters off the layout and a header JSON cannot hold; both refuse NaN
or inf parameters.
Loading also rejects a header that lacks a key, holds an unknown spec key or
a spec value ``ModelSpec`` refuses, a ``spec`` or ``label_scaling`` that is
not a JSON object, and a blob whose size disagrees with the layout; each
with a ValueError that names the file.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..files import json_object, naming, number
from .models import ModelSpec, param_layout

DELIMITER = b"---PARAMS---\n"


@dataclass(frozen=True)
class ModelCheckpoint:
    spec: ModelSpec
    params: dict[str, np.ndarray]
    t1_max: float
    t2_max: float
    seed: int
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.spec, ModelSpec):
            raise ValueError(f"spec must be a ModelSpec, got {type(self.spec).__name__}")
        if not isinstance(self.params, dict):
            raise ValueError(f"params must be a dict of arrays, got {type(self.params).__name__}")
        bad = {key: type(value).__name__ for key, value in self.params.items()
               if not (isinstance(key, str) and isinstance(value, np.ndarray))}
        if bad:
            raise ValueError(f"params must be a dict of arrays by name, got {bad}")
        scaling = {key: number(key, getattr(self, key)) for key in ("t1_max", "t2_max")}
        bad = {key: value for key, value in scaling.items()
               if not (math.isfinite(value) and value > 0)}
        if bad:
            raise ValueError(f"label scaling must be finite and positive, got {bad}")
        for key, value in {**scaling, "seed": number("seed", self.seed, integral=True)}.items():
            object.__setattr__(self, key, value)
        json_object("metadata", self.metadata)


def _reject_nonfinite(params: dict[str, np.ndarray]) -> None:
    bad = [name for name, arr in params.items() if not np.all(np.isfinite(arr))]
    if bad:
        raise ValueError(f"NaN or inf values in parameters {bad}")


def save_checkpoint(ckpt: ModelCheckpoint, path: str | Path) -> Path:
    """Write ``ckpt`` to ``path``; a refused checkpoint leaves the file as it was."""
    path = Path(path)
    with naming(path):
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
        try:
            text = json.dumps(header, sort_keys=True)
        except TypeError as err:  # a value JSON has no form for
            raise ValueError(f"header is not JSON: {err}") from None
    blob = b"".join(arr.tobytes() for arr in stored.values())
    with open(path, "wb") as fh:
        fh.write(text.encode("utf-8"))
        fh.write(b"\n")
        fh.write(DELIMITER)
        fh.write(blob)
    return path


def load_checkpoint(path: str | Path) -> ModelCheckpoint:
    path = Path(path)
    raw = path.read_bytes()
    with naming(path):
        cut = raw.find(DELIMITER)
        if cut < 0:
            raise ValueError("missing parameter delimiter")
        try:
            header = json.loads(raw[:cut].decode("utf-8"))
        except ValueError as err:  # also UnicodeDecodeError
            raise ValueError(f"header is not JSON: {err}") from None
        header = json_object("header", header, ("spec", "label_scaling", "seed"))
        scaling = json_object("label_scaling", header["label_scaling"], ("t1_max", "t2_max"))
        spec = ModelSpec.from_json_dict(header["spec"])
        layout = param_layout(spec)
        sizes = [math.prod(shape) for shape in layout.values()]
        blob = memoryview(raw)[cut + len(DELIMITER):]
        if 4 * sum(sizes) != len(blob):
            raise ValueError(f"parameter blob has {len(blob)} bytes, expected {4 * sum(sizes)}")
        flat = np.frombuffer(blob, dtype="<f4").astype(np.float64)
        params = {name: part.reshape(shape) for (name, shape), part
                  in zip(layout.items(), np.split(flat, np.cumsum(sizes)[:-1]))}
        _reject_nonfinite(params)
        return ModelCheckpoint(spec, params, scaling["t1_max"], scaling["t2_max"],
                               header["seed"], header.get("metadata", {}))
