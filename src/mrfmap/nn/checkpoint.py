"""Model checkpoint files.

A ``.ckpt`` file is the ``files.write_blob`` container: a one-line JSON
header (model spec, label-scaling constants, seed, training metadata), the
``---PARAMS---`` delimiter line, then every parameter array of
``param_layout(spec)``, in its order and shapes, flattened to
little-endian float32; the ``param_order`` and ``param_shapes`` that older
headers also hold are ignored. The spec names no recurrent cell, as the GRU
is the only one: an older header's ``"cell_kind": "gru"`` is dropped on
load and any other cell refused (``ModelSpec.from_json_dict``). Loading
restores float64 parameters whose values are exactly the stored f32 ones,
so save -> load -> save is byte-identical.

A ``ModelCheckpoint`` holds every rule on what a checkpoint may be. Its
constructor refuses a ``spec`` that is not a ``ModelSpec``, ``params`` that
are not a dict of arrays by name or that ``files.fits`` refuses against
``param_layout(spec)``, any parameter that ``files.real_rows`` refuses as
float32 (complex, NaN or inf, or beyond float32; one error names every such
array), label scaling that ``files.number`` refuses (not a finite number)
or that is not positive, a ``seed`` that is not an integer and
``metadata`` that is not a JSON object ``json.dumps`` can write as strict
JSON (NaN and inf have no JSON form). The arrays
and metadata can change after construction, so saving constructs the
checkpoint again before it writes anything; then it only formats. Loading
only parses the container (``files.read_blob``), the header's keys and the
blob size, and constructs. ``ModelSpec`` refuses a bad spec. Each refusal
in a save or a load is a ValueError that names the file.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from ..files import fits, json_object, naming, number, read_blob, real_rows, write_blob
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
        fits("parameters", self.params, param_layout(self.spec))
        bad = {}
        for name, arr in self.params.items():
            try:  # one row, so that each message stays one line long
                real_rows(name, arr.reshape(1, -1), dtype=np.float32)
            except ValueError as err:
                bad[name] = str(err)
        if bad:
            raise ValueError(f"parameters {list(bad)} refused: {'; '.join(bad.values())}")
        scaling = {key: number(key, getattr(self, key)) for key in ("t1_max", "t2_max")}
        bad = {key: value for key, value in scaling.items() if value <= 0}
        if bad:
            raise ValueError(f"label scaling must be finite and positive, got {bad}")
        for key, value in {**scaling, "seed": number("seed", self.seed, integral=True)}.items():
            object.__setattr__(self, key, value)
        json_object("metadata", self.metadata)
        try:
            json.dumps(self.metadata, sort_keys=True, allow_nan=False)
        except (TypeError, ValueError) as err:  # a value JSON has no form for
            raise ValueError(f"metadata is not JSON: {err}") from None


def save_checkpoint(ckpt: ModelCheckpoint, path: str | Path) -> Path:
    """Write ``ckpt`` to ``path``; a refused checkpoint leaves the file as it was."""
    path = Path(path)
    with naming(path):
        ckpt = replace(ckpt)  # the arrays and metadata may have changed since construction
    header = {"spec": ckpt.spec.to_json_dict(), "seed": ckpt.seed, "metadata": ckpt.metadata,
              "label_scaling": {"t1_max": ckpt.t1_max, "t2_max": ckpt.t2_max}}
    write_blob(path, header, DELIMITER, [ckpt.params[name] for name in param_layout(ckpt.spec)])
    return path


def load_checkpoint(path: str | Path) -> ModelCheckpoint:
    path = Path(path)
    with naming(path):
        header, blob = read_blob(path, DELIMITER)
        header = json_object("header", header, ("spec", "label_scaling", "seed"))
        scaling = json_object("label_scaling", header["label_scaling"], ("t1_max", "t2_max"))
        spec = ModelSpec.from_json_dict(header["spec"])
        layout = param_layout(spec)
        sizes = [math.prod(shape) for shape in layout.values()]
        if sum(sizes) != blob.size:
            raise ValueError(f"parameter blob has {4 * blob.size} bytes, expected {4 * sum(sizes)}")
        flat = blob.astype(np.float64)
        params = {name: part.reshape(shape) for (name, shape), part
                  in zip(layout.items(), np.split(flat, np.cumsum(sizes)[:-1]))}
        return ModelCheckpoint(spec, params, scaling["t1_max"], scaling["t2_max"],
                               header["seed"], header.get("metadata", {}))
