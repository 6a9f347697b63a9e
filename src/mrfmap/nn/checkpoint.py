"""Model checkpoint files.

A ``.ckpt`` file is a one-line JSON header (model spec, label-scaling
constants, seed, training metadata), a delimiter line, then every parameter
array flattened to little-endian float32 in declaration order. Loading
restores float64 parameters whose values are exactly the stored f32 ones,
so save -> load -> save is byte-identical. It rejects a file whose blob
size disagrees with the header, whose shapes disagree with the spec, or
whose parameters hold NaN or inf.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .models import ModelSpec, init_params

DELIMITER = b"---PARAMS---\n"


@dataclass
class ModelCheckpoint:
    spec: ModelSpec
    params: dict[str, np.ndarray]
    t1_max: float
    t2_max: float
    seed: int
    metadata: dict = field(default_factory=dict)


def save_checkpoint(ckpt: ModelCheckpoint, path: str | Path) -> Path:
    path = Path(path)
    header = {
        "spec": ckpt.spec.to_json_dict(),
        "label_scaling": {"t1_max": ckpt.t1_max, "t2_max": ckpt.t2_max},
        "seed": ckpt.seed,
        "metadata": ckpt.metadata,
        "param_order": list(ckpt.params.keys()),
        "param_shapes": {k: list(v.shape) for k, v in ckpt.params.items()},
    }
    blob = b"".join(
        np.ascontiguousarray(arr, dtype="<f4").tobytes()
        for arr in ckpt.params.values()
    )
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(DELIMITER)
        fh.write(blob)
    return path


def load_checkpoint(path: str | Path) -> ModelCheckpoint:
    path = Path(path)
    raw = path.read_bytes()
    cut = raw.find(DELIMITER)
    if cut < 0:
        raise ValueError(f"{path}: missing parameter delimiter")
    header = json.loads(raw[:cut].decode("utf-8"))
    blob = raw[cut + len(DELIMITER):]

    spec = ModelSpec.from_json_dict(header["spec"])
    shapes = {name: tuple(header["param_shapes"][name])
              for name in header["param_order"]}
    expected = sum(4 * int(np.prod(shape)) for shape in shapes.values())
    if expected != len(blob):
        raise ValueError(
            f"{path}: parameter blob has {len(blob)} bytes, expected {expected}")
    params: dict[str, np.ndarray] = {}
    offset = 0
    for name, shape in shapes.items():
        count = int(np.prod(shape))
        arr = np.frombuffer(blob, dtype="<f4", count=count, offset=offset)
        params[name] = arr.astype(np.float64).reshape(shape)
        offset += 4 * count
    bad = [name for name, arr in params.items() if not np.all(np.isfinite(arr))]
    if bad:
        raise ValueError(f"{path}: NaN or inf values in parameters {bad}")

    # Layout sanity: same keys/shapes a fresh init would produce.
    reference = init_params(spec, seed=0)
    if list(reference.keys()) != list(params.keys()):
        raise ValueError(f"{path}: parameter names do not match spec {spec.kind}")
    for name, arr in params.items():
        if reference[name].shape != arr.shape:
            raise ValueError(
                f"{path}: {name} has shape {arr.shape}, "
                f"spec implies {reference[name].shape}")

    scaling = header["label_scaling"]
    return ModelCheckpoint(
        spec=spec,
        params=params,
        t1_max=float(scaling["t1_max"]),
        t2_max=float(scaling["t2_max"]),
        seed=int(header["seed"]),
        metadata=header.get("metadata", {}),
    )
