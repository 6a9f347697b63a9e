"""Model definitions: recurrent regressors plus ANN and 1-D CNN baselines.

Every model maps one magnitude signal to two scaled outputs (t1_hat,
t2_hat). Parameters live in an insertion-ordered dict of float64 arrays;
that declaration order also defines the checkpoint blob layout.

The recurrent regressor feeds the signal ``chunk_size`` samples per time
step (chunk_size=1 reproduces one-sample-per-step reading of the signal;
larger chunks shorten the unrolled sequence for speed) and regresses from
the final hidden state through a dense head. The unroll carries one state
array of ``cells.N_STATES`` blocks of h columns, projects each step's input
and calls ``cells.step``; the head reads the state's first h columns. For
the backprop cache it records a tape for ``cells.step_grad``: a tuple of
``(n_steps, B, k)`` arrays, one for every step's previous state and one
per entry of the step's ``acts``, shaped from the first step's, so this
module knows no gate or state layout. Step t copies into slot t of each.
``predict_batch`` and ``predict_single`` (the batch forward at B=1) record
no tape.

A tape of a few whole-sequence arrays, not a list of small per-step ones,
is what keeps a training step cheap in page faults: per-step arrays kept
until the backward grow the heap, which is trimmed after the call and
first-touched again, 4 KiB at a time, on the next. Each array of a
training-sized tape is at least 4 MiB, for which NumPy advises
transparent huge pages, so a kernel with THP at ``madvise`` (or
``always``) maps it in 2 MiB pages. For a GRU ``loss_and_grads`` call
(h=100, N=1750, B=64, two slabs, one BLAS thread, 2-core Xeon, THP at
``madvise``) the minor faults per call fell from about 62k to about 3.5k
in the caller and 3k in its worker, and the median call from 1.33 to
1.03 s. Without the advice (``NUMPY_MADVISE_HUGEPAGE=0``, or THP
``never``) about 45k faults per process remain and the call takes 1.14 s.
"""

from __future__ import annotations

import numbers
from dataclasses import asdict, dataclass, fields

import numpy as np

from .cells import N_GATES, N_STATES, _glorot, init_cell, step

OUTPUT_DIM = 2

MODEL_KINDS = ("rnn_regressor", "ann", "cnn1d")


def _positive_int(value) -> bool:
    return (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and value >= 1)


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    input_len: int = 1750
    cell_kind: str = "gru"
    hidden_dim: int = 100
    chunk_size: int = 1
    ann_hidden: tuple = (300, 300)
    cnn_channels: tuple = (16, 32, 64, 128)
    cnn_kernel: int = 5
    cnn_stride: int = 2

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        for name in ("input_len", "hidden_dim", "chunk_size", "cnn_kernel",
                     "cnn_stride"):
            if not _positive_int(getattr(self, name)):
                raise ValueError(f"{name} must be a positive integer, "
                                 f"got {getattr(self, name)!r}")
        for name in ("ann_hidden", "cnn_channels"):
            value = getattr(self, name)
            if (not isinstance(value, (list, tuple))
                    or not all(map(_positive_int, value))):
                raise ValueError(f"{name} must be a sequence of positive "
                                 f"integers, got {value!r}")
        if self.kind == "rnn_regressor":
            if self.cell_kind not in N_GATES:
                raise ValueError(f"unknown cell kind {self.cell_kind!r}")
            if self.input_len % self.chunk_size != 0:
                raise ValueError(
                    f"chunk_size {self.chunk_size} must divide "
                    f"input_len {self.input_len}"
                )
        if self.kind == "cnn1d" and self.conv_lengths()[-1] < 1:
            raise ValueError("input_len too short for the conv stack")
        object.__setattr__(self, "ann_hidden", tuple(self.ann_hidden))
        object.__setattr__(self, "cnn_channels", tuple(self.cnn_channels))

    @property
    def n_steps(self) -> int:
        return self.input_len // self.chunk_size

    def conv_lengths(self) -> list[int]:
        """Sequence lengths after each valid-mode strided convolution."""
        lengths = [self.input_len]
        for _ in self.cnn_channels:
            lengths.append((lengths[-1] - self.cnn_kernel) // self.cnn_stride + 1)
        return lengths

    def to_json_dict(self) -> dict:
        return {k: list(v) if isinstance(v, tuple) else v
                for k, v in asdict(self).items()}

    @classmethod
    def from_json_dict(cls, d: dict) -> "ModelSpec":
        """The spec ``to_json_dict`` wrote; unknown keys raise ValueError."""
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown model spec keys {unknown}")
        if "kind" not in d:
            raise ValueError("model spec lacks 'kind'")
        return cls(**d)


def init_params(spec: ModelSpec, seed: int) -> dict[str, np.ndarray]:
    """Deterministic parameter initialization in declaration order."""
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    if spec.kind == "rnn_regressor":
        params["cell.w"], params["cell.u"], params["cell.b"] = init_cell(
            spec.cell_kind, spec.chunk_size, spec.hidden_dim, rng)
        params["head.w"] = _glorot(rng, spec.hidden_dim, OUTPUT_DIM)
        params["head.b"] = np.zeros(OUTPUT_DIM)
    elif spec.kind == "ann":
        fan_in = spec.input_len
        for idx, width in enumerate(spec.ann_hidden, start=1):
            params[f"fc{idx}.w"] = _glorot(rng, fan_in, width)
            params[f"fc{idx}.b"] = np.zeros(width)
            fan_in = width
        params["head.w"] = _glorot(rng, fan_in, OUTPUT_DIM)
        params["head.b"] = np.zeros(OUTPUT_DIM)
    else:
        c_in = 1
        for idx, c_out in enumerate(spec.cnn_channels, start=1):
            fan_in = c_in * spec.cnn_kernel
            limit = np.sqrt(6.0 / (fan_in + c_out))
            params[f"conv{idx}.w"] = rng.uniform(
                -limit, limit, size=(c_out, c_in, spec.cnn_kernel))
            params[f"conv{idx}.b"] = np.zeros(c_out)
            c_in = c_out
        params["head.w"] = _glorot(rng, c_in, OUTPUT_DIM)
        params["head.b"] = np.zeros(OUTPUT_DIM)
    return params


def mse_loss(pred: np.ndarray, target: np.ndarray) -> float:
    """Mean squared error over every entry of a (B, 2) prediction batch."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    if pred.ndim != 2 or pred.shape[0] < 1:
        raise ValueError(f"expected a nonempty (B, k) batch, got {pred.shape}")
    diff = pred - target
    return float(np.mean(diff * diff))


def _checked_signals(spec: ModelSpec, signals) -> np.ndarray:
    """``signals`` as a float64 (B, input_len) array; complex input, and
    NaN or inf rows (by index), are rejected."""
    if np.iscomplexobj(signals):
        raise ValueError("complex signals; pass their magnitudes (np.abs) instead")
    signals = np.asarray(signals, dtype=np.float64)
    if signals.ndim != 2 or signals.shape[1] != spec.input_len:
        raise ValueError(
            f"signals must be (B, {spec.input_len}), got {signals.shape}")
    bad = np.flatnonzero(~np.isfinite(signals).all(axis=1))
    if bad.size:
        raise ValueError(f"signals holding NaN or inf at indices {bad.tolist()}")
    return signals


def forward_batch(spec: ModelSpec, params: dict[str, np.ndarray],
                  signals: np.ndarray, _cache: bool = True):
    """Forward pass on a (B, input_len) batch; returns (preds, cache).

    The cache holds every activation the matching backward pass needs.
    Rows holding NaN or inf are rejected with their indices. Inference
    passes ``_cache=False``, with which the recurrent unroll stores no
    per-step activations and returns an empty cache.
    """
    signals = _checked_signals(spec, signals)
    if spec.kind == "rnn_regressor":
        return _forward_rnn(spec, params, signals, _cache)
    if spec.kind == "ann":
        return _forward_ann(spec, params, signals)
    return _forward_cnn(spec, params, signals)


def _forward_rnn(spec, params, signals, keep_cache):
    w, u, b = params["cell.w"], params["cell.u"], params["cell.b"]
    n_rows, n_steps = signals.shape[0], spec.n_steps
    # (B, input_len) -> (n_steps, B, chunk_size), time-major for the unroll
    xs = np.ascontiguousarray(
        signals.reshape(n_rows, n_steps, spec.chunk_size).transpose(1, 0, 2))
    s = np.zeros((n_rows, N_STATES[spec.cell_kind] * spec.hidden_dim))
    tape = ()
    for t, x_t in enumerate(xs):
        # np.dot, not @: at chunk_size 1 NumPy's matmul takes about twice
        # as long on this (B, 1) @ (1, gates * h) product, for the same bits.
        s_t, acts = step(spec.cell_kind, u, np.dot(x_t, w) + b, s)
        if keep_cache:
            if not tape:
                tape = tuple(np.empty((n_steps, *a.shape), dtype=a.dtype)
                             for a in (s, *acts))
            for buf, a in zip(tape, (s, *acts)):
                buf[t] = a
        s = s_t

    preds = s[:, :spec.hidden_dim] @ params["head.w"] + params["head.b"]
    return preds, ({"xs": xs, "tape": tape, "s": s} if keep_cache else {})


def _forward_ann(spec, params, signals):
    acts = [signals]
    pre_relu = []
    a = signals
    for idx in range(1, len(spec.ann_hidden) + 1):
        zpre = a @ params[f"fc{idx}.w"] + params[f"fc{idx}.b"]
        pre_relu.append(zpre)
        a = np.maximum(zpre, 0.0)
        acts.append(a)
    preds = a @ params["head.w"] + params["head.b"]
    return preds, {"acts": acts, "pre_relu": pre_relu}


def _conv_windows(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    # (B, C, L) -> (B, C, L_out, kernel) strided view, read-only
    win = np.lib.stride_tricks.sliding_window_view(x, kernel, axis=2)
    return win[:, :, ::stride]


def _forward_cnn(spec, params, signals):
    x = signals[:, None, :]  # (B, 1, L)
    xs = [x]
    pre_relu = []
    for idx in range(1, len(spec.cnn_channels) + 1):
        win = _conv_windows(xs[-1], spec.cnn_kernel, spec.cnn_stride)
        zpre = np.einsum("bclk,ock->bol", win, params[f"conv{idx}.w"],
                         optimize=True) + params[f"conv{idx}.b"][:, None]
        pre_relu.append(zpre)
        xs.append(np.maximum(zpre, 0.0))
    pooled = xs[-1].mean(axis=2)  # global average pool over time
    preds = pooled @ params["head.w"] + params["head.b"]
    return preds, {"xs": xs, "pre_relu": pre_relu, "pooled": pooled}


def predict_batch(spec: ModelSpec, params: dict[str, np.ndarray],
                  signals: np.ndarray) -> np.ndarray:
    """(B, 2) outputs for a (B, input_len) batch, without the backprop cache."""
    preds, _ = forward_batch(spec, params, signals, _cache=False)
    return preds


def predict_single(spec: ModelSpec, params: dict[str, np.ndarray],
                   signal: np.ndarray) -> np.ndarray:
    """(2,) output for one signal of length ``input_len``.

    The batch forward at B=1 without the backprop cache, so the result
    equals row 0 of ``forward_batch`` on ``signal[None]`` bit for bit.
    """
    signal = np.asarray(signal)
    if signal.shape != (spec.input_len,):
        raise ValueError(
            f"signal must have length {spec.input_len}, got {signal.shape}")
    preds, _ = forward_batch(spec, params, signal[None, :], _cache=False)
    return preds[0]
