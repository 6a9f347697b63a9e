"""The networks: each model's parameter layout, forward and backward pass,
and the cache between the two, which no other module reads.

Every model maps one magnitude signal to two scaled outputs (t1_hat,
t2_hat): a ``_forward_<kind>`` makes (B, width) features, to which
``_forward`` applies the one dense head, and ``backward`` hands the
features' gradient to the matching ``_backward_<kind>``. Parameters are an
insertion-ordered dict of float64 arrays in ``param_layout``'s order, which
is also ``init_params``'s draw order and the checkpoint blob's. Each entry
(``forward_batch``, ``predict_batch``, ``predict_single`` and
``backprop.loss_and_grads``) refuses parameters whose names or shapes
differ from that layout (``files.fits``) before any block runs; it reads
no values, which for the default ANN would be a pass over 616k of them on
every call. A cache holds layer outputs only, and inference keeps none.

A ``ModelSpec`` records only settings that change the network. The GRU is
the one recurrent cell, so ``cell_kind`` is a class constant, not a field
that a header would record.

The recurrent regressor feeds the signal ``chunk_size`` samples per time
step (chunk_size=1 reproduces one-sample-per-step reading of the signal;
larger chunks shorten the unrolled sequence for speed) and regresses from
the final hidden state. The unroll carries the cell's state, which is its
(B, h) hidden output, projects each step's input and calls ``cells.step``;
its features are the final state. For the backward pass it records a tape
for ``cells.step_grad``: a tuple of ``(n_steps, B, h)`` arrays, one for
every step's previous state and one per entry of the step's ``acts``,
shaped from the first step's, so this module knows no gate layout. Step t
copies into slot t of each.
Backpropagation through time walks the slots from the last step to the
first and hands slot t of each array to ``cells.step_grad``.

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

One rule, ``row_blocks``, cuts rows into the blocks that one forward
runs at once, and two callers apply it: ``predict_batch`` runs each block
of its batch without a cache, and ``backprop.loss_and_grads`` runs
``forward_batch`` and ``backward`` on each block of each slab. The GRU and
the ANN run all their rows as one block. A cnn1d runs blocks of rows,
because each layer's ``np.einsum(..., optimize=True)`` copies every window
it reads, an im2col copy about K/stride = 2.5 times the layer's input: the
whole batch at once held 490 MiB for inference at N=1750, B=1024, and for
training, whose cache also keeps every layer, 245 MiB at B=256. A row's
bytes are the most it holds at once in any layer: the layer's input, its
window copy and its output, each channels x length x 8 bytes, read from
``conv_lengths`` and ``cnn_channels``. A block has as many rows as
``CNN_BLOCK_BUDGET`` holds at that size, rounded down to a multiple of 16
and at least 16 (``_cnn_block_rows``), and ``_forward_cnn`` itself runs
whatever rows it is handed as one block.

The rounding keeps the bits. OpenBLAS (0.3.31, Haswell kernels) computes
the last (columns mod 8) columns of a product by other code than the rest,
so a block whose products have a ragged column count changes the last bits
of its last rows. With blocks of a multiple of 16 rows, every batch of a
multiple of 16 rows gets the predictions of the one-block forward, in
inference and in training, where a block starts every ``_cnn_block_rows``
rows from the start of its slab. In other batches a short last block may
differ in the last bit, as the rows of two batches of different sizes
already did. The gradients of several blocks are summed block by block,
which moves them by rounding only.

The budget comes from a sweep of ``predict_batch`` on the default cnn1d
(B=1024, one BLAS thread, 2-core Xeon, budgets interleaved, median ms of 15
runs at N=250 and 7 at N=1750, tracemalloc peak in MiB):

    budget (MiB)        2      4      8     16     32     64   whole
    N=250   rows       16     48    112    240    480    960    1024
            ms        124     95     84     79     91    106     113
            peak      2.1    4.2    8.4   16.9   32.8   64.6    68.9
    N=1750  rows       16     16     16     32     64    128    1024
            ms        586    586    600    575    603    853    1343
            peak      8.7    8.7    8.7   16.3   31.6   62.2   490.8

16 MiB was the fastest budget at both lengths; at N=1750 no row count
under 16 was tried, as that would break the rounding above.

``_backward_ann`` and ``_backward_cnn`` use the subgradient relu'(0) = 0:
the mask is ``out > 0`` on the ReLU output, so a pre-activation of exactly
0 passes no gradient. At such a point the loss has a kink, and a central
difference averages the two one-sided slopes. The gradchecks therefore find
the parameter entries whose perturbation by +-delta switches some ReLU on
or off, and compare those entries only against the second-order one-sided
difference from the side that keeps the ReLU on/off pattern at theta (for a
unit at exactly 0, the side on which it stays <= 0). A kink entry with no
such side fails the check. The finite-difference tests in the suite are the
authority these derivations are checked against.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from ..files import fits, json_object, number, real_rows
from .cells import N_GATES, _glorot, init_cell, step, step_grad

OUTPUT_DIM = 2

MODEL_KINDS = ("rnn_regressor", "ann", "cnn1d")

# Bytes of layer outputs and window copies one block of a cnn1d inference
# forward may hold, which also sizes its training blocks; the module
# docstring gives the sweep that set it.
CNN_BLOCK_BUDGET = 16 * 2**20


def _positive_int(name: str, value) -> int:
    value = number(name, value, integral=True)
    if value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return value


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    input_len: int = 1750
    hidden_dim: int = 100
    chunk_size: int = 1
    ann_hidden: tuple = (300, 300)
    cnn_channels: tuple = (16, 32, 64, 128)
    cnn_kernel: int = 5
    cnn_stride: int = 2
    # The one recurrent cell: a class constant, not a field, so no header
    # records it; mrfbench's tracer still reads it.
    cell_kind = "gru"

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        for name in ("input_len", "hidden_dim", "chunk_size", "cnn_kernel",
                     "cnn_stride"):
            object.__setattr__(self, name, _positive_int(name, getattr(self, name)))
        for name in ("ann_hidden", "cnn_channels"):
            value = getattr(self, name)
            if not isinstance(value, (list, tuple)):
                raise ValueError(f"{name} must be a sequence of positive "
                                 f"integers, got {value!r}")
            object.__setattr__(self, name, tuple(_positive_int(name, v) for v in value))
        if self.kind == "rnn_regressor" and self.input_len % self.chunk_size != 0:
            raise ValueError(
                f"chunk_size {self.chunk_size} must divide input_len {self.input_len}")
        if self.kind == "cnn1d" and not self.cnn_channels:
            raise ValueError("cnn_channels must be at least one conv layer for a cnn1d, got ()")
        if self.kind == "cnn1d" and self.conv_lengths()[-1] < 1:
            raise ValueError("input_len too short for the conv stack")

    @property
    def n_steps(self) -> int:
        """Steps of the recurrent unroll; 1 for the feed-forward kinds, the
        ANN and the CNN, which have none."""
        return self.input_len // self.chunk_size if self.kind == "rnn_regressor" else 1

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
        """The spec ``to_json_dict`` wrote; unknown keys raise ValueError.

        Older headers also hold ``"cell_kind": "gru"``, which is dropped; any
        other cell is refused.
        """
        names = {"cell_kind", *(f.name for f in fields(cls))}
        d = dict(json_object("spec", d, ("kind",), names))
        cell = d.pop("cell_kind", cls.cell_kind)
        if cell != cls.cell_kind:
            raise ValueError(f"unknown cell kind {cell!r}; the only cell is 'gru'")
        return cls(**d)


def param_layout(spec: ModelSpec) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter array, in declaration order, the head
    last. Nothing is drawn, so this costs nothing however large the spec."""
    if spec.kind == "rnn_regressor":
        gates = N_GATES * spec.hidden_dim
        layout = {"cell.w": (spec.chunk_size, gates),
                  "cell.u": (spec.hidden_dim, gates), "cell.b": (gates,)}
        width = spec.hidden_dim
    elif spec.kind == "ann":
        layout, width = {}, spec.input_len
        for idx, out in enumerate(spec.ann_hidden, start=1):
            layout[f"fc{idx}.w"], layout[f"fc{idx}.b"] = (width, out), (out,)
            width = out
    else:
        layout, width = {}, 1
        for idx, out in enumerate(spec.cnn_channels, start=1):
            layout[f"conv{idx}.w"] = (out, width, spec.cnn_kernel)
            layout[f"conv{idx}.b"] = (out,)
            width = out
    layout["head.w"], layout["head.b"] = (width, OUTPUT_DIM), (OUTPUT_DIM,)
    return layout


def init_params(spec: ModelSpec, seed: int) -> dict[str, np.ndarray]:
    """The arrays of ``param_layout(spec)``, filled in its order from ``seed``.

    Biases are zero; a recurrent cell is filled by ``cells.init_cell`` and
    every other weight is Glorot-uniform.
    """
    rng = np.random.default_rng(seed)
    params = {name: np.zeros(shape) for name, shape in param_layout(spec).items()}
    for name, arr in params.items():
        if name == "cell.w":
            init_cell(arr, params["cell.u"], params["cell.b"], rng)
        elif name.endswith(".w"):
            arr[...] = _glorot(rng, arr.shape)
    return params


def row_blocks(spec: ModelSpec, lo: int, hi: int) -> list[tuple[int, int]]:
    """(start, stop) of each block that rows ``lo`` to ``hi`` run in, one
    forward each: for a cnn1d every ``_cnn_block_rows`` rows from ``lo``,
    the last block short, and for the GRU and the ANN all of them. No rows
    are one empty block."""
    rows = _cnn_block_rows(spec) if spec.kind == "cnn1d" else max(hi - lo, 1)
    return [(a, min(a + rows, hi)) for a in range(lo, hi, rows)] or [(lo, hi)]


def forward_batch(spec: ModelSpec, params: dict[str, np.ndarray],
                  signals: np.ndarray):
    """The training forward on a (B, input_len) batch, all its rows one
    block; returns (preds, cache).

    The cache holds every activation ``backward`` needs. Parameters whose
    names or shapes differ from ``param_layout(spec)``, and rows holding
    NaN or inf, are rejected, naming them. ``backprop.loss_and_grads``
    calls this once per block of ``row_blocks``.
    """
    fits("parameters", params, param_layout(spec))
    return _forward(spec, params, real_rows("signals", signals, spec.input_len), True)


def _forward(spec, params, x, keep_cache):
    """Predictions and cache of the checked rows ``x``: the kind's forward,
    then the head. Without ``keep_cache`` no kind keeps an earlier layer or
    step, and the cache is empty."""
    forward_of = {"rnn_regressor": _forward_rnn, "ann": _forward_ann, "cnn1d": _forward_cnn}
    features, cache = forward_of[spec.kind](spec, params, x, keep_cache)
    if cache:
        cache["features"] = features
    return features @ params["head.w"] + params["head.b"], cache


def backward(spec: ModelSpec, params: dict[str, np.ndarray], cache: dict,
             d_preds: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients for every parameter, in declaration order, from the cache of
    ``forward_batch`` and the loss gradient ``d_preds`` at its predictions."""
    if not cache:
        raise ValueError("forward activations unavailable; run forward_batch first")
    grads = {name: np.zeros_like(arr) for name, arr in params.items()}
    grads["head.w"] += cache["features"].T @ d_preds
    grads["head.b"] += d_preds.sum(axis=0)
    d_features = d_preds @ params["head.w"].T
    backward_of = {"rnn_regressor": _backward_rnn, "ann": _backward_ann, "cnn1d": _backward_cnn}
    backward_of[spec.kind](spec, params, cache, d_features, grads)
    return grads


def _forward_rnn(spec, params, x, keep_cache):
    w, u, b = params["cell.w"], params["cell.u"], params["cell.b"]
    n_rows, n_steps = x.shape[0], spec.n_steps
    # (B, input_len) -> (n_steps, B, chunk_size), time-major for the unroll
    xs = np.ascontiguousarray(
        x.reshape(n_rows, n_steps, spec.chunk_size).transpose(1, 0, 2))
    s = np.zeros((n_rows, spec.hidden_dim))
    tape = ()
    for t, x_t in enumerate(xs):
        # np.dot, not @: at chunk_size 1 NumPy's matmul takes about twice
        # as long on this (B, 1) @ (1, gates * h) product, for the same bits.
        s_t, acts = step(u, np.dot(x_t, w) + b, s)
        if keep_cache:
            if not tape:
                tape = tuple(np.empty((n_steps, *a.shape), dtype=a.dtype)
                             for a in (s, *acts))
            for buf, a in zip(tape, (s, *acts)):
                buf[t] = a
        s = s_t
    return s, ({"xs": xs, "tape": tape} if keep_cache else {})


def _backward_rnn(spec, params, cache, d_features, grads):
    u, xs, tape = params["cell.u"], cache["xs"], cache["tape"]
    ds = d_features  # the state is the features, so BPTT starts from theirs
    dw, du, db = grads["cell.w"], grads["cell.u"], grads["cell.b"]
    for t in range(len(xs) - 1, -1, -1):
        s, *acts = (buf[t] for buf in tape)
        dxp, du_t, ds = step_grad(u, s, acts, ds)
        dw += xs[t].T @ dxp
        du += du_t
        db += dxp.sum(axis=0)


def _forward_ann(spec, params, x, keep_cache):
    xs = [x]  # the input, then every hidden layer's ReLU output
    for idx in range(1, len(spec.ann_hidden) + 1):
        z = xs[-1] @ params[f"fc{idx}.w"] + params[f"fc{idx}.b"]
        xs.append(np.maximum(z, 0.0, out=z))
        if not keep_cache:
            del xs[0]
    return xs[-1], ({"xs": xs} if keep_cache else {})


def _backward_ann(spec, params, cache, d_features, grads):
    xs, da = cache["xs"], d_features
    for idx in range(len(spec.ann_hidden), 0, -1):
        dz = da * (xs[idx] > 0.0)
        grads[f"fc{idx}.w"] += xs[idx - 1].T @ dz
        grads[f"fc{idx}.b"] += dz.sum(axis=0)
        if idx > 1:  # nothing reads the gradient of the signal itself
            da = dz @ params[f"fc{idx}.w"].T


def _conv_windows(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    # (B, C, L) -> (B, C, L_out, kernel) strided view, read-only
    win = np.lib.stride_tricks.sliding_window_view(x, kernel, axis=2)
    return win[:, :, ::stride]


def _cnn_block_rows(spec: ModelSpec) -> int:
    """Rows per block of a cnn1d forward: as many as
    ``CNN_BLOCK_BUDGET`` holds, rounded down to a multiple of 16, at least 16.

    A row costs the most it holds at once in any layer: the layer's input,
    einsum's copy of the windows it reads and its output.
    """
    widths, lengths = (1, *spec.cnn_channels), spec.conv_lengths()
    row_bytes = 8 * max(c_in * (l_in + spec.cnn_kernel * l_out) + c_out * l_out
                        for c_in, c_out, l_in, l_out
                        in zip(widths, widths[1:], lengths, lengths[1:]))
    return max(16, CNN_BLOCK_BUDGET // row_bytes // 16 * 16)


def _forward_cnn(spec, params, x, keep_cache):
    xs = [x[:, None, :]]  # (B, 1, L), then every ReLU output
    for idx in range(1, len(spec.cnn_channels) + 1):
        win = _conv_windows(xs[-1], spec.cnn_kernel, spec.cnn_stride)
        z = np.einsum("bclk,ock->bol", win, params[f"conv{idx}.w"], optimize=True)
        z += params[f"conv{idx}.b"][:, None]
        xs.append(np.maximum(z, 0.0, out=z))
        if not keep_cache:
            del xs[0]
    return xs[-1].mean(axis=2), ({"xs": xs} if keep_cache else {})  # average pool


def _backward_cnn(spec, params, cache, d_features, grads):
    xs = cache["xs"]
    # undo the global average pool; the first mask broadcasts it over length
    dx = d_features[:, :, None] / xs[-1].shape[2]
    k, stride = spec.cnn_kernel, spec.cnn_stride
    for idx in range(len(spec.cnn_channels), 0, -1):
        dz = dx * (xs[idx] > 0.0)
        w = params[f"conv{idx}.w"]
        win = _conv_windows(xs[idx - 1], k, stride)
        grads[f"conv{idx}.w"] += np.einsum("bclk,bol->ock", win, dz,
                                           optimize=True)
        grads[f"conv{idx}.b"] += dz.sum(axis=(0, 2))
        if idx == 1:  # nothing reads the gradient of the signal itself
            break
        dx = np.zeros_like(xs[idx - 1])
        n_win = dz.shape[2]
        for tap in range(k):
            # scatter each kernel tap back onto the input positions it read
            contrib = np.einsum("bol,oc->bcl", dz, w[:, :, tap], optimize=True)
            dx[:, :, tap:tap + stride * n_win:stride] += contrib


def predict_batch(spec: ModelSpec, params: dict[str, np.ndarray],
                  signals: np.ndarray) -> np.ndarray:
    """(B, 2) outputs for a (B, input_len) batch.

    Parameters and rows are checked as ``forward_batch`` checks them. Each
    block of ``row_blocks`` runs without ``backward``'s cache, so a cnn1d
    holds one block's layers at a time.
    """
    fits("parameters", params, param_layout(spec))
    signals = real_rows("signals", signals, spec.input_len)
    return np.concatenate([_forward(spec, params, signals[lo:hi], False)[0]
                           for lo, hi in row_blocks(spec, 0, len(signals))])


def predict_single(spec: ModelSpec, params: dict[str, np.ndarray],
                   signal: np.ndarray) -> np.ndarray:
    """(2,) output for one signal of length ``input_len``.

    ``predict_batch`` at B=1, one block for every kind, so the result
    equals row 0 of ``forward_batch`` on ``signal[None]`` bit for bit. It
    runs that block itself, not through ``predict_batch``, so that a
    wrapper installed there sees batch calls only.
    """
    fits("parameters", params, param_layout(spec))
    signal = np.asarray(signal)
    if signal.shape != (spec.input_len,):
        raise ValueError(
            f"signal must have length {spec.input_len}, got {signal.shape}")
    return _forward(spec, params, real_rows("signals", signal[None, :]), False)[0][0]
