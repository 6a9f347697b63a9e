"""Hand-derived backward passes (backpropagation through time included).

``backward`` consumes the cache produced by ``forward_batch`` and the
gradient of the loss w.r.t. the predictions, and returns gradients for every
parameter in declaration order. Backpropagation through time is one loop
for every cell kind: it puts the head's gradient in the first h columns of
the final state's, walks the forward tape's slots from the last step to the
first and hands slot t of each array to ``cells.step_grad``.
``loss_and_grads`` wires forward, the MSE derivative ``2 * (preds -
targets) / targets.size`` that ``_slab`` computes, and backward together
for the training loop.

Data-parallel BPTT. Every row's forward and backward pass is independent
until the gradients are summed, so ``loss_and_grads`` splits a recurrent
regressor's minibatch of B rows into P = ``max(1, min(available_cpus(),
B // MIN_SLAB_ROWS))`` contiguous slabs of near-equal size. The caller
runs the first slab and P - 1 forked workers the others (``fan_out``,
which starts no pool at P = 1); each runs forward and backward over its
rows with the whole batch's MSE gradient, and the caller sums the slab
gradients in slab order. An ANN or CNN minibatch costs about as much as
starting a pool (13 ms for the benchmark's ANN step), so neither splits.

With one slab the loss, the gradients and the predictions are bit for bit
those of one forward and one backward over the whole batch. A split
changes the order in which per-row contributions are summed into each
gradient, which moves it by rounding only (within 1e-12 of its largest
entry in the tests); the predictions, and so the loss, are unchanged
wherever BLAS rounds a row alike in a smaller batch.

The finite-difference tests in the suite are the authority these
derivations are checked against.

``_backward_ann`` and ``_backward_cnn`` use the subgradient relu'(0) = 0:
the mask is ``pre > 0``, so a pre-activation of exactly 0 passes no
gradient. At such a point the loss has a kink, and a central difference
averages the two one-sided slopes. The gradchecks therefore find the
parameter entries whose perturbation by +-delta switches some ReLU on or
off, and compare those entries only against the second-order one-sided
difference from the side that keeps the ReLU on/off pattern at theta
(for a unit at exactly 0, the side on which it stays <= 0). A kink entry
with no such side fails the check.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..parallel import available_cpus, fan_out
from .cells import step_grad
from .models import (OUTPUT_DIM, ModelSpec, _conv_windows, _checked_signals,
                     forward_batch, mse_loss)


def backward(spec: ModelSpec, params: dict[str, np.ndarray], cache: dict,
             d_preds: np.ndarray) -> dict[str, np.ndarray]:
    if not cache:
        raise ValueError("forward activations unavailable; run forward_batch first")
    if spec.kind == "rnn_regressor":
        return _backward_rnn(spec, params, cache, d_preds)
    if spec.kind == "ann":
        return _backward_ann(spec, params, cache, d_preds)
    return _backward_cnn(spec, params, cache, d_preds)


# Fewest rows in a slab of a split recurrent minibatch; see the table in
# ``loss_and_grads``'s docstring.
MIN_SLAB_ROWS = 32


def loss_and_grads(spec: ModelSpec, params: dict[str, np.ndarray],
                   signals: np.ndarray, targets: np.ndarray):
    """MSE loss, its gradient for every parameter, and the (B, 2) predictions.

    NaN or inf signal rows, targets of a shape other than (B, 2) and NaN or
    inf target rows are rejected, naming whole-batch row indices. A
    recurrent regressor's rows are split over processes as the module
    docstring describes.

    Every slab pays the unroll's per-step Python cost, and a split pays
    10-20 ms to start the pool, so a small batch runs faster whole. Median
    ms of 7 alternating runs for one process against two slabs (GRU,
    h=100, one BLAS thread, 2-core Xeon):

        N (chunk_size)    B=16       B=32       B=64       B=128
        1750 (1)        677/547  1010/770   1784/1092  3402/1761
        250 (1)           87/87    148/137    248/183    448/281
        1750 (10)         73/72    112/95     183/149    349/211

    With ``MIN_SLAB_ROWS`` = 32 no measured split is slower than the whole
    batch. The B=16 and B=32 columns split into slabs of 8 and 16 rows:
    those of 16 were faster in every row, those of 8 only at N=1750 (1).
    """
    signals = _checked_signals(spec, signals)
    targets = np.asarray(targets, dtype=np.float64)
    n_rows = signals.shape[0]
    if targets.shape != (n_rows, OUTPUT_DIM):
        raise ValueError(
            f"targets must be ({n_rows}, {OUTPUT_DIM}), got {targets.shape}")
    bad = np.flatnonzero(~np.isfinite(targets).all(axis=1))
    if bad.size:
        raise ValueError(f"targets holding NaN or inf at indices {bad.tolist()}")
    slabs = (max(1, min(available_cpus(), n_rows // MIN_SLAB_ROWS))
             if spec.kind == "rnn_regressor" else 1)
    edges = [n_rows * i // slabs for i in range(slabs + 1)]
    chunks = [(signals[lo:hi], targets[lo:hi]) for lo, hi in zip(edges, edges[1:])]
    done = dict(fan_out(partial(_slab, spec, params, targets.size), chunks, slabs))
    preds = np.concatenate([done[i][0] for i in range(slabs)])
    grads = done[0][1]
    for i in range(1, slabs):
        for name, grad in done[i][1].items():
            grads[name] += grad
    return mse_loss(preds, targets), grads, preds


def _slab(spec, params, n_entries, rows):
    """Predictions and gradients of one slab of a minibatch of ``n_entries``
    targets.

    The caller and the forked workers run this same function. It reaches
    ``forward_batch`` and ``backward`` through this module's globals, so a
    wrapper installed there sees the caller's slab.
    """
    signals, targets = rows
    preds, cache = forward_batch(spec, params, signals)
    # d(mse)/d(preds) of the whole batch, restricted to this slab's rows.
    d_preds = 2.0 * (preds - targets) / n_entries
    return preds, backward(spec, params, cache, d_preds)


def _backward_rnn(spec, params, cache, d_preds):
    u, n = params["cell.u"], spec.hidden_dim

    grads = {name: np.zeros_like(arr) for name, arr in params.items()}
    grads["head.w"] += cache["s"][:, :n].T @ d_preds
    grads["head.b"] += d_preds.sum(axis=0)
    ds = np.zeros_like(cache["s"])
    ds[:, :n] = d_preds @ params["head.w"].T

    dw, du, db = grads["cell.w"], grads["cell.u"], grads["cell.b"]
    xs, tape = cache["xs"], cache["tape"]
    for t in range(len(xs) - 1, -1, -1):
        s, *acts = (buf[t] for buf in tape)
        dxp, du_t, ds = step_grad(spec.cell_kind, u, s, acts, ds)
        dw += xs[t].T @ dxp
        du += du_t
        db += dxp.sum(axis=0)
    return grads


def _backward_ann(spec, params, cache, d_preds):
    acts, pre_relu = cache["acts"], cache["pre_relu"]
    grads = {name: np.zeros_like(arr) for name, arr in params.items()}
    grads["head.w"] += acts[-1].T @ d_preds
    grads["head.b"] += d_preds.sum(axis=0)
    da = d_preds @ params["head.w"].T
    for idx in range(len(spec.ann_hidden), 0, -1):
        dz = da * (pre_relu[idx - 1] > 0.0)
        grads[f"fc{idx}.w"] += acts[idx - 1].T @ dz
        grads[f"fc{idx}.b"] += dz.sum(axis=0)
        da = dz @ params[f"fc{idx}.w"].T
    return grads


def _backward_cnn(spec, params, cache, d_preds):
    xs, pre_relu = cache["xs"], cache["pre_relu"]
    grads = {name: np.zeros_like(arr) for name, arr in params.items()}
    grads["head.w"] += cache["pooled"].T @ d_preds
    grads["head.b"] += d_preds.sum(axis=0)

    n_layers = len(spec.cnn_channels)
    l_out = xs[-1].shape[2]
    dx = (d_preds @ params["head.w"].T)[:, :, None] / l_out
    dx = np.broadcast_to(dx, xs[-1].shape).copy()  # undo global average pool
    k, stride = spec.cnn_kernel, spec.cnn_stride
    for idx in range(n_layers, 0, -1):
        dz = dx * (pre_relu[idx - 1] > 0.0)
        w = params[f"conv{idx}.w"]
        win = _conv_windows(xs[idx - 1], k, stride)
        grads[f"conv{idx}.w"] += np.einsum("bclk,bol->ock", win, dz,
                                           optimize=True)
        grads[f"conv{idx}.b"] += dz.sum(axis=(0, 2))
        dx_prev = np.zeros_like(xs[idx - 1])
        n_win = dz.shape[2]
        for tap in range(k):
            # scatter each kernel tap back onto the input positions it read
            contrib = np.einsum("bol,oc->bcl", dz, w[:, :, tap], optimize=True)
            dx_prev[:, :, tap:tap + stride * n_win:stride] += contrib
        dx = dx_prev
    return grads
