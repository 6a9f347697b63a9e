"""The training step: the MSE loss, its gradient for every parameter, and
the split of a recurrent minibatch over processes.

``loss_and_grads`` checks the batch and runs ``models.forward_batch`` and
``models.backward`` on each slab (``_slab``), with the whole batch's MSE
derivative ``2 * (preds - targets) / targets.size``; it reads no cache.

Data-parallel BPTT. Every row's forward and backward pass is independent
until the gradients are summed, so ``loss_and_grads`` splits a recurrent
regressor's minibatch of B rows into P = ``max(1, min(available_cpus(),
B // MIN_SLAB_ROWS))`` contiguous slabs of near-equal size. The caller
runs the first slab and P - 1 forked workers the others (``fan_out``,
which starts no pool at P = 1); each runs forward and backward over its
rows with the whole batch's MSE gradient, and the caller sums the slab
gradients in slab order. Neither an ANN nor a CNN minibatch splits. An
ANN's ~616k parameters are pickled to the worker and its gradients back,
so at B=64, N=1750 two slabs took 63-71 ms against 8-10 ms whole (default
specs, medians of 7 calls in each of 3 runs, one BLAS thread, 2-core Xeon).
The default CNN took 118-203 ms in two slabs against 161-180 ms whole.

With one slab the loss, the gradients and the predictions are bit for bit
those of one forward and one backward over the whole batch. A split
changes the order in which per-row contributions are summed into each
gradient, which moves it by rounding only (within 1e-12 of its largest
entry in the tests); the predictions, and so the loss, are unchanged
wherever BLAS rounds a row alike in a smaller batch.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..files import real_rows
from ..parallel import available_cpus, fan_out
from .models import OUTPUT_DIM, ModelSpec, backward, forward_batch


def mse_loss(pred: np.ndarray, target: np.ndarray) -> float:
    """Mean squared error over every entry of a (B, 2) prediction batch; a
    NaN or inf row of either batch is refused by index."""
    pred, target = real_rows("predictions", pred), real_rows("targets", target)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    if not len(pred):
        raise ValueError(f"expected a nonempty (B, k) batch, got {pred.shape}")
    diff = pred - target
    return float(np.mean(diff * diff))


# Fewest rows in a slab of a split recurrent minibatch; see the table in
# ``loss_and_grads``'s docstring.
MIN_SLAB_ROWS = 32


def loss_and_grads(spec: ModelSpec, params: dict[str, np.ndarray],
                   signals: np.ndarray, targets: np.ndarray):
    """MSE loss, its gradient for every parameter, and the (B, 2) predictions.

    NaN or inf signal rows, complex targets, targets of a shape other than
    (B, 2) and NaN or inf target or prediction rows are rejected, naming
    whole-batch row indices. A recurrent regressor's rows are split over
    processes as the module docstring describes.

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
    signals = real_rows("signals", signals, spec.input_len)
    n_rows = signals.shape[0]
    if np.shape(targets) != (n_rows, OUTPUT_DIM):
        raise ValueError(
            f"targets must be ({n_rows}, {OUTPUT_DIM}), got {np.shape(targets)}")
    targets = real_rows("targets", targets, OUTPUT_DIM)
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

