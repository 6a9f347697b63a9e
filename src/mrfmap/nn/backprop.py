"""The training step: the MSE loss, its gradient for every parameter, and
the split of a minibatch over processes.

``loss_and_grads`` checks the batch and runs ``models.forward_batch`` and
``models.backward`` on each chunk of it (``_chunk``), with the whole batch's
MSE derivative ``2 * (preds - targets) / targets.size``; it reads no cache.

Data-parallel training. Every row's forward and backward pass is
independent until the gradients are summed, so ``loss_and_grads`` splits a
minibatch of B rows of any kind into ``parallel.processes_for(B *
spec.n_steps // MIN_SLAB_STEPS)`` contiguous slabs of near-equal size: one
per MIN_SLAB_STEPS row-steps of work, up to the CPUs, and at least one.
``ModelSpec.n_steps`` is the recurrent unroll's length, and 1 for the ANN
and the CNN. Each slab is cut into chunks, the blocks of
``models.row_blocks``: one chunk per slab for the GRU and the ANN, and
chunks of ``_cnn_block_rows`` rows from the slab's start for the CNN, so
that its training copy of every window stays within one block's (traced
peak of the default CNN at N=1750 in one process, one BLAS thread:
31.4 MiB at B=64 and 31.8 MiB at B=256, where one chunk of the whole batch
held 61.5 and 244.8 MiB). ``fan_out`` runs the chunks on as many processes
as they fill, up to the CPUs: the slabs of the GRU and the ANN, and the
blocks of the CNN. Each chunk runs forward and backward over its rows with
the whole batch's MSE gradient, and ``fan_out`` hands the results back in
chunk order, in which the caller sums them.

The slab rule counts work, not rows, because each unrolled step has a
fixed cost whatever its rows, which every slab pays again, and a split also
pickles the parameters to each worker and their gradients back and starts
a pool. Milliseconds of ``loss_and_grads`` whole against forced into two
slabs, alternating calls (one BLAS thread, 2-core Xeon): the median over 8
to 24 runs of each run's median of 9 to 25 calls per side, and the runs in
which the split was faster:

    network, N (chunk), h, B      row-steps  2 slabs  1 slab  split faster  rule
    GRU, 100 (10), 64, 64               640     13.0     5.2        0 of 9  whole
    GRU, 250 (10), 100, 64            1,600     26.8    21.7        0 of 9  whole
    GRU, 1750 (25), 100, 64           4,480     54.4    63.5      15 of 24  split
    GRU, 1750 (10), 100, 32           5,600     72.8    75.2      14 of 24  split
    GRU, 250 (1), 100, 32             8,000     91.7   107.4      18 of 20  split
    GRU, 1750 (1), 100, 64          112,000    733.0  1166.7        9 of 9  split
    ANN (300, 300), 1750, 64             64     65.0     7.8        0 of 8  whole

The GRU rows cross over between 1,600 and 4,480 row-steps, so
``MIN_SLAB_STEPS`` is 2,000 and two slabs start at 4,000. From 4,480 to
8,000 the split saves under a fifth, and which side is faster moves with
the host's load. An ANN's ~616k parameters cost more to pickle than its
slab saves. A CNN batch is one slab too, but its blocks are chunks, so the
default CNN at N=1750 fills two processes from B=33. Milliseconds of its
``loss_and_grads`` with every block in the caller against its blocks on
two processes, alternating runs (one BLAS thread, 2-core Xeon): the median
over 8 runs of each run's median of 9 (B=64) or 5 (B=256) calls per side,
and the runs in which two processes were faster:

    CNN (16, ..., 128), 1750, B   blocks  2 processes  1 process  2 faster
    64                                 2        124.0      194.4    8 of 8
    256                                8        415.8      659.2    8 of 8

With one chunk the loss, the gradients and the predictions are bit for bit
those of one forward and one backward over the whole batch. More chunks
change the order in which per-row contributions are summed into each
gradient, which moves it by rounding only (within 1e-12 of its largest
entry in the tests); the predictions, and so the loss, are unchanged
wherever BLAS rounds a row alike in a smaller batch, as the models
docstring says it does for CNN blocks of a multiple of 16 rows.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .. import parallel
from ..files import fits, real_rows
from .models import OUTPUT_DIM, ModelSpec, backward, forward_batch, param_layout, row_blocks


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


# Fewest rows x unrolled steps of work in each slab of a split minibatch;
# see the table in the module docstring.
MIN_SLAB_STEPS = 2000


def loss_and_grads(spec: ModelSpec, params: dict[str, np.ndarray],
                   signals: np.ndarray, targets: np.ndarray):
    """MSE loss, its gradient for every parameter, and the (B, 2) predictions.

    Parameters whose names or shapes differ from ``param_layout(spec)``
    are rejected, naming them, before any chunk runs. So are NaN or inf
    signal rows, complex targets, targets of a shape other than (B, 2) and
    NaN or inf target or prediction rows, naming whole-batch row indices.
    The rows are split into slabs by the rule and the table of the module
    docstring, and each slab into chunks by ``models.row_blocks``; the
    chunks fill the processes.
    """
    fits("parameters", params, param_layout(spec))
    signals = real_rows("signals", signals, spec.input_len)
    n_rows = signals.shape[0]
    if np.shape(targets) != (n_rows, OUTPUT_DIM):
        raise ValueError(
            f"targets must be ({n_rows}, {OUTPUT_DIM}), got {np.shape(targets)}")
    targets = real_rows("targets", targets, OUTPUT_DIM)
    slabs = parallel.processes_for(n_rows * spec.n_steps // MIN_SLAB_STEPS)
    edges = [n_rows * i // slabs for i in range(slabs + 1)]
    chunks = [(signals[a:b], targets[a:b]) for lo, hi in zip(edges, edges[1:])
              for a, b in row_blocks(spec, lo, hi)]
    preds, grads = [], None
    for chunk_preds, chunk_grads in parallel.fan_out(
            partial(_chunk, spec, params, targets.size), chunks):
        preds.append(chunk_preds)
        if grads is None:
            grads = chunk_grads
        else:
            for name, grad in chunk_grads.items():
                grads[name] += grad
    preds = np.concatenate(preds)
    return mse_loss(preds, targets), grads, preds


def _chunk(spec, params, n_entries, rows):
    """Predictions and gradients of one chunk of a minibatch of ``n_entries``
    targets.

    The caller and the forked workers run this same function. It reaches
    ``forward_batch`` and ``backward`` through this module's globals, so a
    wrapper installed there sees the caller's chunks.
    """
    signals, targets = rows
    preds, cache = forward_batch(spec, params, signals)
    # d(mse)/d(preds) of the whole batch, restricted to this chunk's rows.
    d_preds = 2.0 * (preds - targets) / n_entries
    return preds, backward(spec, params, cache, d_preds)

