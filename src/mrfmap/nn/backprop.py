"""Hand-derived backward passes (backpropagation through time included).

``backward`` consumes the cache produced by ``forward_batch`` and the
gradient of the loss w.r.t. the predictions, and returns gradients for every
parameter in declaration order. Backpropagation through time is one loop
for every cell kind over the forward tape, through ``cells.step_grad``, the
derivative of ``cells.step``. ``loss_and_grads`` wires forward, MSE and
backward together for the training loop.

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

import numpy as np

from .cells import step_grad
from .models import ModelSpec, _conv_windows, forward_batch, mse_loss


def mse_grad(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    """d(mse)/d(pred): 2 * (pred - target) / pred.size."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    return 2.0 * (pred - target) / pred.size


def backward(spec: ModelSpec, params: dict[str, np.ndarray], cache: dict,
             d_preds: np.ndarray) -> dict[str, np.ndarray]:
    if not cache:
        raise ValueError("forward activations unavailable; run forward_batch first")
    if spec.kind == "rnn_regressor":
        return _backward_rnn(spec, params, cache, d_preds)
    if spec.kind == "ann":
        return _backward_ann(spec, params, cache, d_preds)
    if spec.kind == "cnn1d":
        return _backward_cnn(spec, params, cache, d_preds)
    raise ValueError(spec.kind)


def loss_and_grads(spec: ModelSpec, params: dict[str, np.ndarray],
                   signals: np.ndarray, targets: np.ndarray):
    preds, cache = forward_batch(spec, params, signals)
    loss = mse_loss(preds, targets)
    grads = backward(spec, params, cache, mse_grad(preds, targets))
    return loss, grads, preds


def _backward_rnn(spec, params, cache, d_preds):
    u = params["cell.u"]

    grads = {name: np.zeros_like(arr) for name, arr in params.items()}
    grads["head.w"] += cache["h"].T @ d_preds
    grads["head.b"] += d_preds.sum(axis=0)
    dh = d_preds @ params["head.w"].T
    dc = np.zeros_like(dh)  # read by the LSTM only

    dw, du, db = grads["cell.w"], grads["cell.u"], grads["cell.b"]
    for x_t, (h, c, acts) in zip(cache["xs"][::-1], reversed(cache["tape"])):
        dxp, du_t, dh, dc = step_grad(spec.cell_kind, u, h, c, acts, dh, dc)
        dw += x_t.T @ dxp
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
