"""The recurrent cell, a GRU: its parameters and its one step function.

Gate weights are stored concatenated along the output axis, in gate order
[reset | update | candidate]: ``w`` (in, 3h), ``u`` (h, 3h), ``b`` (3h,).
The cell's state is its (B, h) hidden output, which the head reads.

``step`` holds the only copy of the cell's arithmetic, ``step_grad`` its
derivative, and ``sigmoid`` the only logistic function. Both start from the
projected input ``x_t @ w + b``; no other module slices gates.

Convention: h = z * h_prev + (1 - z) * candidate, with the candidate
computed from the reset-masked previous state. With reset gates saturated
to 1 and update gates to 0 this reduces exactly to the plain tanh cell
h = tanh(x @ w_h + h_prev @ u_h + b_h) on the candidate weights.
"""

from __future__ import annotations

import math

import numpy as np

N_GATES = 3


def _glorot(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Glorot-uniform draw of ``shape``, a dense (fan_in, fan_out) matrix or a
    (c_out, c_in, kernel) filter bank: fan_in + fan_out is the first axis
    plus the product of the others in both."""
    limit = np.sqrt(6.0 / (shape[0] + math.prod(shape[1:])))
    return rng.uniform(-limit, limit, size=shape)


def _orthogonal(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * np.sign(np.diag(r))


def init_cell(w: np.ndarray, u: np.ndarray, b: np.ndarray,
              rng: np.random.Generator) -> None:
    """Fill the cell's zeroed ``w``, ``u`` and ``b`` of the layout above in
    place: a Glorot block per gate in ``w``, then an orthogonal block per
    gate in ``u``; the biases stay zero."""
    n = u.shape[0]
    for gate in range(0, b.size, n):
        w[:, gate:gate + n] = _glorot(rng, (w.shape[0], n))
    for gate in range(0, b.size, n):
        u[:, gate:gate + n] = _orthogonal(rng, n)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function as 0.5 * (1 + tanh(x / 2)).

    tanh saturates where exp would overflow, so no input needs a sign
    split and the result stays in [0, 1].
    """
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def step(u: np.ndarray, xp_t: np.ndarray, s: np.ndarray):
    """One step of the cell from its projected input xp_t = x_t @ w + b and
    its previous state ``s``.

    Returns ``(s_t, acts)``, where ``acts`` = (r, z, candidate) are what
    ``step_grad`` needs, all arrays the step computes anyway.
    """
    n = u.shape[0]
    gates = sigmoid(xp_t[..., :2 * n] + s @ u[:, :2 * n])
    r, z = gates[..., :n], gates[..., n:]
    cand = np.tanh(xp_t[..., 2 * n:] + (r * s) @ u[:, 2 * n:])
    return z * s + (1.0 - z) * cand, (r, z, cand)


def step_grad(u: np.ndarray, s: np.ndarray, acts, ds: np.ndarray):
    """Derivative of a (B, ·) batch ``step`` from its previous state ``s``,
    its ``acts`` and the loss gradient ``ds`` at s_t. Returns the gradients
    ``(dxp, du, ds_prev)`` with respect to xp_t, u (this step's share) and
    ``s``."""
    n = u.shape[0]
    r, z, cand = acts
    dcand = ds * (1.0 - z) * (1.0 - cand ** 2)
    drs = dcand @ u[:, 2 * n:].T  # gradient with respect to r * s
    dxp = np.concatenate([drs * s * r * (1.0 - r),
                          ds * (s - cand) * z * (1.0 - z), dcand], axis=1)
    dgates = dxp[:, :2 * n]
    du = np.concatenate([s.T @ dgates, (r * s).T @ dcand], axis=1)
    return dxp, du, ds * z + drs * r + dgates @ u[:, :2 * n].T
