"""Recurrent cell parameters and the one step function of every cell.

Gate weights are stored concatenated along the output axis:

* simple: ``w`` (in, h), ``u`` (h, h), ``b`` (h,)
* gru:    gate order [reset | update | candidate], ``w`` (in, 3h), ...
* lstm:   gate order [input | forget | output | cell], ``w`` (in, 4h), ...

A cell's state is one array of ``N_STATES[kind] * h`` columns: (B, h) for
the simple and GRU cells, (B, 2h) ``[h | c]`` for the LSTM. Its first h
columns are always the hidden output the head reads.

``step`` holds the only copy of each cell's arithmetic, ``step_grad`` its
derivative, and ``sigmoid`` the only logistic function. Both start from the
projected input ``x_t @ w + b``; no other module slices gates or state.

GRU convention: h = z * h_prev + (1 - z) * candidate, with the candidate
computed from the reset-masked previous state. With reset gates saturated
to 1 and update gates to 0 this reduces exactly to the simple tanh cell
sharing the candidate weights.
"""

from __future__ import annotations

import math

import numpy as np

N_GATES = {"simple": 1, "gru": 3, "lstm": 4}
N_STATES = {"simple": 1, "gru": 1, "lstm": 2}


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


def init_cell(cell_kind: str, w: np.ndarray, u: np.ndarray, b: np.ndarray,
              rng: np.random.Generator) -> None:
    """Fill a cell's zeroed ``w``, ``u`` and ``b`` of the layout above in
    place: a Glorot block per gate in ``w``, then an orthogonal block per
    gate in ``u``; the biases stay zero.

    The LSTM forget-gate bias starts at +1 so early training does not
    immediately flush the cell state.
    """
    n = u.shape[0]
    for gate in range(0, b.size, n):
        w[:, gate:gate + n] = _glorot(rng, (w.shape[0], n))
    for gate in range(0, b.size, n):
        u[:, gate:gate + n] = _orthogonal(rng, n)
    if cell_kind == "lstm":
        b[n:2 * n] = 1.0  # [input | forget | output | cell]


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function as 0.5 * (1 + tanh(x / 2)).

    tanh saturates where exp would overflow, so no input needs a sign
    split and the result stays in [0, 1].
    """
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def step(kind: str, u: np.ndarray, xp_t: np.ndarray, s: np.ndarray):
    """One step of a ``kind`` cell from its projected input xp_t = x_t @ w + b
    and its previous state ``s``.

    Returns ``(s_t, acts)``, where ``acts`` are what ``step_grad`` needs:
    (h_t,) for simple, (r, z, candidate) for GRU, (i, f, o, g, c_t) for
    LSTM, all arrays the step computes anyway.
    """
    n = u.shape[0]
    if kind == "simple":
        h_t = np.tanh(xp_t + s @ u)
        return h_t, (h_t,)
    if kind == "gru":
        gates = sigmoid(xp_t[..., :2 * n] + s @ u[:, :2 * n])
        r, z = gates[..., :n], gates[..., n:]
        cand = np.tanh(xp_t[..., 2 * n:] + (r * s) @ u[:, 2 * n:])
        return z * s + (1.0 - z) * cand, (r, z, cand)
    if kind == "lstm":
        pre = xp_t + s[..., :n] @ u
        gates = sigmoid(pre[..., :3 * n])
        i, f, o = gates[..., :n], gates[..., n:2 * n], gates[..., 2 * n:]
        g = np.tanh(pre[..., 3 * n:])
        s_t = np.empty_like(s)  # [h_t | c_t], each half written in place
        c_t = np.add(f * s[..., n:], i * g, out=s_t[..., n:])
        np.multiply(o, np.tanh(c_t), out=s_t[..., :n])
        return s_t, (i, f, o, g, c_t)
    raise ValueError(f"unknown cell kind {kind!r}")


def step_grad(kind: str, u: np.ndarray, s: np.ndarray, acts, ds: np.ndarray):
    """Derivative of a (B, ·) batch ``step`` from its previous state ``s``,
    its ``acts`` and the loss gradient ``ds`` at s_t. Returns the gradients
    ``(dxp, du, ds_prev)`` with respect to xp_t, u (this step's share) and
    ``s``."""
    n = u.shape[0]
    if kind == "simple":
        (h_t,) = acts
        dxp = ds * (1.0 - h_t ** 2)
        return dxp, s.T @ dxp, dxp @ u.T
    if kind == "gru":
        r, z, cand = acts
        dcand = ds * (1.0 - z) * (1.0 - cand ** 2)
        drs = dcand @ u[:, 2 * n:].T  # gradient with respect to r * s
        dxp = np.concatenate([drs * s * r * (1.0 - r),
                              ds * (s - cand) * z * (1.0 - z), dcand], axis=1)
        dgates = dxp[:, :2 * n]
        du = np.concatenate([s.T @ dgates, (r * s).T @ dcand], axis=1)
        return dxp, du, ds * z + drs * r + dgates @ u[:, :2 * n].T
    if kind == "lstm":
        h, c = s[:, :n], s[:, n:]
        dh, dc = ds[:, :n], ds[:, n:]
        i, f, o, g, c_t = acts
        tc = np.tanh(c_t)
        dc = dc + dh * o * (1.0 - tc ** 2)
        dxp = np.concatenate([dc * g * i * (1.0 - i), dc * c * f * (1.0 - f),
                              dh * tc * o * (1.0 - o), dc * i * (1.0 - g ** 2)],
                             axis=1)
        ds_prev = np.empty_like(ds)
        np.matmul(dxp, u.T, out=ds_prev[:, :n])
        np.multiply(dc, f, out=ds_prev[:, n:])
        return dxp, h.T @ dxp, ds_prev
    raise ValueError(f"unknown cell kind {kind!r}")
