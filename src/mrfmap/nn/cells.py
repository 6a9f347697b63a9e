"""Recurrent cell parameters and the one step function of every cell.

Gate weights are stored concatenated along the output axis (the same layout
the training loop uses), with named views for tests and inspection:

* simple: ``w`` (in, h), ``u`` (h, h), ``b`` (h,)
* gru:    gate order [reset | update | candidate], ``w`` (in, 3h), ...
* lstm:   gate order [input | forget | output | cell], ``w`` (in, 4h), ...

``step`` holds the only copy of each cell's arithmetic and ``sigmoid`` the
only logistic function. ``step`` starts from the projected input
``x_t @ w + b``, so an unroll can project every time step in one matmul,
and returns the gate activations for the caller to cache.

GRU convention: h = z * h_prev + (1 - z) * candidate, with the candidate
computed from the reset-masked previous state. With reset gates saturated
to 1 and update gates to 0 this reduces exactly to the simple tanh cell
sharing the candidate weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

N_GATES = {"simple": 1, "gru": 3, "lstm": 4}
GATE_NAMES = {
    "simple": ("",),
    "gru": ("r", "z", "h"),
    "lstm": ("i", "f", "o", "g"),
}


@dataclass
class RnnCellParams:
    cell_kind: str
    input_dim: int
    hidden_dim: int
    w: np.ndarray  # (input_dim, n_gates * hidden_dim)
    u: np.ndarray  # (hidden_dim, n_gates * hidden_dim)
    b: np.ndarray  # (n_gates * hidden_dim,)

    def __post_init__(self):
        if self.cell_kind not in N_GATES:
            raise ValueError(f"unknown cell kind {self.cell_kind!r}")
        g = N_GATES[self.cell_kind] * self.hidden_dim
        if self.w.shape != (self.input_dim, g):
            raise ValueError(f"w must be {(self.input_dim, g)}, got {self.w.shape}")
        if self.u.shape != (self.hidden_dim, g):
            raise ValueError(f"u must be {(self.hidden_dim, g)}, got {self.u.shape}")
        if self.b.shape != (g,):
            raise ValueError(f"b must be {(g,)}, got {self.b.shape}")

    def gate(self, name: str):
        """(w, u, b) views for one named gate block."""
        names = GATE_NAMES[self.cell_kind]
        if name not in names:
            raise KeyError(f"{self.cell_kind} cell has gates {names}, not {name!r}")
        h = self.hidden_dim
        k = names.index(name)
        sl = slice(k * h, (k + 1) * h)
        return self.w[:, sl], self.u[:, sl], self.b[sl]

    def n_params(self) -> int:
        return self.w.size + self.u.size + self.b.size


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def _orthogonal(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * np.sign(np.diag(r))


def init_cell(cell_kind: str, input_dim: int, hidden_dim: int,
              rng: np.random.Generator) -> RnnCellParams:
    """Glorot input weights, orthogonal recurrent blocks, zero biases.

    The LSTM forget-gate bias starts at +1 so early training does not
    immediately flush the cell state.
    """
    n_gates = N_GATES[cell_kind]
    w = np.concatenate(
        [_glorot(rng, input_dim, hidden_dim) for _ in range(n_gates)], axis=1)
    u = np.concatenate(
        [_orthogonal(rng, hidden_dim) for _ in range(n_gates)], axis=1)
    b = np.zeros(n_gates * hidden_dim)
    cell = RnnCellParams(cell_kind, input_dim, hidden_dim, w, u, b)
    if cell_kind == "lstm":
        cell.gate("f")[2][:] = 1.0
    return cell


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function as 0.5 * (1 + tanh(x / 2)).

    tanh saturates where exp would overflow, so no input needs a sign
    split and the result stays in [0, 1].
    """
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def step(kind: str, u: np.ndarray, xp_t: np.ndarray, h: np.ndarray,
         c: np.ndarray | None = None):
    """One step of a ``kind`` cell from its projected input xp_t = x_t @ w + b.

    ``h`` is the previous hidden state and ``c`` the previous LSTM cell
    state (None for the other kinds). Returns ``(h_t, c_t, acts)``, where
    ``c_t`` is None except for the LSTM and ``acts`` are the gate
    activations backprop needs: () for simple, (r, z, candidate) for GRU,
    (i, f, o, g) for LSTM.
    """
    n = h.shape[-1]
    if kind == "simple":
        return np.tanh(xp_t + h @ u), None, ()
    if kind == "gru":
        gates = sigmoid(xp_t[..., :2 * n] + h @ u[:, :2 * n])
        r, z = gates[..., :n], gates[..., n:]
        cand = np.tanh(xp_t[..., 2 * n:] + (r * h) @ u[:, 2 * n:])
        return z * h + (1.0 - z) * cand, None, (r, z, cand)
    if kind == "lstm":
        pre = xp_t + h @ u
        gates = sigmoid(pre[..., :3 * n])
        i, f, o = gates[..., :n], gates[..., n:2 * n], gates[..., 2 * n:]
        g = np.tanh(pre[..., 3 * n:])
        c_t = f * c + i * g
        return o * np.tanh(c_t), c_t, (i, f, o, g)
    raise ValueError(f"unknown cell kind {kind!r}")
