import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mrfmap.nn.cells import sigmoid, step
from mrfmap.nn.models import ModelSpec, init_params

BIG = 30.0  # saturates a sigmoid to within ~1e-13 of 0/1


def scalar_sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


def blocks(arr, n):
    """``arr`` split into n equal column blocks (views), in storage order."""
    return np.split(arr, n, axis=-1)


def simple_step_reference(cell, x, h_prev):
    """Independent scalar-loop evaluation of the tanh step."""
    w, u, b = cell
    h = u.shape[0]
    out = np.zeros(h)
    for j in range(h):
        acc = b[j]
        for i in range(w.shape[0]):
            acc += x[i] * w[i, j]
        for i in range(h):
            acc += h_prev[i] * u[i, j]
        out[j] = math.tanh(acc)
    return out


def gru_step_reference(cell, x, h_prev):
    """Scalar-loop GRU step; the blocks are [reset | update | candidate]."""
    (w_r, w_z, w_h), (u_r, u_z, u_h), (b_r, b_z, b_h) = (blocks(a, 3) for a in cell)
    n_in, h = w_r.shape
    out = np.zeros(h)
    r = np.zeros(h)
    z = np.zeros(h)
    for j in range(h):
        acc_r, acc_z = b_r[j], b_z[j]
        for i in range(n_in):
            acc_r += x[i] * w_r[i, j]
            acc_z += x[i] * w_z[i, j]
        for i in range(h):
            acc_r += h_prev[i] * u_r[i, j]
            acc_z += h_prev[i] * u_z[i, j]
        r[j] = scalar_sigmoid(acc_r)
        z[j] = scalar_sigmoid(acc_z)
    for j in range(h):
        acc = b_h[j]
        for i in range(n_in):
            acc += x[i] * w_h[i, j]
        for i in range(h):
            acc += r[i] * h_prev[i] * u_h[i, j]
        out[j] = z[j] * h_prev[j] + (1.0 - z[j]) * math.tanh(acc)
    return out


def lstm_step_reference(cell, x, h_prev, c_prev):
    """Scalar-loop LSTM step; the blocks are [input | forget | output | cell]."""
    h = cell[1].shape[0]
    gates = {}
    for name, w, u, b in zip("ifog", *(blocks(a, 4) for a in cell)):
        vals = np.zeros(h)
        for j in range(h):
            acc = b[j]
            for i in range(w.shape[0]):
                acc += x[i] * w[i, j]
            for i in range(h):
                acc += h_prev[i] * u[i, j]
            vals[j] = math.tanh(acc) if name == "g" else scalar_sigmoid(acc)
        gates[name] = vals
    c = gates["f"] * c_prev + gates["i"] * gates["g"]
    return gates["o"] * np.tanh(c), c


def make_cell(kind, input_dim, hidden_dim, seed=0):
    """``(w, u, b)`` as ``init_params`` fills them for a one-step regressor."""
    spec = ModelSpec("rnn_regressor", input_len=input_dim, cell_kind=kind,
                     hidden_dim=hidden_dim, chunk_size=input_dim)
    params = init_params(spec, seed)
    return params["cell.w"], params["cell.u"], params["cell.b"]


def cell_step(kind, cell, x, h_prev, c_prev=None):
    """``step`` of ``cell`` from the raw input and the state ``[h_prev | c_prev]``
    (``c_prev`` for the LSTM only): (h_t, c_t), c_t empty but for the LSTM."""
    w, u, b = cell
    s = np.concatenate([h_prev] if c_prev is None else [h_prev, c_prev], axis=-1)
    s_t, _ = step(kind, u, x @ w + b, s)
    n = h_prev.shape[-1]
    return s_t[..., :n], s_t[..., n:]


class TestSigmoid:
    def test_matches_scalar_reference(self):
        xs = np.linspace(-40.0, 40.0, 80_001)
        ref = np.array([scalar_sigmoid(x) for x in xs])
        assert np.max(np.abs(sigmoid(xs) - ref)) <= 2.3e-16

    def test_extremes_saturate_without_floating_point_errors(self):
        x = np.array([1e3, -1e3, 1e308, -1e308])
        with np.errstate(all="raise"):
            out = sigmoid(x)
        np.testing.assert_array_equal(out, [1.0, 0.0, 1.0, 0.0])

    @given(hnp.arrays(np.float64, st.integers(1, 50),
                      elements=st.floats(allow_nan=False)))
    def test_stays_in_unit_interval(self, x):
        out = sigmoid(x)
        assert np.all((out >= 0.0) & (out <= 1.0))


class TestSimpleRnnStep:
    def test_zero_params_give_zero(self):
        cell = make_cell("simple", 3, 4)
        for arr in cell:
            arr[:] = 0.0
        out, _ = cell_step("simple", cell, np.ones(3), np.ones(4))
        np.testing.assert_array_equal(out, np.zeros(4))

    def test_identity_recurrence(self):
        w, u, b = cell = make_cell("simple", 2, 4)
        w[:] = 0.0
        u[:] = np.eye(4)
        b[:] = 0.0
        h_prev = np.array([0.1, -0.2, 0.05, 0.0])
        out, _ = cell_step("simple", cell, np.zeros(2), h_prev)
        np.testing.assert_allclose(out, np.tanh(h_prev), rtol=0, atol=1e-15)

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(5)
        for seed in range(5):
            cell = make_cell("simple", 3, 6, seed)
            x = rng.normal(size=3)
            h_prev = rng.normal(size=6) * 0.5
            got, _ = cell_step("simple", cell, x, h_prev)
            np.testing.assert_allclose(got, simple_step_reference(cell, x, h_prev),
                                       rtol=0, atol=1e-12)

    def test_batched_matches_loop(self):
        cell = make_cell("simple", 2, 3, seed=1)
        rng = np.random.default_rng(0)
        xs = rng.normal(size=(4, 2))
        hs = rng.normal(size=(4, 3)) * 0.3
        batched, _ = cell_step("simple", cell, xs, hs)
        for b in range(4):
            np.testing.assert_allclose(
                batched[b], cell_step("simple", cell, xs[b], hs[b])[0], atol=1e-15)


class TestLstmStep:
    def test_closed_gates_clear_cell(self):
        w, u, b = cell = make_cell("lstm", 2, 4, seed=3)
        b_i, b_f, _, _ = blocks(b, 4)
        b_f[:] = -BIG
        b_i[:] = -BIG
        w[:] = 0.0
        u[:] = 0.0
        h, c = cell_step("lstm", cell, np.zeros(2), np.zeros(4), np.ones(4) * 0.7)
        assert np.all(np.abs(c) < 1e-12)

    def test_open_forget_gate_preserves_cell(self):
        w, u, b = cell = make_cell("lstm", 2, 4, seed=4)
        w[:] = 0.0
        u[:] = 0.0
        b_i, b_f, b_o, _ = blocks(b, 4)
        b_f[:] = BIG
        b_i[:] = -BIG
        b_o[:] = BIG
        c_prev = np.array([0.3, -0.4, 0.1, 0.6])
        h, c = cell_step("lstm", cell, np.zeros(2), np.zeros(4), c_prev)
        np.testing.assert_allclose(c, c_prev, atol=1e-6)
        np.testing.assert_allclose(h, np.tanh(c_prev), atol=1e-6)

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(9)
        for seed in range(5):
            cell = make_cell("lstm", 3, 5, seed)
            x = rng.normal(size=3)
            h_prev = rng.normal(size=5) * 0.5
            c_prev = rng.normal(size=5) * 0.5
            h, c = cell_step("lstm", cell, x, h_prev, c_prev)
            h_ref, c_ref = lstm_step_reference(cell, x, h_prev, c_prev)
            np.testing.assert_allclose(h, h_ref, rtol=0, atol=1e-12)
            np.testing.assert_allclose(c, c_ref, rtol=0, atol=1e-12)


class TestGruStep:
    def test_reduces_to_simple_rnn(self):
        # Saturated reset (1) and update (0) gates: the GRU must equal the
        # plain tanh cell sharing the candidate weights.
        rng = np.random.default_rng(17)
        gru = make_cell("gru", 3, 5, seed=8)
        (w_r, w_z, w_h), (u_r, u_z, u_h), (b_r, b_z, b_h) = (blocks(a, 3) for a in gru)
        for arr in (w_r, u_r, w_z, u_z):
            arr[:] = 0.0
        b_r[:] = BIG    # r -> 1
        b_z[:] = -BIG   # z -> 0
        simple = (w_h.copy(), u_h.copy(), b_h.copy())
        for _ in range(10):
            x = rng.normal(size=3)
            h_prev = rng.normal(size=5) * 0.8
            np.testing.assert_allclose(
                cell_step("gru", gru, x, h_prev)[0],
                cell_step("simple", simple, x, h_prev)[0], rtol=0, atol=1e-6)

    def test_full_memory_when_update_saturated(self):
        gru = make_cell("gru", 2, 4, seed=2)
        (_, w_z, _), (_, u_z, _), (_, b_z, _) = (blocks(a, 3) for a in gru)
        w_z[:] = 0.0
        u_z[:] = 0.0
        b_z[:] = BIG    # z -> 1
        h_prev = np.array([0.2, -0.5, 0.9, 0.0])
        out, _ = cell_step("gru", gru, np.ones(2), h_prev)
        np.testing.assert_allclose(out, h_prev, atol=1e-6)

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(31)
        for seed in range(5):
            cell = make_cell("gru", 3, 5, seed)
            x = rng.normal(size=3)
            h_prev = rng.normal(size=5) * 0.5
            got, _ = cell_step("gru", cell, x, h_prev)
            np.testing.assert_allclose(got, gru_step_reference(cell, x, h_prev),
                                       rtol=0, atol=1e-12)


class TestCellParams:
    def test_param_counts(self):
        # simple: h(i+h)+h, gru: 3x, lstm: 4x
        for kind, factor in (("simple", 1), ("gru", 3), ("lstm", 4)):
            w, u, b = make_cell(kind, 1, 100)
            assert w.shape == (1, factor * 100)
            assert u.shape == (100, factor * 100)
            assert b.shape == (factor * 100,)
            assert w.size + u.size + b.size == factor * (100 * 101 + 100)

    def test_lstm_forget_bias_one(self):
        _, _, b = make_cell("lstm", 1, 8)
        b_i, b_f, b_o, b_g = blocks(b, 4)
        np.testing.assert_array_equal(b_f, np.ones(8))
        np.testing.assert_array_equal(np.concatenate([b_i, b_o, b_g]), np.zeros(24))

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="elman"):
            make_cell("elman", 1, 2)
