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


def make_cell(input_dim, hidden_dim, seed=0):
    """``(w, u, b)`` as ``init_params`` fills them for a one-step regressor."""
    spec = ModelSpec("rnn_regressor", input_len=input_dim, hidden_dim=hidden_dim,
                     chunk_size=input_dim)
    params = init_params(spec, seed)
    return params["cell.w"], params["cell.u"], params["cell.b"]


def cell_step(cell, x, h_prev):
    """The state ``step`` of ``cell`` makes from the raw input and ``h_prev``."""
    w, u, b = cell
    s_t, _ = step(u, x @ w + b, h_prev)
    return s_t


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


class TestGruStep:
    def test_reduces_to_simple_rnn(self):
        # Saturated reset (1) and update (0) gates: the GRU must equal the
        # plain tanh cell sharing the candidate weights.
        rng = np.random.default_rng(17)
        gru = make_cell(3, 5, seed=8)
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
                cell_step(gru, x, h_prev),
                simple_step_reference(simple, x, h_prev), rtol=0, atol=1e-6)

    def test_full_memory_when_update_saturated(self):
        gru = make_cell(2, 4, seed=2)
        (_, w_z, _), (_, u_z, _), (_, b_z, _) = (blocks(a, 3) for a in gru)
        w_z[:] = 0.0
        u_z[:] = 0.0
        b_z[:] = BIG    # z -> 1
        h_prev = np.array([0.2, -0.5, 0.9, 0.0])
        out = cell_step(gru, np.ones(2), h_prev)
        np.testing.assert_allclose(out, h_prev, atol=1e-6)

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(31)
        for seed in range(5):
            cell = make_cell(3, 5, seed)
            x = rng.normal(size=3)
            h_prev = rng.normal(size=5) * 0.5
            got = cell_step(cell, x, h_prev)
            np.testing.assert_allclose(got, gru_step_reference(cell, x, h_prev),
                                       rtol=0, atol=1e-12)


class TestCellParams:
    def test_param_counts(self):
        # three gates of h(i+h)+h each
        w, u, b = make_cell(1, 100)
        assert w.shape == (1, 300)
        assert u.shape == (100, 300)
        assert b.shape == (300,)
        assert w.size + u.size + b.size == 3 * (100 * 101 + 100)

    def test_bad_kind_rejected(self):
        # A spec has no cell field; only a header may still name one.
        with pytest.raises(ValueError, match="elman"):
            ModelSpec.from_json_dict({"kind": "rnn_regressor", "input_len": 1,
                                      "cell_kind": "elman", "hidden_dim": 2})
