"""Data-parallel BPTT: a recurrent minibatch split into slabs over processes.

The reference is one forward and one backward over the whole batch,
composed here from ``forward_batch``, ``mse_loss``, the MSE derivative
``2 * (preds - targets) / preds.size`` and ``backward``: with one slab
``loss_and_grads`` must equal it bit for bit, and a split only by the
rounding of the gradient sums.
"""

import multiprocessing

import numpy as np
import pytest

from conftest import time_limit
from mrfmap.nn import backprop
from mrfmap.nn.backprop import MIN_SLAB_ROWS, backward, loss_and_grads
from mrfmap.nn.models import ModelSpec, forward_batch, init_params, mse_loss

SPECS = {
    "simple": ModelSpec("rnn_regressor", input_len=12, cell_kind="simple",
                        hidden_dim=4),
    "gru": ModelSpec("rnn_regressor", input_len=12, cell_kind="gru",
                     hidden_dim=4, chunk_size=3),
    "lstm": ModelSpec("rnn_regressor", input_len=12, cell_kind="lstm",
                      hidden_dim=4, chunk_size=2),
    "ann": ModelSpec("ann", input_len=12, ann_hidden=(6,)),
    "cnn1d": ModelSpec("cnn1d", input_len=12, cnn_channels=(3,), cnn_kernel=3),
}
# Three slabs at three CPUs, one row short of a fourth.
SPLIT_ROWS = 4 * MIN_SLAB_ROWS - 1


def case(kind, rows, seed=0):
    spec = SPECS[kind]
    rng = np.random.default_rng(seed)
    return (spec, init_params(spec, seed=seed),
            rng.normal(size=(rows, spec.input_len)), rng.normal(size=(rows, 2)))


def whole_batch(spec, params, signals, targets):
    """Loss, gradients and predictions of one pass over the whole batch."""
    preds, cache = forward_batch(spec, params, signals)
    grads = backward(spec, params, cache, 2.0 * (preds - targets) / preds.size)
    return mse_loss(preds, targets), grads, preds


def assert_same_bits(got, expected):
    loss, grads, preds = got
    assert np.float64(loss).tobytes() == np.float64(expected[0]).tobytes()
    assert list(grads) == list(expected[1])
    for name, grad in expected[1].items():
        assert grads[name].tobytes() == grad.tobytes(), name
    assert preds.tobytes() == expected[2].tobytes()


# One CPU, or fewer than MIN_SLAB_ROWS rows per extra slab, for every
# model; and a batch the recurrent regressor splits for the two that never do.
@pytest.mark.parametrize("kind, cpus, rows", [
    (kind, cpus, rows) for kind in SPECS for cpus, rows in [
        (1, SPLIT_ROWS), (3, 5), (3, MIN_SLAB_ROWS), (2, 2 * MIN_SLAB_ROWS - 1)]
] + [("ann", 3, SPLIT_ROWS), ("cnn1d", 3, SPLIT_ROWS)])
def test_one_slab_is_bitwise_one_pass(monkeypatch, pools, kind, cpus, rows):
    monkeypatch.setattr(backprop, "available_cpus", lambda: cpus)
    spec, params, signals, targets = case(kind, rows)
    assert_same_bits(loss_and_grads(spec, params, signals, targets),
                     whole_batch(spec, params, signals, targets))
    assert pools == []


@pytest.mark.parametrize("kind", ["simple", "gru", "lstm"])
@pytest.mark.parametrize("cpus", [2, 3])
def test_split_matches_one_pass(monkeypatch, pools, kind, cpus):
    spec, params, signals, targets = case(kind, SPLIT_ROWS, seed=cpus)
    loss1, grads1, preds1 = whole_batch(spec, params, signals, targets)
    monkeypatch.setattr(backprop, "available_cpus", lambda: cpus)
    with time_limit(60):
        loss, grads, preds = loss_and_grads(spec, params, signals, targets)
        again = loss_and_grads(spec, params, signals, targets)
    assert pools == [cpus - 1, cpus - 1]
    assert abs(loss - loss1) <= 1e-12 * abs(loss1)
    np.testing.assert_allclose(preds, preds1, rtol=0, atol=1e-12)
    assert list(grads) == list(grads1)
    for name, grad in grads1.items():
        scale = np.abs(grad).max()
        assert np.abs(grads[name] - grad).max() <= 1e-12 * scale, name
    # A split is deterministic: the same slabs, summed in the same order.
    assert_same_bits(again, (loss, grads, preds))
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus", [2, 3])
def test_nonfinite_rows_named_by_whole_batch_index(monkeypatch, pools, cpus):
    monkeypatch.setattr(backprop, "available_cpus", lambda: cpus)
    spec, params, signals, targets = case("gru", SPLIT_ROWS)
    last = SPLIT_ROWS - 1
    signals[[1, last], 0] = (np.nan, np.inf)
    with pytest.raises(ValueError,
                       match=rf"signals holding NaN or inf at indices \[1, {last}\]"):
        loss_and_grads(spec, params, signals, targets)
    signals[[1, last], 0] = 0.0
    targets[[2, last], 1] = (-np.inf, np.nan)
    with pytest.raises(ValueError,
                       match=rf"targets holding NaN or inf at indices \[2, {last}\]"):
        loss_and_grads(spec, params, signals, targets)
    assert pools == []


@pytest.mark.parametrize("kind", ["gru", "ann"])
@pytest.mark.parametrize("shape", [(5, 1), (4, 2), (5, 2, 1), (5,)])
def test_target_shape_checked(kind, shape):
    spec, params, signals, _ = case(kind, 5)
    with pytest.raises(ValueError, match=r"targets must be \(5, 2\)"):
        loss_and_grads(spec, params, signals, np.zeros(shape))


# Row 0 lies in the caller's slab, the last row in a worker's.
@pytest.mark.parametrize("bad_row", [0, SPLIT_ROWS - 1])
@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_slab_error_reaches_caller(monkeypatch, cpus, bad_row):
    spec, params, signals, targets = case("lstm", SPLIT_ROWS)
    signals[bad_row, 0] = 1234.5
    real = backprop.forward_batch

    def failing(spec, params, signals, *args):
        if np.any(signals[:, 0] == 1234.5):
            raise RuntimeError("slab holding the marked row")
        return real(spec, params, signals, *args)

    monkeypatch.setattr(backprop, "available_cpus", lambda: cpus)
    monkeypatch.setattr(backprop, "forward_batch", failing)
    with time_limit(60), pytest.raises(RuntimeError, match="marked row"):
        loss_and_grads(spec, params, signals, targets)
    assert multiprocessing.active_children() == []
