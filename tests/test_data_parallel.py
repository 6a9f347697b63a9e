"""Data-parallel training: a minibatch split into slabs over processes by
its rows x unrolled steps, for every kind of network.

The reference is one forward and one backward over the whole batch,
composed here from ``forward_batch``, ``mse_loss``, the MSE derivative
``2 * (preds - targets) / preds.size`` and ``backward``: with one slab
``loss_and_grads`` must equal it bit for bit, and a split only by the
rounding of the gradient sums.
"""

import multiprocessing
import tracemalloc

import numpy as np
import pytest

from conftest import time_limit
from mrfmap import parallel
from mrfmap.nn import backprop
from mrfmap.nn.backprop import MIN_SLAB_STEPS, loss_and_grads, mse_loss
from mrfmap.nn.models import (ModelSpec, backward, forward_batch, init_params,
                              param_layout)

# The recurrent spec unrolls 60 steps; a feed-forward row is one step.
SPECS = {
    "gru": ModelSpec("rnn_regressor", input_len=180, hidden_dim=4, chunk_size=3),
    "ann": ModelSpec("ann", input_len=12, ann_hidden=(6,)),
    "cnn1d": ModelSpec("cnn1d", input_len=12, cnn_channels=(3,), cnn_kernel=3),
}
# 127 rows of 60 steps fill three slabs (3 * MIN_SLAB_STEPS <= 7,620 row-steps).
SPLIT_ROWS = 127


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


# One CPU, or less than two slabs' work (32 or 63 rows of 60 steps), for
# every model; and a batch the recurrent regressor splits for the two whose
# rows are one step each.
@pytest.mark.parametrize("kind, cpus, rows", [
    (kind, cpus, rows) for kind in SPECS for cpus, rows in [
        (1, SPLIT_ROWS), (3, 5), (3, 32), (2, 63)]
] + [("ann", 3, SPLIT_ROWS), ("cnn1d", 3, SPLIT_ROWS)])
def test_one_slab_is_bitwise_one_pass(monkeypatch, pools, kind, cpus, rows):
    monkeypatch.setattr(parallel, "available_cpus", lambda: cpus)
    spec, params, signals, targets = case(kind, rows)
    assert_same_bits(loss_and_grads(spec, params, signals, targets),
                     whole_batch(spec, params, signals, targets))
    assert pools == []


@pytest.mark.parametrize("kind", list(SPECS))
@pytest.mark.parametrize("cpus", [2, 3])
def test_split_matches_one_pass(monkeypatch, pools, kind, cpus):
    rows = -(-3 * MIN_SLAB_STEPS // SPECS[kind].n_steps)  # fewest for three slabs
    spec, params, signals, targets = case(kind, rows, seed=cpus)
    loss1, grads1, preds1 = whole_batch(spec, params, signals, targets)
    monkeypatch.setattr(parallel, "available_cpus", lambda: cpus)
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


# The default CNN at N=1750 trains in blocks of 32 rows.
CNN_1750 = ModelSpec("cnn1d", input_len=1750)


def chunk_rows(monkeypatch):
    """Rows of every ``forward_batch`` call ``backprop`` makes from now on."""
    rows, real = [], backprop.forward_batch

    def counting(spec, params, signals):
        rows.append(len(signals))
        return real(spec, params, signals)

    monkeypatch.setattr(backprop, "forward_batch", counting)
    return rows


def test_cnn_chunks_match_one_pass(monkeypatch):
    # Blocks of 32, 32 and 16 rows, all multiples of 16 as the models
    # docstring requires for the bits of one pass. One CPU runs them all in
    # this process, where their rows are counted.
    monkeypatch.setattr(parallel, "available_cpus", lambda: 1)
    rng = np.random.default_rng(4)
    params = init_params(CNN_1750, seed=4)
    signals, targets = rng.random((80, 1750)), rng.normal(size=(80, 2))
    loss1, grads1, preds1 = whole_batch(CNN_1750, params, signals, targets)
    rows = chunk_rows(monkeypatch)
    loss, grads, preds = got = loss_and_grads(CNN_1750, params, signals, targets)
    assert rows == [32, 32, 16]
    assert np.float64(loss).tobytes() == np.float64(loss1).tobytes()
    assert preds.tobytes() == preds1.tobytes()
    assert list(grads) == list(grads1)
    for name, grad in grads1.items():
        scale = np.abs(grad).max()
        assert np.abs(grads[name] - grad).max() <= 1e-12 * scale, name
    # The same chunks, summed in the same order, on every call.
    assert_same_bits(loss_and_grads(CNN_1750, params, signals, targets), got)


def test_cnn_training_peak_does_not_grow_with_batch(monkeypatch):
    # One block of 32 rows against eight: 31.0 and 31.8 MiB traced. Holding
    # every block's gradients until the last one came in took 33.9 MiB at
    # 256 rows; convolving the whole batch as one block took 244.8 MiB. One
    # CPU keeps every block in this process, where tracemalloc sees it.
    monkeypatch.setattr(parallel, "available_cpus", lambda: 1)
    rng = np.random.default_rng(5)
    params = init_params(CNN_1750, seed=5)
    rows = chunk_rows(monkeypatch)
    peaks = []
    for n_rows in (32, 256):
        signals, targets = rng.random((n_rows, 1750)), rng.normal(size=(n_rows, 2))
        tracemalloc.start()
        try:
            loss_and_grads(CNN_1750, params, signals, targets)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert rows == [32] * 9
    assert peaks[1] < 1.05 * peaks[0]


@pytest.mark.parametrize("cpus", [2, 3])
def test_nonfinite_rows_named_by_whole_batch_index(monkeypatch, pools, cpus):
    monkeypatch.setattr(parallel, "available_cpus", lambda: cpus)
    spec, params, signals, targets = case("gru", SPLIT_ROWS)
    last = SPLIT_ROWS - 1
    signals[[1, last], 0] = (np.nan, np.inf)
    with pytest.raises(ValueError,
                       match=rf"signals holding NaN or inf at rows \[1, {last}\]"):
        loss_and_grads(spec, params, signals, targets)
    signals[[1, last], 0] = 0.0
    targets[[2, last], 1] = (-np.inf, np.nan)
    with pytest.raises(ValueError,
                       match=rf"targets holding NaN or inf at rows \[2, {last}\]"):
        loss_and_grads(spec, params, signals, targets)
    assert pools == []


@pytest.mark.parametrize("kind", ["gru", "ann"])
@pytest.mark.parametrize("shape", [(5, 1), (4, 2), (5, 2, 1), (5,)])
def test_target_shape_checked(kind, shape):
    spec, params, signals, _ = case(kind, 5)
    with pytest.raises(ValueError, match=r"targets must be \(5, 2\)"):
        loss_and_grads(spec, params, signals, np.zeros(shape))


@pytest.mark.parametrize("kind", ["gru", "ann"])
def test_complex_targets_refused(kind):
    # A cast to float64 would keep only the real part of each target.
    spec, params, signals, targets = case(kind, 5)
    with pytest.raises(ValueError, match="complex targets"):
        loss_and_grads(spec, params, signals, targets + 1j)
    with pytest.raises(ValueError, match="complex targets"):
        mse_loss(targets, targets + 1j)
    with pytest.raises(ValueError, match="complex predictions"):
        mse_loss(targets + 1j, targets)


@pytest.mark.parametrize("cpus", [1, 2])
def test_caller_slab_calls_through_module_globals(monkeypatch, cpus):
    # A profiler wraps ``backprop.forward_batch`` and ``backprop.backward``,
    # so a slab must look both up there when it runs. The caller's slab is
    # the first, and its calls are the ones this process sees.
    monkeypatch.setattr(parallel, "available_cpus", lambda: cpus)
    rows = 2 * -(-MIN_SLAB_STEPS // SPECS["gru"].n_steps)  # two slabs' work
    spec, params, signals, targets = case("gru", rows)
    expected = loss_and_grads(spec, params, signals, targets)
    calls = []
    for name in ("forward_batch", "backward"):
        def wrapper(*args, real=getattr(backprop, name), name=name):
            calls.append((name, len(args[-1])))  # the signals, then d_preds
            return real(*args)
        monkeypatch.setattr(backprop, name, wrapper)
    with time_limit(60):
        got = loss_and_grads(spec, params, signals, targets)
    assert calls == [("forward_batch", rows // cpus), ("backward", rows // cpus)]
    assert_same_bits(got, expected)


# Row 0 lies in the caller's slab, the last row in a worker's.
@pytest.mark.parametrize("bad_row", [0, SPLIT_ROWS - 1])
@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_slab_error_reaches_caller(monkeypatch, cpus, bad_row):
    spec, params, signals, targets = case("gru", SPLIT_ROWS)
    signals[bad_row, 0] = 1234.5
    real = backprop.forward_batch

    def failing(spec, params, signals, *args):
        if np.any(signals[:, 0] == 1234.5):
            raise RuntimeError("slab holding the marked row")
        return real(spec, params, signals, *args)

    monkeypatch.setattr(parallel, "available_cpus", lambda: cpus)
    monkeypatch.setattr(backprop, "forward_batch", failing)
    with time_limit(60), pytest.raises(RuntimeError, match="marked row"):
        loss_and_grads(spec, params, signals, targets)
    assert multiprocessing.active_children() == []


# The whole-against-split table of ``backprop``'s docstring: (N, chunk_size,
# h, B) of a GRU, then the default ANN and CNN, and their processes at two
# CPUs. A GRU or ANN slab is one chunk; the CNN's one slab is two chunks of
# 32 rows, which fill two processes.
@pytest.mark.parametrize("kind, n, chunk, hidden, rows, processes", [
    ("rnn_regressor", 100, 10, 64, 64, 1),
    ("rnn_regressor", 250, 10, 100, 64, 1),
    ("rnn_regressor", 1750, 25, 100, 64, 2),
    ("rnn_regressor", 1750, 10, 100, 32, 2),
    ("rnn_regressor", 250, 1, 100, 32, 2),
    ("rnn_regressor", 1750, 1, 100, 64, 2),
    ("ann", 1750, 1, 100, 64, 1),
    ("cnn1d", 1750, 1, 100, 64, 2),
])
def test_table_cases_take_their_side(monkeypatch, pools, kind, n, chunk, hidden,
                                     rows, processes):
    # Stand-ins for the passes, installed before any fork so that workers see
    # them too: only the number of processes is under test, not their
    # arithmetic.
    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    monkeypatch.setattr(backprop, "forward_batch",
                        lambda spec, params, signals: (np.zeros((len(signals), 2)), {}))
    monkeypatch.setattr(backprop, "backward", lambda spec, params, cache, d_preds: {
        name: np.zeros_like(arr) for name, arr in params.items()})
    spec = ModelSpec(kind, input_len=n, hidden_dim=hidden, chunk_size=chunk)
    params = {name: np.zeros(shape) for name, shape in param_layout(spec).items()}
    with time_limit(60):
        loss_and_grads(spec, params, np.zeros((rows, n)), np.zeros((rows, 2)))
    assert pools == ([1] if processes == 2 else [])
