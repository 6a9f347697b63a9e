import re
import tracemalloc

import numpy as np
import pytest

from mrfmap import parallel
from mrfmap.nn.backprop import loss_and_grads, mse_loss
from mrfmap.nn.cells import step, step_grad
from mrfmap.nn import models
from mrfmap.nn.models import (
    CNN_BLOCK_BUDGET,
    ModelSpec,
    backward,
    forward_batch,
    init_params,
    predict_batch,
    predict_single,
    row_blocks,
)
from test_cells import blocks, gru_step_reference


def param_count(spec):
    """Trainable parameters ``init_params`` allocates for ``spec``."""
    return sum(p.size for p in init_params(spec, seed=0).values())


def closed_form_count(spec):
    """Parameter total written out from the layer sizes, head included."""
    if spec.kind == "rnn_regressor":
        h, i = spec.hidden_dim, spec.chunk_size
        return 3 * (h * (i + h) + h) + h * 2 + 2
    if spec.kind == "ann":
        sizes, kernel = [spec.input_len, *spec.ann_hidden], 1
    else:
        sizes, kernel = [1, *spec.cnn_channels], spec.cnn_kernel
    layers = sum(n_in * n_out * kernel + n_out for n_in, n_out in zip(sizes, sizes[1:]))
    return layers + sizes[-1] * 2 + 2


class TestParamCount:
    def test_gru_canonical(self):
        spec = ModelSpec("rnn_regressor", input_len=1750, hidden_dim=100)
        assert param_count(spec) == 3 * (100 * 101 + 100) + 202 == 30802

    def test_ann_closed_form(self):
        spec = ModelSpec("ann", input_len=1750)
        # 1750*300+300 + 300*300+300 + 300*2+2
        assert param_count(spec) == 616202

    def test_count_matches_actual_arrays(self):
        specs = [
            ModelSpec("rnn_regressor", input_len=20, hidden_dim=6, chunk_size=4),
            ModelSpec("ann", input_len=40, ann_hidden=(13, 7)),
            ModelSpec("cnn1d", input_len=80, cnn_channels=(4, 8)),
        ]
        for spec in specs:
            assert param_count(spec) == closed_form_count(spec)


class TestMseLoss:
    def test_zero_when_equal(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert mse_loss(x, x) == 0.0

    def test_unit_case(self):
        assert mse_loss(np.array([[1.0, 1.0]]), np.array([[0.0, 0.0]])) == 1.0

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(4)
        pred = rng.normal(size=(3, 2))
        target = rng.normal(size=(3, 2))
        acc = 0.0
        for i in range(3):
            for j in range(2):
                acc += (pred[i, j] - target[i, j]) ** 2
        assert abs(mse_loss(pred, target) - acc / 6.0) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mse_loss(np.zeros((2, 2)), np.zeros((3, 2)))

    def test_nonfinite_rows_refused(self):
        # Such a row used to give a NaN or inf loss.
        pred = np.zeros((4, 2))
        pred[1, 0], pred[3, 1] = np.nan, -np.inf
        with pytest.raises(ValueError, match=re.escape(
                "predictions holding NaN or inf at rows [1, 3]")):
            mse_loss(pred, np.zeros((4, 2)))

    def test_empty_batch(self):
        with pytest.raises(ValueError, match=re.escape(
                "expected a nonempty (B, k) batch, got (0, 2)")):
            mse_loss(np.zeros((0, 2)), np.zeros((0, 2)))


class TestForwardSequence:
    """One signal forwarded through ``predict_single``."""

    def test_zero_signal_zero_params_gives_head_bias(self):
        spec = ModelSpec("rnn_regressor", input_len=12, hidden_dim=5, chunk_size=3)
        params = init_params(spec, seed=0)
        for arr in params.values():
            arr[:] = 0.0
        params["head.b"][:] = [0.25, -0.5]
        out = predict_single(spec, params, np.zeros(12))
        np.testing.assert_allclose(out, [0.25, -0.5], atol=1e-15)

    def test_frozen_gru_state_gives_head_bias(self):
        spec = ModelSpec("rnn_regressor", input_len=10, hidden_dim=4)
        params = init_params(spec, seed=1)
        # Blocks are [reset | update | candidate].
        (_, w_z, _), (_, u_z, _), (_, b_z, _) = (
            blocks(params[f"cell.{k}"], 3) for k in "wub")
        w_z[:] = 0.0
        u_z[:] = 0.0
        b_z[:] = 30.0  # update gate -> 1: state never moves
        params["head.b"][:] = [0.7, 0.1]
        out = predict_single(spec, params, np.full(10, 0.4))
        np.testing.assert_allclose(out, [0.7, 0.1], atol=1e-5)

    def test_matches_stepwise_composition(self):
        # The reference is the scalar per-step loop of test_cells, which
        # shares no arithmetic with the cells.step kernel.
        spec = ModelSpec("rnn_regressor", input_len=7, hidden_dim=4)
        params = init_params(spec, seed=7)
        rng = np.random.default_rng(0)
        signal = rng.normal(size=7)
        cell = (params["cell.w"], params["cell.u"], params["cell.b"])
        h = np.zeros(4)
        for t in range(7):
            h = gru_step_reference(cell, signal[t:t + 1], h)
        expected = h @ params["head.w"] + params["head.b"]
        got = predict_single(spec, params, signal)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("chunk_size", [1, 3])
    def test_input_projection_matches_matmul_unroll(self, chunk_size):
        # The unroll projects each input chunk with np.dot; an unroll that
        # projects it with the @ operator must give the same bits.
        spec = ModelSpec("rnn_regressor", input_len=12, hidden_dim=5,
                         chunk_size=chunk_size)
        params = init_params(spec, seed=4)
        signals = np.random.default_rng(4).normal(size=(6, 12))
        w, u, b = params["cell.w"], params["cell.u"], params["cell.b"]
        xs = np.ascontiguousarray(
            signals.reshape(6, spec.n_steps, chunk_size).transpose(1, 0, 2))
        s = np.zeros((6, 5))
        for x_t in xs:
            s, _ = step(u, x_t @ w + b, s)
        expected = s @ params["head.w"] + params["head.b"]
        assert predict_batch(spec, params, signals).tobytes() == expected.tobytes()
        preds, _ = forward_batch(spec, params, signals)
        assert preds.tobytes() == expected.tobytes()

    def test_length_mismatch(self):
        spec = ModelSpec("rnn_regressor", input_len=10, hidden_dim=3)
        params = init_params(spec, seed=0)
        with pytest.raises(ValueError):
            predict_single(spec, params, np.zeros(11))

    @pytest.mark.parametrize("kind", ["rnn_regressor", "ann", "cnn1d"])
    def test_forward_batch_width_mismatch(self, kind):
        spec = ModelSpec(kind, input_len=20, hidden_dim=3, ann_hidden=(4,),
                         cnn_channels=(2,), cnn_kernel=3)
        params = init_params(spec, seed=0)
        with pytest.raises(ValueError, match=re.escape("signals must be (B, 20), got (2, 21)")):
            forward_batch(spec, params, np.zeros((2, 21)))

    def test_deterministic(self):
        spec = ModelSpec("rnn_regressor", input_len=30, hidden_dim=6, chunk_size=2)
        params = init_params(spec, seed=3)
        sig = np.random.default_rng(1).normal(size=30)
        a = predict_single(spec, params, sig)
        b = predict_single(spec, params, sig)
        np.testing.assert_array_equal(a, b)


class TestBaselines:
    def test_ann_forward_finite_on_zero(self):
        spec = ModelSpec("ann", input_len=50, ann_hidden=(20, 10))
        params = init_params(spec, seed=0)
        preds, _ = forward_batch(spec, params, np.zeros((3, 50)))
        assert np.all(np.isfinite(preds))

    def test_cnn_forward_finite(self):
        spec = ModelSpec("cnn1d", input_len=100, cnn_channels=(4, 8))
        params = init_params(spec, seed=0)
        preds, _ = forward_batch(spec, params,
                                 np.random.default_rng(0).normal(size=(2, 100)))
        assert preds.shape == (2, 2)
        assert np.all(np.isfinite(preds))

    def test_cnn_forward_holds_layer_outputs_only(self):
        # Traced peaks in units of one conv1 output, B·16·123·8 bytes. A
        # cache that also kept each pre-activation peaked at 8.51 in both
        # calls. Inference holds one block of 240 rows: its conv1 output,
        # einsum's copy of the windows conv2 reads (2.44 per 256 rows) and
        # conv2's output, 4.13, beside the (256, 128) features: 4.21; an
        # unblocked forward holds 4.42. The training forward keeps every
        # layer's output: 5.68.
        spec = ModelSpec("cnn1d", input_len=250)
        params = init_params(spec, seed=0)
        signals = np.random.default_rng(0).random((256, 250))
        unit = 256 * 16 * spec.conv_lengths()[1] * 8

        def traced_peak(call, *args):
            tracemalloc.start()
            try:
                call(*args)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert traced_peak(predict_batch, spec, params, signals) / unit < 4.3
        assert traced_peak(forward_batch, spec, params, signals) / unit < 6.5
        # Eight full blocks and a partial one: the blocks stay within the
        # budget, and the (2048, 128) features add 2 MiB. An unblocked
        # forward holds 135.8 MiB.
        big = np.random.default_rng(1).random((2048, 250))
        assert traced_peak(predict_batch, spec, params, big) < 1.25 * CNN_BLOCK_BUDGET

    def test_cnn_inference_blocks_equal_one_block(self, monkeypatch):
        # Three full blocks and a partial one of 64 rows, a multiple of 16 as
        # the module docstring requires for bit identity. One thread runs
        # them, so they come in order and at the size of the whole budget.
        monkeypatch.setattr(parallel, "available_cpus", lambda: 1)
        spec = ModelSpec("cnn1d", input_len=250)
        params = init_params(spec, seed=5)
        rows = models._cnn_block_rows(spec)
        signals = np.random.default_rng(5).normal(size=(3 * rows + 64, 250))
        block_rows = []
        conv_windows = models._conv_windows

        def counting(x, kernel, stride):
            block_rows.append(x.shape[0])
            return conv_windows(x, kernel, stride)

        monkeypatch.setattr(models, "_conv_windows", counting)
        got = predict_batch(spec, params, signals)
        n_layers = len(spec.cnn_channels)
        assert block_rows == [n for n in (rows, rows, rows, 64) for _ in range(n_layers)]
        block_rows.clear()
        whole, _ = forward_batch(spec, params, signals)
        assert block_rows == [len(signals)] * n_layers
        assert got.tobytes() == whole.tobytes()
        # A lone signal runs the products at other sizes, so its last bits
        # may differ from its row's in any batch.
        for row in (3 * rows, 3 * rows + 37, len(signals) - 1):
            np.testing.assert_allclose(predict_single(spec, params, signals[row]),
                                       got[row], rtol=1e-12, atol=0)
        assert predict_batch(spec, params, np.empty((0, 250))).shape == (0, 2)

    def test_row_blocks(self):
        # A cnn1d cuts rows every _cnn_block_rows from the first; the GRU and
        # the ANN run them all at once. No rows are one empty block.
        cnn = ModelSpec("cnn1d", input_len=1750)
        assert models._cnn_block_rows(cnn) == 32
        assert row_blocks(cnn, 10, 80) == [(10, 42), (42, 74), (74, 80)]
        assert row_blocks(cnn, 10, 42) == [(10, 42)]
        for spec in (cnn, ModelSpec("rnn_regressor"), ModelSpec("ann")):
            assert row_blocks(spec, 5, 5) == [(5, 5)]
        for spec in (ModelSpec("rnn_regressor"), ModelSpec("ann")):
            assert row_blocks(spec, 10, 5000) == [(10, 5000)]

    def test_cnn_length_arithmetic(self):
        spec = ModelSpec("cnn1d", input_len=1750)
        assert spec.conv_lengths() == [1750, 873, 435, 216, 106]

    def test_cnn_too_short_rejected(self):
        with pytest.raises(ValueError):
            ModelSpec("cnn1d", input_len=8, cnn_channels=(4, 8, 16, 32))

    def test_chunk_must_divide(self):
        with pytest.raises(ValueError):
            ModelSpec("rnn_regressor", input_len=10, chunk_size=3)

    @pytest.mark.parametrize("make, message", [
        (lambda: ModelSpec("transformer"), "unknown model kind 'transformer'"),
        # A spec has no cell field; a header may still name one. A list is
        # unhashable, so it used to raise TypeError.
        (lambda: ModelSpec.from_json_dict({"kind": "rnn_regressor", "cell_kind": ["gru"]}),
         "unknown cell kind ['gru']"),
        # Cells an older checkpoint may name.
        (lambda: ModelSpec.from_json_dict({"kind": "rnn_regressor", "cell_kind": "lstm"}),
         "unknown cell kind 'lstm'; the only cell is 'gru'"),
        (lambda: ModelSpec.from_json_dict({"kind": "rnn_regressor", "cell_kind": "simple"}),
         "unknown cell kind 'simple'; the only cell is 'gru'"),
        (lambda: ModelSpec.from_json_dict({"input_len": 30}), "spec lacks ['kind']"),
        # Used to be made; its forward passes then raised ValueError or IndexError.
        (lambda: ModelSpec("cnn1d", input_len=20, cnn_channels=()),
         "cnn_channels must be at least one conv layer for a cnn1d, got ()"),
    ], ids=["kind", "cell_kind", "lstm_cell", "simple_cell", "no_kind", "no_conv"])
    def test_spec_refusals(self, make, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            make()


SINGLE_SPECS = {
    **{f"gru-{chunk}": ModelSpec("rnn_regressor", input_len=60, hidden_dim=9,
                                 chunk_size=chunk) for chunk in (1, 3)},
    "ann": ModelSpec("ann", input_len=60, ann_hidden=(13, 7)),
    "cnn1d": ModelSpec("cnn1d", input_len=60, cnn_channels=(4, 8)),
}


class TestPredictSingle:
    @pytest.mark.parametrize("name", list(SINGLE_SPECS))
    def test_equals_forward_batch_row(self, name):
        spec = SINGLE_SPECS[name]
        params = init_params(spec, seed=11)
        sig = np.random.default_rng(2).normal(size=60) * 0.5
        np.testing.assert_array_equal(
            predict_single(spec, params, sig),
            forward_batch(spec, params, sig[None])[0][0])

    def test_activations_bounded_no_nan(self):
        spec = ModelSpec("rnn_regressor", input_len=40, hidden_dim=8)
        params = init_params(spec, seed=0)
        sig = np.random.default_rng(3).normal(size=40) * 5.0
        preds, cache = forward_batch(spec, params, sig[None, :])
        assert np.all(np.isfinite(preds))
        tape = cache["tape"]
        ss, rs, zs, cands = tape
        for arr in tape:
            assert arr.shape == (spec.n_steps, 1, spec.hidden_dim)
        hs = np.concatenate([ss, cache["features"][None]])
        assert np.all(np.abs(hs) <= 1.0)
        assert np.all((rs >= 0.0) & (rs <= 1.0))
        assert np.all((zs >= 0.0) & (zs <= 1.0))
        assert np.all(np.abs(cands) <= 1.0)

    def test_spec_roundtrip_json(self):
        spec = ModelSpec("cnn1d", input_len=300, cnn_channels=(8, 16),
                         cnn_kernel=3, cnn_stride=2)
        again = ModelSpec.from_json_dict(spec.to_json_dict())
        assert again == spec


class TestPredictSlabs:
    """``predict_batch`` runs slabs of multiples of 16 rows on threads."""

    @pytest.fixture
    def forwards(self, monkeypatch):
        """The rows of every block ``predict_batch`` runs while the test runs."""
        rows, forward = [], models._forward

        def counting(spec, params, x, keep_cache):
            rows.append(len(x))
            return forward(spec, params, x, keep_cache)

        monkeypatch.setattr(models, "_forward", counting)
        return rows

    @pytest.mark.parametrize("kind, rows, one, two", [
        ("rnn_regressor", 96, [96], [48, 48]),
        # Blocks of 240 rows on one thread, of 112 on each of two.
        ("cnn1d", 512, [240, 240, 32], [112, 112, 32, 112, 112, 32]),
        ("ann", 1024, [1024], [512, 512]),
    ])
    def test_two_cpus_give_the_predictions_of_one(self, monkeypatch, forwards,
                                                  kind, rows, one, two):
        spec = ModelSpec(kind, input_len=250)
        params = init_params(spec, seed=8)
        signals = np.random.default_rng(8).random((rows, 250))
        monkeypatch.setattr(parallel, "available_cpus", lambda: 1)
        serial = predict_batch(spec, params, signals)
        assert forwards == one
        forwards.clear()
        monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
        split = predict_batch(spec, params, signals)
        assert sorted(forwards) == sorted(two)
        if kind == "ann":
            # One product per slab, whose last bits move with its rows, by
            # up to 1.7e-16 here: a relative error near 5e-15 on an output
            # near 0, so the bound is relative to the largest output.
            assert np.abs(split - serial).max() <= 1e-15 * np.abs(serial).max()
        else:
            assert split.tobytes() == serial.tobytes()

    @pytest.mark.parametrize("cpus, rows, slabs", [
        (2, 0, [0]), (2, 95, [95]), (2, 96, [48, 48]), (2, 100, [48, 52]),
        (2, 131, [64, 67]), (3, 131, [64, 67]), (3, 160, [48, 48, 64])])
    def test_slab_edges_fall_on_multiples_of_16(self, monkeypatch, forwards, cpus, rows, slabs):
        # A GRU slab holds at least MIN_SLAB_ROWS rows, 48.
        spec = ModelSpec("rnn_regressor", input_len=12, hidden_dim=4, chunk_size=3)
        monkeypatch.setattr(parallel, "available_cpus", lambda: cpus)
        predicted = predict_batch(spec, init_params(spec, seed=0), np.ones((rows, 12)))
        assert predicted.shape == (rows, 2)
        assert sorted(forwards) == sorted(slabs)

    @pytest.mark.parametrize("name", ["gru-3", "ann", "cnn1d"])
    def test_a_batch_splits_from_twice_the_least_slab(self, monkeypatch, forwards, name):
        spec = SINGLE_SPECS[name]
        params = init_params(spec, seed=0)
        least = models.MIN_SLAB_ROWS[spec.kind]
        monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
        for rows in (2 * least - 1, 2 * least):
            predict_batch(spec, params, np.ones((rows, spec.input_len)))
        assert least % 16 == 0
        assert sorted(forwards) == [least, least, 2 * least - 1]


def list_tape_reference(spec, params, signals, d_preds):
    """Predictions and gradients of a recurrent regressor from a forward
    that keeps a Python list of per-step ``(s, acts)`` and a BPTT that walks
    it backwards, composed from ``cells.step`` and ``cells.step_grad`` in
    the order of the model's own unroll."""
    w, u, b = params["cell.w"], params["cell.u"], params["cell.b"]
    n_rows, n = signals.shape[0], spec.hidden_dim
    xs = np.ascontiguousarray(
        signals.reshape(n_rows, spec.n_steps, spec.chunk_size).transpose(1, 0, 2))
    s = np.zeros((n_rows, n))
    tape = []
    for x_t in xs:
        s_t, acts = step(u, np.dot(x_t, w) + b, s)
        tape.append((s, acts))
        s = s_t
    preds = s @ params["head.w"] + params["head.b"]

    grads = {name: np.zeros_like(arr) for name, arr in params.items()}
    grads["head.w"] += s.T @ d_preds
    grads["head.b"] += d_preds.sum(axis=0)
    ds = d_preds @ params["head.w"].T
    for x_t, (s, acts) in zip(xs[::-1], tape[::-1]):
        dxp, du_t, ds = step_grad(u, s, acts, ds)
        grads["cell.w"] += x_t.T @ dxp
        grads["cell.u"] += du_t
        grads["cell.b"] += dxp.sum(axis=0)
    return preds, grads


def cache_arrays(obj):
    """Number of arrays held anywhere in a forward cache."""
    if isinstance(obj, np.ndarray):
        return 1
    if isinstance(obj, dict):
        obj = obj.values()
    return sum(cache_arrays(item) for item in obj)


class TestTape:
    @pytest.mark.parametrize("rows", [1, 5])
    @pytest.mark.parametrize("chunk_size", [1, 3])
    def test_matches_list_tape_bitwise(self, chunk_size, rows):
        spec = ModelSpec("rnn_regressor", input_len=24, hidden_dim=6,
                         chunk_size=chunk_size)
        params = init_params(spec, seed=4)
        rng = np.random.default_rng(rows)
        signals = rng.normal(size=(rows, spec.input_len))
        d_preds = rng.normal(size=(rows, 2))
        preds, cache = forward_batch(spec, params, signals)
        grads = backward(spec, params, cache, d_preds)
        ref_preds, ref_grads = list_tape_reference(spec, params, signals, d_preds)
        np.testing.assert_array_equal(preds, ref_preds)
        assert list(grads) == list(ref_grads)
        for name in grads:
            np.testing.assert_array_equal(grads[name], ref_grads[name], err_msg=name)

    def test_array_count_independent_of_length(self):
        # One array per taped quantity, however long the unroll: a per-step
        # list would grow with n_steps.
        counts = []
        for n_steps in (4, 40):
            spec = ModelSpec("rnn_regressor", input_len=n_steps, hidden_dim=3)
            _, cache = forward_batch(spec, init_params(spec, seed=0),
                                     np.ones((2, n_steps)))
            tape = cache["tape"]
            # The previous state, then one array per entry of the step's acts.
            assert len(tape) == 4
            assert tape[0].shape == (n_steps, 2, 3)
            assert all(len(arr) == n_steps for arr in tape)
            counts.append(cache_arrays(cache))
        assert counts[0] == counts[1]


NONFINITE_SPECS = {
    "rnn_regressor": ModelSpec("rnn_regressor", input_len=12, hidden_dim=4,
                               chunk_size=3),
    "ann": ModelSpec("ann", input_len=12, ann_hidden=(5,)),
    "cnn1d": ModelSpec("cnn1d", input_len=12, cnn_channels=(3,), cnn_kernel=3),
}


class TestNonFiniteInput:
    @pytest.mark.parametrize("kind", list(NONFINITE_SPECS))
    def test_rows_rejected_with_indices(self, kind):
        spec = NONFINITE_SPECS[kind]
        params = init_params(spec, seed=0)
        signals = np.random.default_rng(6).normal(size=(5, 12))
        signals[1, 7] = np.nan
        signals[3, 0] = np.inf
        signals[4, 11] = -np.inf
        for call in (forward_batch, predict_batch):
            with pytest.raises(ValueError,
                               match=r"signals holding NaN or inf at rows \[1, 3, 4\]"):
                call(spec, params, signals)
        with pytest.raises(ValueError, match=r"rows \[1, 3, 4\]"):
            loss_and_grads(spec, params, signals, np.zeros((5, 2)))
        for row in (1, 3, 4):
            with pytest.raises(ValueError, match=r"signals holding NaN or inf at rows \[0\]"):
                predict_single(spec, params, signals[row])
        assert np.all(np.isfinite(predict_batch(spec, params, signals[[0, 2]])))

    @pytest.mark.parametrize("kind", list(NONFINITE_SPECS))
    def test_complex_rejected(self, kind):
        # A cast to float64 would keep only the real part of each sample.
        spec = NONFINITE_SPECS[kind]
        params = init_params(spec, seed=0)
        signals = np.random.default_rng(7).normal(size=(3, 12)) * np.exp(0.5j)
        for call in (forward_batch, predict_batch):
            with pytest.raises(ValueError, match=re.escape("magnitudes (np.abs)")):
                call(spec, params, signals)
        with pytest.raises(ValueError, match=re.escape("magnitudes (np.abs)")):
            loss_and_grads(spec, params, signals, np.zeros((3, 2)))
        with pytest.raises(ValueError, match=re.escape("magnitudes (np.abs)")):
            predict_single(spec, params, signals[0])


# Each entry that runs a network, called with a spec, its parameters and a
# (B, input_len) batch.
ENTRIES = {
    "forward_batch": forward_batch,
    "predict_batch": predict_batch,
    "predict_single": lambda spec, params, signals: predict_single(spec, params, signals[0]),
    "loss_and_grads": lambda spec, params, signals: loss_and_grads(
        spec, params, signals, np.zeros((len(signals), 2))),
}


@pytest.mark.parametrize("entry", list(ENTRIES))
@pytest.mark.parametrize("kind", list(NONFINITE_SPECS))
def test_parameters_that_do_not_fit_the_layout_rejected_by_name(kind, entry):
    # A (1,) head bias used to be broadcast to both outputs and an extra
    # array was ignored; loss_and_grads failed inside backward, with a NumPy
    # message that named no array.
    spec = NONFINITE_SPECS[kind]
    signals = np.random.default_rng(8).normal(size=(5, 12))
    full = init_params(spec, seed=0)
    for params, fault in [({**full, "head.b": np.zeros(1)}, "{'head.b': ((1,), (2,))}"),
                          ({**full, "extra.w": np.zeros(3)}, "{'extra.w': ((3,), None)}"),
                          ({k: v for k, v in full.items() if k != "head.b"},
                           "{'head.b': (None, (2,))}")]:
        with pytest.raises(ValueError, match=re.escape(
                f"parameters do not fit, name: (given shape, expected shape): {fault}")):
            ENTRIES[entry](spec, params, signals)
