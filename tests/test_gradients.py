"""Analytic gradients vs finite differences (central; one-sided at ReLU kinks).

The whole-model checks run every model through ``loss_and_grads``; the
kernel-level check compares ``cells.step_grad`` with ``cells.step`` alone.
"""

import numpy as np
import pytest

from mrfmap.nn import backprop
from mrfmap.nn.backprop import backward, loss_and_grads
from mrfmap.nn.cells import N_GATES, N_STATES, step, step_grad
from mrfmap.nn.models import ModelSpec, forward_batch, init_params, mse_loss

DELTA = 1e-6

TOY_SPECS = {
    "simple": ModelSpec("rnn_regressor", input_len=5, cell_kind="simple",
                        hidden_dim=3),
    "gru": ModelSpec("rnn_regressor", input_len=5, cell_kind="gru",
                     hidden_dim=3),
    "lstm": ModelSpec("rnn_regressor", input_len=5, cell_kind="lstm",
                      hidden_dim=3),
    "ann": ModelSpec("ann", input_len=9, ann_hidden=(6, 4)),
    "cnn1d": ModelSpec("cnn1d", input_len=24, cnn_channels=(3, 4),
                       cnn_kernel=3, cnn_stride=2),
}


def _loss_and_relu_pattern(spec, params, signals, targets):
    """MSE loss and the on/off state (pre > 0) of every ReLU, flattened."""
    preds, cache = forward_batch(spec, params, signals)
    pre = [p.ravel() for p in cache.get("pre_relu", ())]
    return mse_loss(preds, targets), np.concatenate(pre or [np.zeros(0)]) > 0.0


def finite_difference_grads(spec, params, signals, targets, delta=DELTA):
    """Finite differences of the MSE loss w.r.t. every parameter entry.

    Central differences, except at kink entries: entries for which some
    ReLU pre-activation switches on or off between theta-delta and
    theta+delta. There the central difference averages the two one-sided
    slopes, whereas backprop differentiates the ReLU pattern at theta
    (relu'(0) = 0, so a unit at exactly 0 counts as off). A kink entry gets
    the second-order one-sided difference from the side h = +-delta on
    which that pattern still holds at theta+h and theta+2h; for a unit at
    exactly 0 this is the side on which it stays <= 0. An entry with no
    such side cannot be checked and raises AssertionError.

    Returns the gradients and, per parameter name, the flat indices of its
    kink entries.
    """
    loss0, pattern0 = _loss_and_relu_pattern(spec, params, signals, targets)
    grads, kinks = {}, {}
    for name, arr in params.items():
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        kinks[name] = []
        for i in range(flat.size):
            orig = flat[i]

            def shifted(step):
                flat[i] = orig + step
                try:
                    return _loss_and_relu_pattern(spec, params, signals,
                                                  targets)
                finally:
                    flat[i] = orig

            up, pattern_up = shifted(delta)
            down, pattern_down = shifted(-delta)
            if np.array_equal(pattern_up, pattern_down):
                gflat[i] = (up - down) / (2.0 * delta)
                continue
            kinks[name].append(i)
            h, loss1, pattern1 = ((delta, up, pattern_up)
                                  if np.array_equal(pattern_up, pattern0)
                                  else (-delta, down, pattern_down))
            loss2, pattern2 = shifted(2.0 * h)
            assert (np.array_equal(pattern1, pattern0)
                    and np.array_equal(pattern2, pattern0)), (
                f"{name}[{i}]: ReLU kink with no side that keeps the "
                f"pattern at theta")
            gflat[i] = (-3.0 * loss0 + 4.0 * loss1 - loss2) / (2.0 * h)
        grads[name] = g
    return grads, kinks


def random_case(spec, seed, batch=2):
    rng = np.random.default_rng(seed)
    params = init_params(spec, seed=seed)
    signals = rng.normal(size=(batch, spec.input_len))
    targets = rng.normal(size=(batch, 2))
    return params, signals, targets


def assert_gradients_agree(a, n, what):
    """Assert flat analytic gradients ``a`` equal finite differences ``n``."""
    # Norm-wise relative error is the primary criterion; individually large
    # entries must also agree, and near-zero ones sit below the FD noise
    # floor (~eps*|loss|/delta).
    norm_rel = np.linalg.norm(a - n) / max(np.linalg.norm(a) + np.linalg.norm(n),
                                           1e-12)
    assert norm_rel < 1e-6, f"{what}: norm error {norm_rel}"
    big = np.abs(a) + np.abs(n) > 1e-3
    if np.any(big):
        rel = np.abs(a[big] - n[big]) / (np.abs(a[big]) + np.abs(n[big]))
        assert rel.max() < 1e-6, f"{what}: entry error {rel.max()}"
    if np.any(~big):
        assert np.abs(a[~big] - n[~big]).max() < 1e-8, what


def check_gradients(spec, params, signals, targets):
    """Assert analytic == finite-difference gradients; return the kink
    entries (flat indices per parameter name) that used one-sided ones."""
    loss, analytic, _ = loss_and_grads(spec, params, signals, targets)
    numeric, kinks = finite_difference_grads(spec, params, signals, targets)

    assert_gradients_agree(np.concatenate([analytic[k].ravel() for k in params]),
                           np.concatenate([numeric[k].ravel() for k in params]),
                           f"{spec.kind}/{spec.cell_kind}")
    assert np.isfinite(loss)
    return {name: idx for name, idx in kinks.items() if idx}


@pytest.mark.parametrize("kind", ["simple", "gru", "lstm"])
def test_step_grad_matches_central_differences(kind):
    # One cell step with the loss sum(a * s_t) over the whole state, the
    # LSTM's c half included, differentiated with respect to each input of
    # step, the whole previous state among them.
    rng = np.random.default_rng(0)
    batch, n = 2, 3
    width, states = N_GATES[kind] * n, N_STATES[kind] * n
    inputs = {"xp_t": rng.normal(size=(batch, width)),
              "u": 0.5 * rng.normal(size=(n, width)),
              "s": 0.5 * rng.normal(size=(batch, states))}
    a = rng.normal(size=(batch, states))

    def loss():
        s_t, _ = step(kind, inputs["u"], inputs["xp_t"], inputs["s"])
        return np.sum(a * s_t)

    _, acts = step(kind, inputs["u"], inputs["xp_t"], inputs["s"])
    dxp, du, ds_prev = step_grad(kind, inputs["u"], inputs["s"], acts, a)
    analytic = {"xp_t": dxp, "u": du, "s": ds_prev}
    for name, arr in inputs.items():
        numeric = np.zeros_like(arr)
        for i in range(arr.size):
            orig = arr.flat[i]
            arr.flat[i] = orig + DELTA
            up = loss()
            arr.flat[i] = orig - DELTA
            down = loss()
            arr.flat[i] = orig
            numeric.flat[i] = (up - down) / (2.0 * DELTA)
        assert analytic[name].shape == arr.shape
        assert_gradients_agree(analytic[name].ravel(), numeric.ravel(),
                               f"{kind} d/d{name}")


# At seed 2 four conv2 pre-activations are exactly 0.0: each reads a window
# in which every conv1 ReLU is dead, and the bias starts at zero. No other
# case puts a pre-activation within delta of a ReLU kink.
EXPECTED_KINKS = {("cnn1d", 2): {"conv2.b": [0, 1, 2, 3]}}


@pytest.mark.parametrize("kind", list(TOY_SPECS))
def test_gradcheck_three_seeds(kind):
    for seed in (0, 1, 2):
        spec = TOY_SPECS[kind]
        kinks = check_gradients(spec, *random_case(spec, seed))
        assert kinks == EXPECTED_KINKS.get((kind, seed), {})


def test_gradcheck_catches_wrong_gradient_at_kink(monkeypatch):
    # relu'(0) = 1 would move the conv2.b kink entries by O(0.1); an error
    # of 1e-4 on one kink entry alone must already fail.
    exact = backprop._backward_cnn

    def off_at_kink(*args):
        grads = exact(*args)
        grads["conv2.b"][0] += 1e-4
        return grads

    monkeypatch.setattr(backprop, "_backward_cnn", off_at_kink)
    spec = TOY_SPECS["cnn1d"]
    with pytest.raises(AssertionError):
        check_gradients(spec, *random_case(spec, 2))


def test_gradcheck_fails_at_kink_with_no_consistent_side():
    # fc1 unit 0 sits at exactly 0 for both rows; nudging fc1.w[0, 0] either
    # way switches it on for one row, so neither one-sided difference
    # describes the pattern at theta.
    spec = TOY_SPECS["ann"]
    params = init_params(spec, seed=0)
    params["fc1.w"][0, 0] = 0.0
    signals = np.zeros((2, spec.input_len))
    signals[:, 0] = (1.0, -1.0)
    targets = np.ones((2, 2))
    with pytest.raises(AssertionError, match=r"fc1\.w\[0\]: ReLU kink"):
        check_gradients(spec, params, signals, targets)


def test_zero_gradient_at_loss_minimum():
    spec = TOY_SPECS["gru"]
    params = init_params(spec, seed=0)
    rng = np.random.default_rng(0)
    signals = rng.normal(size=(1, spec.input_len))
    preds, _ = forward_batch(spec, params, signals)
    _, grads, _ = loss_and_grads(spec, params, signals, preds)
    for arr in grads.values():
        np.testing.assert_array_equal(arr, np.zeros_like(arr))


def test_backward_requires_cache():
    spec = TOY_SPECS["gru"]
    params = init_params(spec, seed=0)
    with pytest.raises(ValueError):
        backward(spec, params, {}, np.zeros((1, 2)))


def test_no_nans_through_full_pass():
    spec = ModelSpec("rnn_regressor", input_len=50, cell_kind="lstm",
                     hidden_dim=12, chunk_size=2)
    params = init_params(spec, seed=5)
    rng = np.random.default_rng(5)
    signals = rng.normal(size=(8, 50)) * 3.0
    targets = rng.normal(size=(8, 2))
    loss, grads, preds = loss_and_grads(spec, params, signals, targets)
    assert np.isfinite(loss)
    for arr in grads.values():
        assert np.all(np.isfinite(arr))
