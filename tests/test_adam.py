import math
import re

import numpy as np
import pytest

from mrfmap.nn.adam import AdamState, adam_update


def test_first_step_magnitude_near_lr():
    params = {"w": np.array([1.0, -2.0, 0.5])}
    grads = {"w": np.array([0.3, -4.0, 1e-3])}
    state = AdamState.for_params(params, learning_rate=1e-4)
    before = params["w"].copy()
    adam_update(state, params, grads)
    step = before - params["w"]
    # Bias-corrected first step is lr * g / (|g| + eps') ~= lr * sign(g).
    np.testing.assert_allclose(np.abs(step), 1e-4, rtol=1e-3)
    assert np.all(np.sign(step) == np.sign(grads["w"]))


def test_zero_gradients_leave_params_unchanged():
    params = {"w": np.array([1.0, 2.0]), "b": np.array([0.5])}
    state = AdamState.for_params(params)
    snapshot = {k: v.copy() for k, v in params.items()}
    for _ in range(10):
        adam_update(state, params, {k: np.zeros_like(v) for k, v in params.items()})
    for k in params:
        np.testing.assert_array_equal(params[k], snapshot[k])


def scalar_adam_quadratic(theta, lr, steps):
    """Kingma & Ba (2015) Algorithm 1 on f(theta) = theta^2, one float at a
    time, with the same order of floating-point operations as adam_update."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    m = v = 0.0
    trajectory = [theta]
    for t in range(1, steps + 1):
        g = 2.0 * theta
        m = beta1 * m
        m += (1.0 - beta1) * g
        v = beta2 * v
        v += (1.0 - beta2) * g * g
        bc1 = 1.0 - beta1 ** t
        bc2 = 1.0 - beta2 ** t
        theta -= lr * (m / bc1) / (math.sqrt(v / bc2) + eps)
        trajectory.append(theta)
    return trajectory


def test_converges_on_quadratic():
    # f(theta) = theta^2, df = 2*theta, from theta=1 with lr=0.1
    params = {"theta": np.array([1.0])}
    state = AdamState.for_params(params, learning_rate=0.1)
    trajectory = [1.0]
    for _ in range(100):
        grads = {"theta": 2.0 * params["theta"]}
        adam_update(state, params, grads)
        trajectory.append(float(params["theta"][0]))
    np.testing.assert_array_equal(trajectory,
                                  scalar_adam_quadratic(1.0, 0.1, 100))
    theta = np.array(trajectory)
    assert abs(theta[-1]) < 0.05
    # Adam does not make |theta| fall monotonically: with lr=0.1 it
    # overshoots zero and oscillates. It falls strictly until the first
    # sign change, and each stretch between sign changes peaks strictly
    # lower than the one before.
    sign_changes = np.flatnonzero(np.sign(theta[1:]) != np.sign(theta[:-1])) + 1
    assert sign_changes.size > 0
    assert np.all(np.diff(np.abs(theta[:sign_changes[0]])) < 0.0)
    peaks = [np.abs(stretch).max() for stretch in np.split(theta, sign_changes)]
    assert np.all(np.diff(peaks) < 0.0)


def test_shape_mismatch_rejected():
    params = {"w": np.zeros(3)}
    state = AdamState.for_params(params)
    with pytest.raises(ValueError):
        adam_update(state, params, {"w": np.zeros(4)})


def test_shape_mismatch_changes_nothing():
    # The bad gradient comes after a good one in declaration order.
    params = {"w": np.ones(3), "b": np.ones(1)}
    state = AdamState.for_params(params)
    with pytest.raises(ValueError, match=re.escape("{'b': ((2,), (1,))}")):
        adam_update(state, params, {"w": np.ones(3), "b": np.ones(2)})
    assert state.step == 0
    np.testing.assert_array_equal(params["w"], np.ones(3))
    np.testing.assert_array_equal(state.m["w"], np.zeros(3))


def zeros(*shapes):
    """Moments named w and b, of these shapes in that order, all zero."""
    return {key: np.zeros(shape) for key, shape in zip("wb", shapes)}


def assert_nothing_changed(state, params, m, v):
    """The step count is 0, every parameter is all ones, and the moments are ``m`` and ``v``."""
    assert state.step == 0
    for key, p in params.items():
        np.testing.assert_array_equal(p, np.ones(p.shape))
    for moments, expected in ((state.m, m), (state.v, v)):
        assert moments.keys() == expected.keys()
        for key, moment in moments.items():
            np.testing.assert_array_equal(moment, expected[key])


@pytest.mark.parametrize("bad, message", [
    (np.array([1.0 + 1.0j]), r"complex gradient 'b'"),
    ([1.0, 2.0], re.escape("gradients do not fit, name: (given shape, expected shape): "
                           "{'b': ((2,), (1,))}")),
    (np.array([np.nan]), re.escape("gradient 'b' holding NaN or inf at rows [0]")),
], ids=["complex", "list", "nan"])
def test_bad_gradient_changes_nothing(bad, message):
    # The bad gradient follows a good one in declaration order, and the
    # step count, both moments and every parameter stay as they were.
    params = {"w": np.ones(3), "b": np.ones(1)}
    state = AdamState.for_params(params)
    with pytest.raises(ValueError, match=message):
        adam_update(state, params, {"w": np.ones(3), "b": bad})
    assert_nothing_changed(state, params, zeros(3, 1), zeros(3, 1))


@pytest.mark.parametrize("m, v, message", [
    ({}, {}, "moments m do not fit, name: (given shape, expected shape): "
             "{'b': (None, (1,)), 'w': (None, (3,))}"),
    (zeros(3, 1), zeros(3, 2), "moments v do not fit, name: (given shape, expected shape): "
                               "{'b': ((2,), (1,))}"),
    (zeros(3), zeros(3, 1), "moments m do not fit, name: (given shape, expected shape): "
                            "{'b': (None, (1,))}"),
    ({**zeros(3, 1), "c": np.zeros(2)}, zeros(3, 1),
     "moments m do not fit, name: (given shape, expected shape): {'c': ((2,), None)}"),
], ids=["fresh_state", "wrong_shape", "missing_key", "extra_key"])
def test_moments_that_do_not_fit_change_nothing(m, v, message):
    # Such a state used to move the step count to 1 before a KeyError or a
    # broadcast error.
    params = {"w": np.ones(3), "b": np.ones(1)}
    state = AdamState(m=m, v=v)
    kept = ({k: a.copy() for k, a in m.items()}, {k: a.copy() for k, a in v.items()})
    with pytest.raises(ValueError, match=re.escape(message)):
        adam_update(state, params, {"w": np.ones(3), "b": np.ones(1)})
    assert_nothing_changed(state, params, *kept)


def read_only(arr):
    arr.flags.writeable = False
    return arr


@pytest.mark.parametrize("which", ["m", "v"])
@pytest.mark.parametrize("moment", [
    [0.0], np.zeros(1, dtype=np.int64), read_only(np.zeros(1))], ids=["list", "int64", "read_only"])
def test_moment_adam_cannot_write_changes_nothing(which, moment):
    # The step writes each moment in place as float64. Such a moment used to
    # raise TypeError, UFuncTypeError or "output array is read-only" only
    # after the step count had moved to 1 and w to 0.9999.
    params = {"w": np.ones(3), "b": np.ones(1)}
    m, v = zeros(3, 1), zeros(3, 1)
    (m if which == "m" else v)["b"] = moment
    kept = ({k: np.copy(a) for k, a in m.items()}, {k: np.copy(a) for k, a in v.items()})
    state = AdamState(m=m, v=v)
    with pytest.raises(ValueError, match=re.escape(
            f"moments that are not writeable arrays of their parameters' dtypes: {which}['b']")):
        adam_update(state, params, {"w": np.ones(3), "b": np.ones(1)})
    assert_nothing_changed(state, params, *kept)


@pytest.mark.parametrize("bad, names", [
    ({"b": np.ones(1, dtype=np.int64)}, "'b'"),
    ({"b": read_only(np.ones(1))}, "'b'"),
    ({"b": [1.0]}, "'b'"),
    ({"b": np.ones(1, dtype=np.int64), "c": read_only(np.ones(1)), "d": [1.0]}, "'b', 'c', 'd'"),
], ids=["int64", "read_only", "list", "all"])
def test_parameter_adam_cannot_write_changes_nothing(bad, names):
    # The step writes each parameter in place. An int64 parameter used to
    # raise UFuncTypeError, a read-only one "output array is read-only" and
    # a list one AttributeError, the first two only after the step count
    # had moved to 1 and w to 0.9999.
    params = {"w": np.ones(3), **bad}
    kept = {key: np.copy(p) for key, p in params.items()}
    state = AdamState.for_params(params)
    with pytest.raises(ValueError, match=re.escape(
            f"parameters that are not writeable arrays of a floating dtype: {names}")):
        adam_update(state, params, {key: np.ones(np.shape(p)) for key, p in params.items()})
    assert state.step == 0
    for key, p in params.items():
        np.testing.assert_array_equal(p, kept[key], strict=True)
        for moments in (state.m, state.v):
            np.testing.assert_array_equal(moments[key], np.zeros_like(kept[key]), strict=True)


def test_list_gradient_of_the_parameter_shape_is_an_array():
    lists = {"w": np.ones((2, 3))}
    arrays = {"w": np.ones((2, 3))}
    g = [[0.5, -1.0, 2.0], [0.0, 3.0, -0.25]]
    adam_update(AdamState.for_params(lists), lists, {"w": g})
    adam_update(AdamState.for_params(arrays), arrays, {"w": np.array(g)})
    assert lists["w"].tobytes() == arrays["w"].tobytes()


@pytest.mark.parametrize("lr, message", [
    (float("nan"), "learning_rate must be finite, got nan"),
    (float("inf"), "learning_rate must be finite, got inf"),
    (float("-inf"), "learning_rate must be finite, got -inf"),
    (0.0, "learning_rate must be finite and positive, got 0.0"),
    (-1e-4, "learning_rate must be finite and positive, got -0.0001"),
    ("1e-4", "learning_rate must be a number, got '1e-4'"),
    (True, "learning_rate must be a number, got True"),
])
def test_learning_rate_not_finite_positive_changes_nothing(lr, message):
    # A NaN rate used to turn every parameter NaN with no error.
    params = {"w": np.ones(3)}
    state = AdamState.for_params(params, learning_rate=lr)
    with pytest.raises(ValueError, match=re.escape(message)):
        adam_update(state, params, {"w": np.ones(3)})
    assert state.step == 0
    np.testing.assert_array_equal(params["w"], np.ones(3))
    np.testing.assert_array_equal(state.m["w"], np.zeros(3))


@pytest.mark.parametrize("step, message", [
    # Step -1 made t = 0 and both bias corrections 0: every parameter NaN.
    (-1, "step must be a nonnegative integer, got -1"),
    (2.5, "step must be an integer, got 2.5"),
    (True, "step must be an integer, got True"),
], ids=["negative", "fraction", "bool"])
def test_step_not_a_nonnegative_integer_changes_nothing(step, message):
    params = {"w": np.ones(3)}
    state = AdamState.for_params(params)
    state.step = step
    with pytest.raises(ValueError, match=re.escape(message)):
        adam_update(state, params, {"w": np.ones(3)})
    assert state.step is step
    np.testing.assert_array_equal(params["w"], np.ones(3))
    np.testing.assert_array_equal(state.m["w"], np.zeros(3))


@pytest.mark.parametrize("grads, message", [
    ({"w": np.zeros(3)}, re.escape("gradients do not fit, name: (given shape, expected shape): "
                                   "{'b': (None, (1,))}")),
    ({"w": np.zeros(3), "b": np.zeros(1), "head.b": np.zeros(2)},
     re.escape("gradients do not fit, name: (given shape, expected shape): "
               "{'head.b': ((2,), None)}")),
], ids=["missing", "extra"])
def test_gradient_keys_must_match_params(grads, message):
    params = {"w": np.ones(3), "b": np.ones(1)}
    state = AdamState.for_params(params)
    with pytest.raises(ValueError, match=message):
        adam_update(state, params, grads)
    assert state.step == 0
    np.testing.assert_array_equal(params["w"], np.ones(3))


def test_update_is_in_place():
    params = {"w": np.ones(2)}
    state = AdamState.for_params(params)
    out = adam_update(state, params, {"w": np.ones(2)})
    assert out is params
    assert not np.array_equal(params["w"], np.ones(2))


def test_in_place_step_equals_the_documented_expression():
    # Parameters of several shapes through 5 steps, against the update
    # written out as the module docstring states it, bit for bit.
    rng = np.random.default_rng(11)
    shapes = {"w": (7, 5), "b": (5,), "k": (2, 3, 4)}
    params = {k: rng.standard_normal(shape) for k, shape in shapes.items()}
    expected = {k: p.copy() for k, p in params.items()}
    state = AdamState.for_params(params, learning_rate=1e-2)
    m = {k: np.zeros(shape) for k, shape in shapes.items()}
    v = {k: np.zeros(shape) for k, shape in shapes.items()}
    for t in range(1, 6):
        grads = {k: rng.standard_normal(shape) for k, shape in shapes.items()}
        adam_update(state, params, grads)
        for k, g in grads.items():
            m[k] = 0.9 * m[k]
            m[k] += (1.0 - 0.9) * g
            v[k] = 0.999 * v[k]
            v[k] += (1.0 - 0.999) * g * g
            expected[k] -= 1e-2 * (m[k] / (1.0 - 0.9 ** t)) / (
                np.sqrt(v[k] / (1.0 - 0.999 ** t)) + 1e-8)
    for k in shapes:
        assert params[k].tobytes() == expected[k].tobytes()
        assert state.m[k].tobytes() == m[k].tobytes()
        assert state.v[k].tobytes() == v[k].tobytes()
