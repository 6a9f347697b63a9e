import dataclasses
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import time_limit
from mrfmap.nn.checkpoint import ModelCheckpoint, load_checkpoint, save_checkpoint
from mrfmap.nn.models import ModelSpec, init_params
from test_gradients import TOY_SPECS
from test_models import NONFINITE_SPECS, SINGLE_SPECS

SPECS = {
    "simple": ModelSpec("rnn_regressor", input_len=12, cell_kind="simple",
                        hidden_dim=4, chunk_size=3),
    "gru": ModelSpec("rnn_regressor", input_len=12, cell_kind="gru",
                     hidden_dim=4, chunk_size=3),
    "lstm": ModelSpec("rnn_regressor", input_len=12, cell_kind="lstm",
                      hidden_dim=4, chunk_size=3),
    "ann": ModelSpec("ann", input_len=12, ann_hidden=(5, 3)),
    "cnn1d": ModelSpec("cnn1d", input_len=40, cnn_channels=(2, 3), cnn_kernel=3),
}

finite = st.floats(min_value=1.0, max_value=1e5)
json_values = st.one_of(st.integers(), st.text(max_size=8),
                        st.floats(allow_nan=False, allow_infinity=False))


@pytest.mark.parametrize("name", SPECS)
@settings(max_examples=20, deadline=None)
@given(param_seed=st.integers(0, 2**32 - 1),
       scale=st.floats(min_value=1e-3, max_value=1e3),
       t1_max=finite, t2_max=finite, seed=st.integers(0, 2**63 - 1),
       metadata=st.dictionaries(st.text(max_size=8), json_values, max_size=3))
def test_save_load_save_is_byte_identical(name, param_seed, scale, t1_max, t2_max,
                                          seed, metadata):
    spec = SPECS[name]
    rng = np.random.default_rng(param_seed)
    params = {k: scale * rng.standard_normal(v.shape)
              for k, v in init_params(spec, seed=0).items()}
    ckpt = ModelCheckpoint(spec, params, t1_max, t2_max, seed, metadata)
    with tempfile.TemporaryDirectory() as tmp:
        first = save_checkpoint(ckpt, Path(tmp) / "a.ckpt")
        loaded = load_checkpoint(first)
        second = save_checkpoint(loaded, Path(tmp) / "b.ckpt")
        assert second.read_bytes() == first.read_bytes()
    assert loaded.spec == spec
    assert (loaded.t1_max, loaded.t2_max, loaded.seed) == (t1_max, t2_max, seed)
    assert loaded.metadata == metadata
    assert list(loaded.params) == list(params)
    for k, v in params.items():
        assert loaded.params[k].tobytes() == v.astype(np.float32).astype(np.float64).tobytes()


def gru_checkpoint():
    return ModelCheckpoint(SPECS["gru"], init_params(SPECS["gru"], seed=1),
                           4000.0, 500.0, 0)


def saved_gru(tmp_path):
    return save_checkpoint(gru_checkpoint(), tmp_path / "m.ckpt")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_parameters_rejected_by_name(tmp_path, bad):
    # Entry 1 of the first tensor and the last entry of the last one, written
    # over the float32 blob of a finite checkpoint.
    path = saved_gru(tmp_path)
    header, sep, blob = path.read_bytes().partition(b"\n---PARAMS---\n")
    word = np.array([bad], dtype="<f4").tobytes()
    path.write_bytes(header + sep + blob[:4] + word + blob[8:-4] + word)
    names = list(init_params(SPECS["gru"], seed=0))
    with pytest.raises(ValueError, match="NaN or inf") as err:
        load_checkpoint(path)
    assert str([names[0], names[-1]]) in str(err.value)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_save_refuses_nonfinite_parameters_by_name(tmp_path, bad):
    ckpt = gru_checkpoint()
    names = list(ckpt.params)
    ckpt.params[names[0]].flat[1] = bad
    ckpt.params[names[-1]].flat[-1] = bad
    with pytest.raises(ValueError, match="NaN or inf") as err:
        save_checkpoint(ckpt, tmp_path / "m.ckpt")
    assert str([names[0], names[-1]]) in str(err.value)
    assert list(tmp_path.iterdir()) == []


def test_missing_delimiter_rejected(tmp_path):
    path = saved_gru(tmp_path)
    path.write_bytes(path.read_bytes().replace(b"---PARAMS---\n", b"---PARAMZ---\n"))
    with pytest.raises(ValueError, match="delimiter"):
        load_checkpoint(path)


@pytest.mark.parametrize("delta", [-4, 4])
def test_blob_one_float_short_or_long_rejected(tmp_path, delta):
    path = saved_gru(tmp_path)
    raw = path.read_bytes()
    path.write_bytes(raw[:delta] if delta < 0 else raw + b"\0" * delta)
    with pytest.raises(ValueError, match="parameter blob has"):
        load_checkpoint(path)


def refused_save(tmp_path, params):
    """The error ``save_checkpoint`` raises for these GRU parameters; no file is left."""
    path = tmp_path / "m.ckpt"
    with pytest.raises(ValueError) as err:
        save_checkpoint(ModelCheckpoint(SPECS["gru"], params, 4000.0, 500.0, 0), path)
    assert list(tmp_path.iterdir()) == []
    return str(err.value).removeprefix(f"{path}: parameters do not fit the "
                                       "rnn_regressor spec, name: (given shape, spec shape): ")


def test_shape_disagreeing_with_spec_rejected(tmp_path):
    # Transposed: the size still fits, but the spec implies another shape.
    params = init_params(SPECS["gru"], seed=0)
    params["cell.w"] = params["cell.w"].T.copy()
    assert refused_save(tmp_path, params) == "{'cell.w': ((12, 3), (3, 12))}"


def test_save_refuses_a_missing_or_an_extra_tensor(tmp_path):
    params = init_params(SPECS["gru"], seed=0)
    del params["head.b"]
    assert refused_save(tmp_path, params) == "{'head.b': (None, (2,))}"
    params = init_params(SPECS["gru"], seed=0)
    params["extra"] = np.zeros(3)
    assert refused_save(tmp_path, params) == "{'extra': ((3,), None)}"


def rewrite_header(path, edit):
    """Apply ``edit`` to the JSON header of the checkpoint at ``path``."""
    header, sep, blob = path.read_bytes().partition(b"\n---PARAMS---\n")
    meta = json.loads(header)
    edit(meta)
    path.write_bytes(json.dumps(meta, sort_keys=True).encode() + sep + blob)


def test_header_holds_no_layout(tmp_path):
    header = json.loads(saved_gru(tmp_path).read_bytes().partition(b"\n")[0])
    assert sorted(header) == ["label_scaling", "metadata", "seed", "spec"]


@pytest.mark.parametrize("name", SPECS)
def test_header_with_old_layout_keys_loads_the_same(tmp_path, name):
    # Older files also listed the layout; loading ignores it.
    spec = SPECS[name]
    params = init_params(spec, seed=1)
    path = save_checkpoint(ModelCheckpoint(spec, params, 4000.0, 500.0, 7, {"a": 1}),
                           tmp_path / "m.ckpt")
    fresh = load_checkpoint(path)
    rewrite_header(path, lambda meta: meta.update(
        param_order=list(params), param_shapes={k: list(v.shape) for k, v in params.items()}))
    old = load_checkpoint(path)
    assert (old.spec, old.t1_max, old.t2_max, old.seed, old.metadata) == (
        fresh.spec, fresh.t1_max, fresh.t2_max, fresh.seed, fresh.metadata)
    assert list(old.params) == list(fresh.params) == list(params)
    for k in params:
        assert old.params[k].tobytes() == fresh.params[k].tobytes()


@pytest.mark.parametrize("hidden_dim", [3200, 10**6])
def test_huge_spec_refused_before_any_parameter_is_made(tmp_path, hidden_dim):
    # A 4-unit GRU's blob under a header claiming a far larger cell: the
    # size check reads the layout without drawing it, so neither the QR
    # decompositions of orthogonal blocks nor a terabyte array come first.
    path = saved_gru(tmp_path)
    rewrite_header(path, lambda meta: meta["spec"].update(hidden_dim=hidden_dim))
    with time_limit(3), pytest.raises(ValueError, match=re.escape(
            f"{path}: parameter blob has")):
        load_checkpoint(path)


@pytest.mark.parametrize("key", ["spec", "label_scaling", "seed"])
def test_header_missing_key_rejected(tmp_path, key):
    path = saved_gru(tmp_path)
    rewrite_header(path, lambda meta: meta.pop(key))
    with pytest.raises(ValueError, match=re.escape(f"{path}: header lacks ['{key}']")):
        load_checkpoint(path)


@pytest.mark.parametrize("key", ["t1_max", "t2_max"])
def test_label_scaling_missing_key_rejected(tmp_path, key):
    path = saved_gru(tmp_path)
    rewrite_header(path, lambda meta: meta["label_scaling"].pop(key))
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: label_scaling lacks ['{key}']")):
        load_checkpoint(path)


def test_unknown_spec_key_rejected(tmp_path):
    # A misspelled key must not fall back to the field's default.
    path = saved_gru(tmp_path)
    rewrite_header(path, lambda meta: meta["spec"].update(hidden_dimm=8))
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: unknown spec keys ['hidden_dimm']")):
        load_checkpoint(path)


@pytest.mark.parametrize("key", ["spec", "label_scaling", "metadata"])
@pytest.mark.parametrize("value", [[1, 2], 3, "x", None])
def test_header_value_that_is_no_object_rejected(tmp_path, key, value):
    path = saved_gru(tmp_path)
    rewrite_header(path, lambda meta: meta.update({key: value}))
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: {key} must be a JSON object, got {type(value).__name__}")):
        load_checkpoint(path)


@pytest.mark.parametrize("header, message", [
    (b"[1, 2]", "header must be a JSON object, got list"),
    (b"{'seed': 1}", "header is not JSON"),
    (b"\xff{}", "header is not JSON")])
def test_header_that_is_no_json_object_rejected(tmp_path, header, message):
    path = saved_gru(tmp_path)
    _, sep, blob = path.read_bytes().partition(b"\n---PARAMS---\n")
    path.write_bytes(header + sep + blob)
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        load_checkpoint(path)


@pytest.mark.parametrize("key, value", [
    ("input_len", "12"), ("hidden_dim", 2.5), ("hidden_dim", -1), ("chunk_size", 0),
    ("cnn_kernel", True), ("ann_hidden", 5), ("cnn_channels", [4, "8"])])
def test_spec_value_of_wrong_type_or_range_rejected(tmp_path, key, value):
    # These used to raise TypeError or ZeroDivisionError from inside the spec.
    path = saved_gru(tmp_path)
    rewrite_header(path, lambda meta: meta["spec"].update({key: value}))
    with pytest.raises(ValueError, match=re.escape(f"{path}: {key} must be")):
        load_checkpoint(path)


def scaling_error(key, value):
    """The start of the refusal of ``value`` as label scaling ``key``."""
    if value is None or isinstance(value, (bool, str)):
        return f"{key} must be a number, got {value!r}"
    return f"label scaling must be finite and positive, got {{'{key}': "


BAD_SCALING = [None, float("nan"), float("inf"), -4000.0, 0.0, "4000", True]


@pytest.mark.parametrize("key", ["t1_max", "t2_max"])
@pytest.mark.parametrize("value", BAD_SCALING)
def test_label_scaling_not_finite_positive_rejected(tmp_path, key, value):
    path = saved_gru(tmp_path)
    rewrite_header(path, lambda meta: meta["label_scaling"].update({key: value}))
    with pytest.raises(ValueError, match=re.escape(f"{path}: {scaling_error(key, value)}")):
        load_checkpoint(path)


@pytest.mark.parametrize("key", ["t1_max", "t2_max"])
@pytest.mark.parametrize("value", BAD_SCALING)
def test_save_refuses_scaling_not_finite_positive(tmp_path, key, value):
    # Such a checkpoint cannot be made, so no save starts.
    with pytest.raises(ValueError) as err:
        save_checkpoint(dataclasses.replace(gru_checkpoint(), **{key: value}),
                        tmp_path / "m.ckpt")
    assert str(err.value).startswith(scaling_error(key, value))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("key", ["t1_max", "t2_max"])
def test_label_scaling_too_large_for_a_float_rejected(tmp_path, key):
    # JSON reads 10**400 as an int, which float() cannot hold.
    path = saved_gru(tmp_path)
    rewrite_header(path, lambda meta: meta["label_scaling"].update({key: 10**400}))
    with pytest.raises(ValueError, match=re.escape(f"{path}: {key} is too large for a float")):
        load_checkpoint(path)


@pytest.mark.parametrize("name", SPECS)
def test_numpy_numbers_save_as_python_numbers(tmp_path, name):
    # NumPy scalars used to pass ModelSpec and then make the save raise
    # TypeError, after it had truncated the file.
    plain = SPECS[name]
    spec = ModelSpec(**{
        key: [np.int64(x) for x in value] if isinstance(value, list)
        else np.int32(value) if isinstance(value, int) else value
        for key, value in plain.to_json_dict().items()})
    params = init_params(plain, seed=1)
    as_numpy = ModelCheckpoint(spec, params, np.float32(4000.0), np.float32(437.5),
                               np.int64(7), {"steps": 3})
    as_python = ModelCheckpoint(plain, params, 4000.0, 437.5, 7, {"steps": 3})
    first = save_checkpoint(as_numpy, tmp_path / "numpy.ckpt")
    assert first.read_bytes() == save_checkpoint(as_python, tmp_path / "python.ckpt").read_bytes()
    assert all(type(x) is int for x in (spec.input_len, *spec.ann_hidden, *spec.cnn_channels))
    loaded = load_checkpoint(first)
    assert loaded.spec == spec == plain
    assert (loaded.t1_max, loaded.t2_max, loaded.seed, loaded.metadata) == (
        4000.0, 437.5, 7, {"steps": 3})
    assert (type(loaded.t1_max), type(loaded.seed)) == (float, int)


def test_failed_save_leaves_the_file_as_it_was(tmp_path):
    path = saved_gru(tmp_path)
    before = path.read_bytes()
    ckpt = dataclasses.replace(gru_checkpoint(), metadata={"loss": np.float32(0.5)})
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: header is not JSON: Object of type float32")):
        save_checkpoint(ckpt, path)
    assert path.read_bytes() == before


@pytest.mark.parametrize("value", [1.7, 1.0, "1", None, True])
def test_seed_that_is_no_integer_rejected(tmp_path, value):
    # 1.7 used to load as seed 1.
    path = saved_gru(tmp_path)
    rewrite_header(path, lambda meta: meta.update(seed=value))
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: seed must be an integer, got {value!r}")):
        load_checkpoint(path)


@pytest.mark.parametrize("field, value, message", [
    ("seed", 1.7, "seed must be an integer, got 1.7"),
    ("metadata", [1], "metadata must be a JSON object, got list")])
def test_save_refuses_a_header_load_would_reject(tmp_path, field, value, message):
    # Such a checkpoint cannot be made, so no save starts.
    with pytest.raises(ValueError) as err:
        save_checkpoint(dataclasses.replace(gru_checkpoint(), **{field: value}),
                        tmp_path / "m.ckpt")
    assert str(err.value).startswith(message)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("field, value, message", [
    ("seed", 1.7, "seed must be an integer, got 1.7"),
    ("metadata", [1], "metadata must be a JSON object, got list"),
    ("t1_max", float("nan"), "label scaling must be finite and positive, got {'t1_max': nan}"),
])
def test_constructor_refuses_what_load_refuses(field, value, message):
    # Each used to be made, and only a save or a load refused it.
    fields = {"spec": SPECS["gru"], "params": init_params(SPECS["gru"], seed=1),
              "t1_max": 4000.0, "t2_max": 500.0, "seed": 0, field: value}
    with pytest.raises(ValueError, match=re.escape(message)):
        ModelCheckpoint(**fields)


@pytest.mark.parametrize("spec, message", [
    (None, "spec must be a ModelSpec, got NoneType"),
    (SPECS["gru"].to_json_dict(), "spec must be a ModelSpec, got dict")], ids=["none", "json"])
def test_constructor_refuses_a_spec_of_another_type(spec, message):
    # None used to be made, and the save then raised AttributeError.
    with pytest.raises(ValueError, match=re.escape(message)):
        ModelCheckpoint(spec, init_params(SPECS["gru"], seed=1), 1.0, 1.0, 0)


@pytest.mark.parametrize("params, message", [
    (None, "params must be a dict of arrays, got NoneType"),
    ([np.zeros(3)], "params must be a dict of arrays, got list"),
    ({"cell.w": [1.0]}, "params must be a dict of arrays by name, got {'cell.w': 'list'}"),
    ({0: np.zeros(3)}, "params must be a dict of arrays by name, got {0: 'ndarray'}")],
    ids=["none", "list", "list_value", "int_key"])
def test_constructor_refuses_params_that_are_no_dict_of_arrays(params, message):
    # None used to be made, and the save then raised AttributeError.
    with pytest.raises(ValueError, match=re.escape(message)):
        ModelCheckpoint(SPECS["gru"], params, 1.0, 1.0, 0)


def test_checkpoint_fields_cannot_be_reassigned():
    # What the constructor checked stays checked, so a save need not check
    # it again.
    ckpt = gru_checkpoint()
    with pytest.raises(dataclasses.FrozenInstanceError):
        ckpt.seed = 1.7


ALL_SPECS = {
    **{f"checkpoint-{k}": v for k, v in SPECS.items()},
    **{f"gradients-{k}": v for k, v in TOY_SPECS.items()},
    **{f"single-{k}": v for k, v in SINGLE_SPECS.items()},
    **{f"nonfinite-{k}": v for k, v in NONFINITE_SPECS.items()},
    **{f"default-{kind}": ModelSpec(kind) for kind in ("rnn_regressor", "ann", "cnn1d")},
}


@pytest.mark.parametrize("name", ALL_SPECS)
def test_spec_json_round_trip(name):
    spec = ALL_SPECS[name]
    assert ModelSpec.from_json_dict(json.loads(json.dumps(spec.to_json_dict()))) == spec
