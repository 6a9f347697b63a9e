import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrfmap.nn.checkpoint import ModelCheckpoint, load_checkpoint, save_checkpoint
from mrfmap.nn.models import ModelSpec, init_params

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


def saved_gru(tmp_path, **changes):
    """A saved GRU checkpoint whose parameters are updated from ``changes``."""
    spec = SPECS["gru"]
    params = init_params(spec, seed=1)
    for name, value in changes.items():
        params[name] = np.asarray(value, dtype=np.float64)
    return save_checkpoint(ModelCheckpoint(spec, params, 4000.0, 500.0, 0),
                           tmp_path / "m.ckpt")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_parameters_rejected_by_name(tmp_path, bad):
    good = init_params(SPECS["gru"], seed=1)
    names = list(good)
    first, last = good[names[0]].copy(), good[names[-1]].copy()
    first.flat[1] = bad
    last.flat[-1] = bad
    path = saved_gru(tmp_path, **{names[0]: first, names[-1]: last})
    with pytest.raises(ValueError, match="NaN or inf") as err:
        load_checkpoint(path)
    assert str([names[0], names[-1]]) in str(err.value)


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


def test_shape_disagreeing_with_spec_rejected(tmp_path):
    # Transposed: the blob size still fits, but the spec implies another shape.
    path = saved_gru(tmp_path)
    header, sep, blob = path.read_bytes().partition(b"\n---PARAMS---\n")
    meta = json.loads(header)
    name = next(n for n, s in meta["param_shapes"].items() if len(s) == 2 and s[0] != s[1])
    meta["param_shapes"][name] = meta["param_shapes"][name][::-1]
    path.write_bytes(json.dumps(meta, sort_keys=True).encode() + sep + blob)
    with pytest.raises(ValueError, match=f"{name} has shape"):
        load_checkpoint(path)
