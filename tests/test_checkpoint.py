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
