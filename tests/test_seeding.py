from hypothesis import assume, given
from hypothesis import strategies as st

from mrfmap.seeding import derive_seed

masters = st.integers(min_value=-2**70, max_value=2**70)


@given(master=masters, stream=st.text())
def test_deterministic_and_63_bit(master, stream):
    seed = derive_seed(master, stream)
    assert seed == derive_seed(master, stream)
    assert 0 <= seed < 2**63


@given(m1=masters, s1=st.text(), m2=masters, s2=st.text())
def test_distinct_streams_give_distinct_seeds(m1, s1, m2, s2):
    assume((m1, s1) != (m2, s2))
    assert derive_seed(m1, s1) != derive_seed(m2, s2)


def test_value_is_pinned():
    # Saved datasets and benchmark inputs are reproduced from these seeds.
    assert derive_seed(0, "x") == 7975875460398960091
    assert derive_seed(2018, "dict-build.grid") == 8371651374120469052
