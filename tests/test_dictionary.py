import json
import multiprocessing
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import time_limit
from mrfmap import dictionary
from mrfmap.dictionary import (
    Dictionary,
    GridSpec,
    build_dictionary,
    expand_grid,
    load_dictionary,
    match,
    match_batch,
    save_dictionary,
)
from mrfmap.epg import simulate_fingerprints
from mrfmap.schedule import default_schedule


@pytest.fixture(scope="module")
def toy_dictionary():
    spec = GridSpec(
        t1_segments=((200.0, 1000.0, 200.0),),
        t2_segments=((50.0, 250.0, 50.0),),
    )
    schedule = default_schedule(80)
    return build_dictionary(spec, schedule), schedule


# The map benchmark's grid: 1020 atoms, far more than RANK, so matching
# takes the low-rank path. The toy grid's 24 atoms are below RANK.
MAP_GRID = GridSpec(t1_segments=((100.0, 1000.0, 50.0), (1000.0, 4000.0, 150.0)),
                    t2_segments=((5.0, 50.0, 5.0), (50.0, 500.0, 25.0)))


@pytest.fixture(scope="module")
def map_dictionary():
    return build_dictionary(MAP_GRID, default_schedule(64))


def numbered_grid(m):
    """A grid of exactly m pairs, (1, 1) to (m, 1) ms, for hand-made atoms."""
    return GridSpec(t1_segments=((1.0, float(m), 1.0),), t2_segments=((1.0, 1.0, 1.0),))


# 392 atoms: 7 batches of BATCH_SIZE = 64, the last one short (8 atoms), so
# at 1, 2 and 3 CPUs every process simulates several batches. The grid
# holds every pair of the toy grid.
SPLIT_GRID = GridSpec(t1_segments=((100.0, 4000.0, 100.0),),
                      t2_segments=((25.0, 250.0, 25.0),))


def brute_force_pairs(t1_segments, t2_segments):
    """Independent enumeration oracle using integer segment arithmetic."""
    def seg_values(segments):
        vals = set()
        for start, stop, step in segments:
            k = 0
            while start + k * step <= stop + 1e-9:
                vals.add(round(start + k * step, 9))
                k += 1
        return sorted(v for v in vals if v > 0)

    t1s = seg_values(t1_segments)
    t2s = seg_values(t2_segments)
    return [(t1, t2) for t1 in t1s for t2 in t2s if t2 <= t1]


def naive_match(dictionary, query):
    """O(M*N) double-loop reference matcher."""
    q = np.asarray(query, dtype=np.float64)
    q = q / np.linalg.norm(q)
    best_idx, best_score = 0, -np.inf
    for i in range(dictionary.n_atoms):
        s = 0.0
        row = dictionary.atoms[i]
        for j in range(dictionary.n_samples):
            s += row[j] * q[j]
        if s > best_score:
            best_idx, best_score = i, s
    return dictionary.labels[best_idx], best_score


def one_call_reference(spec, schedule):
    """Atoms from one simulate_fingerprints call over the whole grid."""
    atoms = np.abs(simulate_fingerprints(expand_grid(spec), schedule))
    atoms /= np.linalg.norm(atoms, axis=1, keepdims=True)
    return atoms.astype(np.float32).astype(np.float64)


class TestExpandGrid:
    def test_small_enumeration(self):
        spec = GridSpec(t1_segments=((100.0, 300.0, 100.0),),
                        t2_segments=((50.0, 100.0, 50.0),))
        pairs = {(p.t1_ms, p.t2_ms) for p in expand_grid(spec)}
        assert pairs == {(100, 50), (100, 100), (200, 50), (200, 100),
                         (300, 50), (300, 100)}

    def test_zero_removal_and_filter(self):
        spec = GridSpec(t1_segments=((0.0, 2.0, 2.0),),
                        t2_segments=((0.0, 2.0, 1.0),))
        pairs = {(p.t1_ms, p.t2_ms) for p in expand_grid(spec)}
        assert pairs == {(2, 1), (2, 2)}

    def test_zero_only_values_dropped(self):
        spec = GridSpec(t1_segments=((0.0, 2.0, 2.0),),
                        t2_segments=((0.0, 1.0, 1.0),))
        pairs = {(p.t1_ms, p.t2_ms) for p in expand_grid(spec)}
        assert pairs == {(2, 1)}

    def test_paper_grid_matches_enumeration_oracle(self):
        spec = GridSpec.paper_grid()
        # Raw per-segment T1 counts before dedup/zero-removal.
        raw = [int(round((stop - start) / step)) + 1
               for start, stop, step in spec.t1_segments]
        assert raw == [251, 101, 101, 41]
        expected = brute_force_pairs(spec.t1_segments, spec.t2_segments)
        got = [(p.t1_ms, p.t2_ms) for p in expand_grid(spec)]
        assert got == expected

    def test_lexicographic_order(self):
        spec = GridSpec(t1_segments=((100.0, 400.0, 100.0),),
                        t2_segments=((20.0, 60.0, 20.0),))
        pairs = [(p.t1_ms, p.t2_ms) for p in expand_grid(spec)]
        assert pairs == sorted(pairs)

    def test_empty_after_filter_is_error(self):
        spec = GridSpec(t1_segments=((0.0, 0.0, 1.0),),
                        t2_segments=((10.0, 20.0, 10.0),))
        with pytest.raises(ValueError):
            expand_grid(spec)

    def test_invalid_segment_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(t1_segments=((100.0, 50.0, 10.0),), t2_segments=((1, 2, 1),))
        with pytest.raises(ValueError):
            GridSpec(t1_segments=((0.0, 10.0, 0.0),), t2_segments=((1, 2, 1),))

    def test_bool_rejected_numpy_float_accepted(self):
        with pytest.raises(ValueError, match="t1_segments must be a list of"):
            GridSpec(t1_segments=((True, 900.0, 300.0),), t2_segments=((1, 2, 1),))
        spec = GridSpec(t1_segments=((np.float64(300.0), np.float32(900.0), 300),),
                        t2_segments=((1, 2, 1),))
        assert spec.t1_segments == ((300.0, 900.0, 300.0),)
        assert all(type(x) is float for seg in spec.t1_segments for x in seg)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("position", [0, 1, 2])
    @pytest.mark.parametrize("axis", ["t1_segments", "t2_segments"])
    def test_nonfinite_segment_rejected(self, axis, position, bad):
        segment = [100.0, 500.0, 10.0]
        segment[position] = bad
        valid = ((10.0, 50.0, 10.0),)
        segments = {"t1_segments": valid, "t2_segments": valid}
        segments[axis] = valid + (tuple(segment),)
        with pytest.raises(ValueError, match=re.escape(f"finite, got {tuple(segment)}")):
            GridSpec(**segments)


class TestBuildDictionary:
    def test_rows_normalized(self, toy_dictionary):
        d, _ = toy_dictionary
        norms = np.linalg.norm(d.atoms, axis=1)
        assert np.all(np.abs(norms - 1.0) < 1e-6)

    def test_labels_physical(self, toy_dictionary):
        d, _ = toy_dictionary
        for p in d.labels:
            assert p.t2_ms <= p.t1_ms and p.t1_ms > 0 and p.t2_ms > 0

    def test_deterministic_rebuild(self, toy_dictionary, tmp_path):
        d, schedule = toy_dictionary
        d2 = build_dictionary(d.grid, schedule)
        p1 = save_dictionary(d, tmp_path / "a")[0]
        p2 = save_dictionary(d2, tmp_path / "b")[0]
        assert p1.read_bytes() == p2.read_bytes()

    def test_resimulation_spot_check(self, toy_dictionary):
        d, schedule = toy_dictionary
        rng = np.random.default_rng(5)
        for i in rng.integers(0, d.n_atoms, size=10):
            mag = np.abs(simulate_fingerprints([d.labels[i]], schedule)[0])
            expected = mag / np.linalg.norm(mag)
            # Rows are quantized to float32 at build time.
            np.testing.assert_allclose(d.atoms[i], expected, atol=1e-6)

    def test_batching_does_not_change_atoms(self, toy_dictionary, monkeypatch):
        # The toy grid is one batch per process; in the split grid its
        # atoms sit in several batches of other atoms.
        d, schedule = toy_dictionary
        monkeypatch.setattr(dictionary, "available_cpus", lambda: 1)
        split = build_dictionary(SPLIT_GRID, schedule)
        assert dictionary.build_plan(split.n_atoms) == (64, 1)
        rows = [split.labels.index(label) for label in d.labels]
        assert split.atoms[rows].tobytes() == d.atoms.tobytes()

    # grid None is the 24-atom toy grid: one batch per process at the
    # default BATCH_SIZE, several at 3 and 7 (7 does not divide 24). The
    # split grid gives every process several batches at the default size.
    @pytest.mark.parametrize("batch_size, grid", [
        (64, None), (3, None), (7, None), pytest.param(64, SPLIT_GRID, id="64-split"),
    ])
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_atoms_equal_one_call_reference(self, toy_dictionary, monkeypatch,
                                            pools, cpus, batch_size, grid):
        d, schedule = toy_dictionary
        spec = d.grid if grid is None else grid
        monkeypatch.setattr(dictionary, "available_cpus", lambda: cpus)
        monkeypatch.setattr(dictionary, "BATCH_SIZE", batch_size)
        built = build_dictionary(spec, schedule)
        expected = one_call_reference(spec, schedule)
        assert built.atoms.tobytes() == expected.tobytes()
        assert built.labels == expand_grid(spec)
        assert pools == ([cpus - 1] if cpus > 1 else [])

    @pytest.mark.parametrize("n_atoms, batch_size, cpus, plan", [
        (36, 64, 2, (18, 2)),
        (114_650, 64, 2, (64, 2)),
        (24, 64, 1, (24, 1)),
        (5, 64, 4, (2, 3)),
        (1, 64, 8, (1, 1)),
    ])
    def test_build_plan_split_rule(self, monkeypatch, n_atoms, batch_size, cpus, plan):
        monkeypatch.setattr(dictionary, "available_cpus", lambda: cpus)
        assert dictionary.BATCH_SIZE == batch_size
        assert dictionary.build_plan(n_atoms) == plan

    # T1 = 200 ms lies in the first batch, which the calling process
    # simulates; T1 = 1000 ms lies in the last, which a worker simulates.
    @pytest.mark.parametrize("bad_t1", [200.0, 1000.0])
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_simulation_error_propagates(self, toy_dictionary, monkeypatch,
                                         cpus, bad_t1):
        d, schedule = toy_dictionary
        real = dictionary.simulate_fingerprints

        def failing(params, sched):
            if any(p.t1_ms == bad_t1 for p in params):
                raise RuntimeError(f"no signal for T1={bad_t1}")
            return real(params, sched)

        monkeypatch.setattr(dictionary, "available_cpus", lambda: cpus)
        monkeypatch.setattr(dictionary, "simulate_fingerprints", failing)
        with time_limit(60), pytest.raises(RuntimeError, match=f"T1={bad_t1}"):
            build_dictionary(d.grid, schedule)
        assert multiprocessing.active_children() == []


class TestMatch:
    def test_self_match(self, toy_dictionary):
        d, schedule = toy_dictionary
        raw = np.abs(simulate_fingerprints([d.labels[7]], schedule)[0])
        label, score = match(d, raw)
        assert label == d.labels[7]
        assert score >= 1.0 - 1e-6

    def test_scale_invariance(self, toy_dictionary):
        d, _ = toy_dictionary
        q = d.atoms[3] * 1.7 + 0.0
        l1, s1 = match(d, q)
        l2, s2 = match(d, 3.7 * q)
        assert l1 == l2
        assert abs(s1 - s2) < 1e-9

    def test_matches_naive_reference_on_noisy_queries(self, toy_dictionary):
        d, _ = toy_dictionary
        rng = np.random.default_rng(42)
        for _ in range(100):
            base = d.atoms[rng.integers(0, d.n_atoms)]
            noisy = base + rng.normal(0.0, 0.01 * base.max(), size=base.size)
            got_label, got_score = match(d, noisy)
            ref_label, ref_score = naive_match(d, noisy)
            assert got_label == ref_label
            assert abs(got_score - ref_score) < 1e-9

    def test_zero_query_rejected(self, toy_dictionary):
        d, _ = toy_dictionary
        with pytest.raises(ValueError):
            match(d, np.zeros(d.n_samples))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_query_rejected(self, toy_dictionary, bad):
        d, _ = toy_dictionary
        q = d.atoms[2].copy()
        q[5] = bad
        with pytest.raises(ValueError, match="NaN"):
            match(d, q)

    def test_length_mismatch_rejected(self, toy_dictionary):
        d, _ = toy_dictionary
        with pytest.raises(ValueError, match="length"):
            match(d, np.ones(d.n_samples + 3))
        with pytest.raises(ValueError, match="length"):
            match(d, d.atoms[:1])  # a (1, N) row matrix is match_batch's input


class TestMatchBatch:
    def test_single_query_equals_match(self, toy_dictionary):
        d, _ = toy_dictionary
        q = d.atoms[4] + 0.001
        (label_b, score_b), = match_batch(d, q[None, :])
        label_s, score_s = match(d, q)
        assert label_b == label_s and score_b == score_s

    def test_permutation_equivariance(self, toy_dictionary):
        d, _ = toy_dictionary
        rng = np.random.default_rng(9)
        queries = d.atoms[:8] + rng.normal(0, 0.005, size=(8, d.n_samples))
        perm = rng.permutation(8)
        out = match_batch(d, queries)
        out_perm = match_batch(d, queries[perm])
        for k, p in enumerate(perm):
            assert out_perm[k] == out[p]

    def test_self_match_sweep(self, toy_dictionary):
        d, _ = toy_dictionary
        results = match_batch(d, d.atoms)
        for (label, score), expected in zip(results, d.labels):
            assert label == expected
            assert score >= 1.0 - 1e-6

    def test_zero_rows_reported_per_query(self, toy_dictionary):
        d, _ = toy_dictionary
        queries = np.ones((4, d.n_samples))
        queries[1] = 0.0
        queries[3] = 0.0
        with pytest.raises(ValueError, match=r"\[1, 3\]"):
            match_batch(d, queries)

    def test_nonfinite_rows_reported_per_query(self, toy_dictionary):
        d, _ = toy_dictionary
        queries = d.atoms[:5].copy()
        queries[1, 0] = np.nan
        queries[4, 7] = -np.inf
        with pytest.raises(ValueError, match=r"NaN.*\[1, 4\]"):
            match_batch(d, queries)

    def test_overflowing_rows_reported_per_query(self, toy_dictionary):
        # Finite rows whose squared norm overflows are refused like inf rows.
        d, _ = toy_dictionary
        queries = d.atoms[:5].copy()
        queries[2] *= 1e200
        with pytest.raises(ValueError, match=r"overflowing values at indices \[2\]"):
            match_batch(d, queries)


class TestCertifiedMatch:
    """Matching above RANK atoms: subspace bounds, then exact re-scoring."""

    def test_atoms_differing_only_outside_the_subspace(self):
        # Atoms j and j + RANK share their part in a strong RANK-dimensional
        # subspace and differ only in weak residual directions, so their
        # bounds agree and only exact scores can tell them apart.
        r, extra = dictionary.RANK, 8
        m = r + extra
        basis = np.linalg.qr(np.random.default_rng(3).standard_normal((r + m, r + m)))[0]
        strong, weak = basis[:, :r].T, basis[:, r:].T
        cos = 0.99
        sin = np.sqrt(1.0 - cos ** 2)
        atoms = cos * strong[np.arange(m) % r] + sin * weak[:m]
        d = Dictionary(atoms, "hand-made", numbered_grid(m))
        w = dictionary._subspace(d)[1]
        assert w.shape == (r + 1, m)
        np.testing.assert_allclose(w[:, :extra], w[:, r:], atol=1e-6)
        queries = np.vstack([atoms, atoms + 0.05 * weak[:m]])
        for (label, score), query in zip(match_batch(d, queries), queries):
            ref_label, ref_score = naive_match(d, query)
            assert label == ref_label
            assert abs(score - ref_score) < 1e-12
        assert [label for label, _ in match_batch(d, queries)] == 2 * d.labels

    @pytest.mark.parametrize("factor", [0.0, 10.0])
    @pytest.mark.parametrize("scaled", [10, 50])
    def test_equal_scores_go_to_the_lowest_row(self, scaled, factor):
        # Rows 10 and 50 agree on the first half of the samples, where the
        # query lives, so their exact scores are equal bit for bit. Scaling
        # the second half of one of them changes their bounds: row 50 has
        # the larger bound in some of these cases, row 10 in the others.
        rng = np.random.default_rng(0)
        m, half = 2 * dictionary.RANK, 24
        heads = rng.standard_normal((m, half))
        heads /= np.linalg.norm(heads, axis=1, keepdims=True)
        atoms = np.hstack([heads, rng.standard_normal((m, half))])
        atoms[50, :half] = atoms[10, :half]
        atoms[scaled, half:] *= factor
        d = Dictionary(atoms, "hand-made", numbered_grid(m))
        query = np.concatenate([atoms[10, :half], np.zeros(half)])
        (label, score), = match_batch(d, query[None])
        assert (label, score) == match(d, query)
        assert label == d.labels[10]
        assert abs(score - naive_match(d, query)[1]) < 1e-12

    def test_matches_naive_reference(self, map_dictionary):
        d = map_dictionary
        rng = np.random.default_rng(11)
        picks = rng.integers(0, d.n_atoms, size=40)
        queries = d.atoms[picks] * rng.uniform(0.5, 2.0, size=(40, 1))
        queries += rng.normal(0.0, 0.05, size=queries.shape) * queries.max(axis=1, keepdims=True)
        for (label, score), query in zip(match_batch(d, queries), queries):
            ref_label, ref_score = naive_match(d, query)
            assert label == ref_label
            assert abs(score - ref_score) < 1e-12

    def test_self_match_sweep(self, map_dictionary):
        d = map_dictionary
        assert [label for label, _ in match_batch(d, d.atoms)] == d.labels

    def test_every_row_equals_match_bit_for_bit(self, map_dictionary):
        d = map_dictionary
        rng = np.random.default_rng(12)
        queries = np.abs(d.atoms[rng.integers(0, d.n_atoms, size=300)]
                         + rng.normal(0.0, 0.02, size=(300, d.n_samples)))
        for i, row in enumerate(match_batch(d, queries)):
            assert match(d, queries[i]) == row

    def test_memory_layout_changes_nothing(self, map_dictionary):
        d = map_dictionary
        rng = np.random.default_rng(14)
        queries = np.abs(d.atoms[rng.integers(0, d.n_atoms, size=100)]
                         + rng.normal(0.0, 0.02, size=(100, d.n_samples)))
        expected = match_batch(d, queries)
        assert match_batch(d, np.asfortranarray(queries)) == expected
        wide = np.zeros((100, 2 * d.n_samples))
        wide[:, ::2] = queries
        assert match_batch(d, wide[:, ::2]) == expected

    @pytest.mark.parametrize("rank", [1, 2])
    def test_poor_basis_changes_nothing(self, map_dictionary, monkeypatch, rank):
        d = map_dictionary
        rng = np.random.default_rng(13)
        queries = np.abs(d.atoms[rng.integers(0, d.n_atoms, size=200)]
                         + rng.normal(0.0, 0.02, size=(200, d.n_samples)))
        expected = match_batch(d, queries)
        monkeypatch.setattr(dictionary, "RANK", rank)
        poor = Dictionary(d.atoms, d.schedule_digest, d.grid)
        assert match_batch(poor, queries) == expected
        assert dictionary._subspace(poor)[0].shape == (d.n_samples, rank)

    def test_subspace_follows_a_new_atom_array(self, map_dictionary):
        d = map_dictionary
        copy = Dictionary(d.atoms.copy(), d.schedule_digest, d.grid)
        match(copy, d.atoms[5])
        copy.atoms = d.atoms[::-1].copy()
        assert match(copy, d.atoms[5])[0] == d.labels[d.n_atoms - 6]

    @pytest.mark.parametrize("scale", [1e-150, 1e-162, 1e-200, 1e-300])
    def test_tiny_queries_match_like_unit_ones(self, map_dictionary, scale):
        # Squares of these rows underflow, partly or wholly.
        d = map_dictionary
        query = d.atoms[17] + 0.01
        label, score = match(d, query)
        tiny_label, tiny_score = match(d, scale * query)
        assert tiny_label == label
        assert abs(tiny_score - score) < 1e-12


def random_dictionary(m, n, seed, rank):
    """Atoms of a random (m, n) dictionary near a rank-``rank`` subspace."""
    rng = np.random.default_rng(seed)
    atoms = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
    atoms += 1e-3 * rng.standard_normal((m, n))
    return Dictionary(atoms, "random", numbered_grid(m))


def probe_queries(d, seed):
    """Exact, scaled and noisy atoms and queries inside the subspace."""
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, d.n_atoms, size=6)
    v = dictionary._subspace(d)[0]
    return np.vstack([
        d.atoms[picks],
        d.atoms[picks] * rng.uniform(1e-3, 1e3, size=(6, 1)),
        d.atoms[picks] + 0.01 * rng.standard_normal((6, d.n_samples)),
        rng.standard_normal((6, v.shape[1])) @ v.T,
    ])


dictionary_shapes = st.tuples(
    st.integers(1, 2 * dictionary.RANK + 8),  # M on both sides of RANK
    st.integers(1, 80),
    st.integers(0, 2 ** 32 - 1),
    st.integers(1, 40),
)


class TestMatchProperties:
    @settings(max_examples=40, deadline=None)
    @given(dictionary_shapes)
    def test_equals_naive_double_loop(self, shape):
        m, n, seed, rank = shape
        d = random_dictionary(m, n, seed, rank)
        queries = probe_queries(d, seed + 1)
        for (label, score), query in zip(match_batch(d, queries), queries):
            ref_label, ref_score = naive_match(d, query)
            assert label == ref_label
            assert abs(score - ref_score) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(dictionary_shapes)
    def test_match_equals_every_batch_row_bit_for_bit(self, shape):
        m, n, seed, rank = shape
        d = random_dictionary(m, n, seed, rank)
        queries = probe_queries(d, seed + 2)
        batch = match_batch(d, queries)
        for i, query in enumerate(queries):
            (label, score), (batch_label, batch_score) = match(d, query), batch[i]
            assert label == batch_label
            assert np.float64(score).tobytes() == np.float64(batch_score).tobytes()

    @settings(max_examples=20, deadline=None)
    @given(dictionary_shapes)
    def test_empty_query_matrix(self, shape):
        m, n, seed, rank = shape
        d = random_dictionary(m, n, seed, rank)
        assert match_batch(d, np.empty((0, n))) == []


# The toy_dictionary fixture's grid as its manifest writes it.
TOY_GRID_JSON = ('{"t1_segments": [[200.0, 1000.0, 200.0]], '
                 '"t2_segments": [[50.0, 250.0, 50.0]]}')


class TestSerialization:
    def test_round_trip_bit_identical(self, toy_dictionary, tmp_path):
        d, _ = toy_dictionary
        dict_path, json_path = save_dictionary(d, tmp_path / "dict_a")
        loaded = load_dictionary(tmp_path / "dict_a")
        np.testing.assert_array_equal(loaded.atoms, d.atoms)
        assert loaded.labels == d.labels == expand_grid(d.grid)
        assert loaded.schedule_digest == d.schedule_digest
        assert loaded.grid == d.grid
        p2, _ = save_dictionary(loaded, tmp_path / "dict_b")
        assert p2.read_bytes() == dict_path.read_bytes()

    def test_bad_magic_rejected(self, toy_dictionary, tmp_path):
        d, _ = toy_dictionary
        dict_path, _ = save_dictionary(d, tmp_path / "dict_c")
        blob = bytearray(dict_path.read_bytes())
        blob[:4] = b"XXXX"
        dict_path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="magic"):
            load_dictionary(tmp_path / "dict_c")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_atoms_rejected_with_rows(self, toy_dictionary, tmp_path, bad):
        d, _ = toy_dictionary
        dict_path, _ = save_dictionary(d, tmp_path / "dict_e")
        atoms = d.atoms.astype("<f4")
        atoms[2, 5] = bad
        atoms[9, 0] = bad
        dict_path.write_bytes(dict_path.read_bytes()[:24] + atoms.tobytes())
        with pytest.raises(ValueError, match=r"rows \[2, 9\]"):
            load_dictionary(tmp_path / "dict_e")

    def test_manifest_holds_grid_and_digest_only(self, toy_dictionary, tmp_path):
        d, _ = toy_dictionary
        _, json_path = save_dictionary(d, tmp_path / "dict_i")
        assert sorted(json.loads(json_path.read_text())) == ["grid", "schedule_digest"]

    def test_manifest_with_old_labels_loads_the_same(self, toy_dictionary, tmp_path):
        # Older manifests also listed the labels; loading ignores them.
        d, _ = toy_dictionary
        _, json_path = save_dictionary(d, tmp_path / "dict_j")
        fresh = load_dictionary(tmp_path / "dict_j")
        manifest = json.loads(json_path.read_text())
        manifest["labels"] = [[p.t1_ms, p.t2_ms] for p in d.labels]
        json_path.write_text(json.dumps(manifest, indent=1, sort_keys=True))
        old = load_dictionary(tmp_path / "dict_j")
        assert old.atoms.tobytes() == fresh.atoms.tobytes() == d.atoms.tobytes()
        assert old.labels == fresh.labels == d.labels
        assert (old.schedule_digest, old.grid) == (fresh.schedule_digest, fresh.grid)

    def test_rows_disagreeing_with_grid_rejected(self, toy_dictionary, tmp_path):
        # The toy grid has 24 pairs; this one, with T1 up to 1200 ms, has 29.
        d, _ = toy_dictionary
        dict_path, json_path = save_dictionary(d, tmp_path / "dict_g")
        manifest = json.loads(json_path.read_text())
        manifest["grid"]["t1_segments"] = [[200.0, 1200.0, 200.0]]
        json_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=re.escape(
                f"{dict_path}: 24 atom rows, but the grid expands to 29 (T1, T2) "
                f"pairs (grid of {json_path})")):
            load_dictionary(tmp_path / "dict_g")

    def test_constructor_rejects_rows_disagreeing_with_grid(self, toy_dictionary):
        d, _ = toy_dictionary
        with pytest.raises(ValueError, match=re.escape(
                "23 atom rows, but the grid expands to 24 (T1, T2) pairs")):
            Dictionary(d.atoms[:-1], d.schedule_digest, d.grid)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_constructor_rejects_nonfinite_atoms_with_rows(self, toy_dictionary, bad):
        d, _ = toy_dictionary
        atoms = d.atoms.copy()
        atoms[4, 3] = bad
        atoms[20, 0] = bad
        with pytest.raises(ValueError, match=re.escape("NaN or inf atoms in rows [4, 20]")):
            Dictionary(atoms, d.schedule_digest, d.grid)

    @pytest.mark.parametrize("key", ["grid", "schedule_digest"])
    def test_manifest_missing_key_rejected(self, toy_dictionary, tmp_path, key):
        d, _ = toy_dictionary
        _, json_path = save_dictionary(d, tmp_path / "dict_h")
        manifest = json.loads(json_path.read_text())
        del manifest[key]
        json_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=re.escape(f"{json_path}: manifest lacks ['{key}']")):
            load_dictionary(tmp_path / "dict_h")

    @pytest.mark.parametrize("text, reason", [
        ('["grid", "schedule_digest"]', "manifest must be a JSON object, got list"),
        ('"grid schedule_digest"', "manifest must be a JSON object, got str"),
        ("5", "manifest must be a JSON object, got int"),
        ("null", "manifest must be a JSON object, got NoneType"),
        ("grid: toy", "Expecting value"),
        ("", "Expecting value"),
        (b"\xff\xfe{}", ""),  # not UTF-8
        ('{"grid": %s, "schedule_digest": 5}' % TOY_GRID_JSON,
         "schedule_digest must be a string, got 5"),
        ('{"grid": %s, "schedule_digest": null}' % TOY_GRID_JSON,
         "schedule_digest must be a string, got None"),
        ('{"grid": [], "schedule_digest": "ab"}', "grid must be a JSON object, got list"),
    ])
    def test_corrupt_manifest_rejected_naming_file(self, toy_dictionary, tmp_path,
                                                   text, reason):
        d, _ = toy_dictionary
        _, json_path = save_dictionary(d, tmp_path / "dict_k")
        json_path.write_bytes(text if isinstance(text, bytes) else text.encode())
        with pytest.raises(ValueError, match=re.escape(f"{json_path}: {reason}")):
            load_dictionary(tmp_path / "dict_k")

    def test_truncated_file_rejected(self, toy_dictionary, tmp_path):
        d, _ = toy_dictionary
        dict_path, _ = save_dictionary(d, tmp_path / "dict_d")
        dict_path.write_bytes(dict_path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="bytes"):
            load_dictionary(tmp_path / "dict_d")
