import concurrent.futures
import json
import multiprocessing
import re
import signal
from contextlib import contextmanager

import numpy as np
import pytest

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
from mrfmap.epg import TissueParams, simulate_fingerprints
from mrfmap.schedule import default_schedule


@pytest.fixture(scope="module")
def toy_dictionary():
    spec = GridSpec(
        t1_segments=((200.0, 1000.0, 200.0),),
        t2_segments=((50.0, 250.0, 50.0),),
    )
    schedule = default_schedule(80)
    return build_dictionary(spec, schedule), schedule


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


def one_call_reference(spec, schedule, k_max=None):
    """Atoms from one simulate_fingerprints call over the whole grid."""
    atoms = np.abs(simulate_fingerprints(expand_grid(spec), schedule, k_max=k_max))
    atoms /= np.linalg.norm(atoms, axis=1, keepdims=True)
    return atoms.astype(np.float32).astype(np.float64)


@contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the main thread if the block runs too long."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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

    def test_batching_does_not_change_atoms(self, toy_dictionary):
        d, schedule = toy_dictionary
        d2 = build_dictionary(d.grid, schedule, batch_size=3)
        np.testing.assert_array_equal(d.atoms, d2.atoms)

    @pytest.mark.parametrize("k_max", [None, 10])
    @pytest.mark.parametrize("batch_size", [64, 3, 7])
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_atoms_equal_one_call_reference(self, toy_dictionary, monkeypatch,
                                            cpus, batch_size, k_max):
        # The toy grid has 24 atoms; a batch_size of 7 does not divide it.
        d, schedule = toy_dictionary
        pools = []
        real_pool = concurrent.futures.ProcessPoolExecutor

        def counting_pool(max_workers, **kwargs):
            pools.append(max_workers)
            return real_pool(max_workers, **kwargs)

        monkeypatch.setattr(dictionary, "available_cpus", lambda: cpus)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counting_pool)
        built = build_dictionary(d.grid, schedule, k_max=k_max, batch_size=batch_size)
        expected = one_call_reference(d.grid, schedule, k_max=k_max)
        assert built.atoms.tobytes() == expected.tobytes()
        assert built.labels == d.labels
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
        assert dictionary.build_plan(n_atoms, batch_size) == plan

    def test_nonpositive_batch_size_rejected(self, toy_dictionary):
        d, schedule = toy_dictionary
        with pytest.raises(ValueError, match="batch_size"):
            build_dictionary(d.grid, schedule, batch_size=-1)

    # T1 = 200 ms lies in the first batch, which the calling process
    # simulates; T1 = 1000 ms lies in the last, which a worker simulates.
    @pytest.mark.parametrize("bad_t1", [200.0, 1000.0])
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_simulation_error_propagates(self, toy_dictionary, monkeypatch,
                                         cpus, bad_t1):
        d, schedule = toy_dictionary
        real = dictionary.simulate_fingerprints

        def failing(params, sched, k_max=None):
            if any(p.t1_ms == bad_t1 for p in params):
                raise RuntimeError(f"no signal for T1={bad_t1}")
            return real(params, sched, k_max=k_max)

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


class TestMatchBatch:
    def test_single_query_equals_match(self, toy_dictionary):
        d, _ = toy_dictionary
        q = d.atoms[4] + 0.001
        (label_b, score_b), = match_batch(d, q[None, :])
        label_s, score_s = match(d, q)
        assert label_b == label_s and abs(score_b - score_s) < 1e-12

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


class TestSerialization:
    def test_round_trip_bit_identical(self, toy_dictionary, tmp_path):
        d, _ = toy_dictionary
        dict_path, json_path = save_dictionary(d, tmp_path / "dict_a")
        loaded = load_dictionary(tmp_path / "dict_a")
        np.testing.assert_array_equal(loaded.atoms, d.atoms)
        assert loaded.labels == d.labels
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

    def test_labels_off_grid_rejected(self, toy_dictionary, tmp_path):
        d, _ = toy_dictionary
        _, json_path = save_dictionary(d, tmp_path / "dict_f")
        manifest = json.loads(json_path.read_text())
        manifest["labels"][5][1] -= 1.0
        json_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="from row 5"):
            load_dictionary(tmp_path / "dict_f")

    def test_labels_of_another_grid_rejected(self, toy_dictionary, tmp_path):
        d, _ = toy_dictionary
        _, json_path = save_dictionary(d, tmp_path / "dict_g")
        manifest = json.loads(json_path.read_text())
        manifest["grid"]["t1_segments"] = [[200.0, 1200.0, 200.0]]
        json_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="recorded grid"):
            load_dictionary(tmp_path / "dict_g")

    def test_truncated_file_rejected(self, toy_dictionary, tmp_path):
        d, _ = toy_dictionary
        dict_path, _ = save_dictionary(d, tmp_path / "dict_d")
        dict_path.write_bytes(dict_path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="bytes"):
            load_dictionary(tmp_path / "dict_d")
