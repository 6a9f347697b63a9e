import dataclasses
import itertools
import json
import multiprocessing
import re
import struct
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import constant_schedule, time_limit
from mrfmap import dictionary, epg, parallel
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
from mrfmap.epg import TissueParams, order_caps, simulate_fingerprints
from mrfmap.nn.checkpoint import ModelCheckpoint, load_checkpoint, save_checkpoint
from mrfmap.nn.models import ModelSpec, init_params
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


# 392 atoms: more than BATCH_SIZE = 64 per CPU at 1, 2 and 3 CPUs, so every
# process simulates several batches (7 of 56 atoms at 1 CPU). The grid holds
# every pair of the toy grid.
SPLIT_GRID = GridSpec(t1_segments=((100.0, 4000.0, 100.0),),
                      t2_segments=((25.0, 250.0, 25.0),))


# At N=80, T2 of 2 to 14 ms keeps 9 to 69 orders, so caps differ by T2
# and cap order is not grid order.
CAPPED_GRID = GridSpec(t1_segments=((200.0, 1000.0, 200.0),),
                       t2_segments=((2.0, 14.0, 4.0),))

# 520 atoms at N=80 (orders_kept about 0.9): the grid the CI builds on one
# CPU and on all, more than BATCH_SIZE = 64 per CPU on 2 CPUs.
CI_GRID = GridSpec(t1_segments=((100.0, 4000.0, 100.0),), t2_segments=((2.0, 50.0, 4.0),))

# The dict-build benchmark's grid shape: six T1 and six T2 values, one in
# each log-stratum of 500-4000 ms and 5-500 ms (paper length N=1750).
DICT_BUILD_GRID = GridSpec(
    t1_segments=tuple((t1, t1, 1.0) for t1 in (595.0, 841.0, 1189.0, 1682.0, 2378.0, 3364.0)),
    t2_segments=tuple((t2, t2, 1.0) for t2 in (7.3, 15.8, 34.1, 73.4, 158.0, 341.0)))


def plan_cost(plan, labels, schedule):
    """Largest modelled batch cost: size times the rows its largest cap sweeps."""
    n = schedule.n_excitations
    caps = order_caps(labels, schedule)
    return max(len(rows) * sum(min(i + 1, int(caps[rows].max()) + 1) for i in range(n))
               for rows in plan)


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


def grid_labels(spec):
    """``expand_grid(spec)``'s rows as the ``TissueParams`` a dictionary labels them by."""
    return tuple(TissueParams(*row) for row in expand_grid(spec).tolist())


def holds(tissues, bad):
    """Whether a whole row of the (B, 2) ``tissues`` is the pair ``bad``."""
    return bool((np.asarray(tissues) == bad).all(axis=1).any())


def one_call_reference(spec, schedule):
    """Float32 atoms from one simulate_fingerprints call over the whole grid."""
    atoms = np.abs(simulate_fingerprints(expand_grid(spec), schedule))
    atoms /= np.linalg.norm(atoms, axis=1, keepdims=True)
    return atoms.astype(np.float32)


class TestExpandGrid:
    def test_small_enumeration(self):
        spec = GridSpec(t1_segments=((100.0, 300.0, 100.0),),
                        t2_segments=((50.0, 100.0, 50.0),))
        grid = expand_grid(spec)
        assert grid.dtype == np.float64 and grid.shape == (6, 2)
        assert set(map(tuple, grid.tolist())) == {(100, 50), (100, 100), (200, 50),
                                                  (200, 100), (300, 50), (300, 100)}

    def test_zero_removal_and_filter(self):
        spec = GridSpec(t1_segments=((0.0, 2.0, 2.0),),
                        t2_segments=((0.0, 2.0, 1.0),))
        assert set(map(tuple, expand_grid(spec).tolist())) == {(2, 1), (2, 2)}

    def test_zero_only_values_dropped(self):
        spec = GridSpec(t1_segments=((0.0, 2.0, 2.0),),
                        t2_segments=((0.0, 1.0, 1.0),))
        assert set(map(tuple, expand_grid(spec).tolist())) == {(2, 1)}

    def test_paper_grid_matches_enumeration_oracle(self):
        spec = GridSpec.paper_grid()
        # Raw per-segment T1 counts before dedup/zero-removal.
        raw = [int(round((stop - start) / step)) + 1
               for start, stop, step in spec.t1_segments]
        assert raw == [251, 101, 101, 41]
        expected = brute_force_pairs(spec.t1_segments, spec.t2_segments)
        got = list(map(tuple, expand_grid(spec).tolist()))
        assert got == expected

    def test_lexicographic_order(self):
        spec = GridSpec(t1_segments=((100.0, 400.0, 100.0),),
                        t2_segments=((20.0, 60.0, 20.0),))
        pairs = list(map(tuple, expand_grid(spec).tolist()))
        assert pairs == sorted(pairs)

    def test_rows_simulate_like_tissue_params(self):
        # A list of TissueParams, the same pairs as an (M, 2) array, and
        # expand_grid's rows give the simulator one batch, bit for bit.
        schedule = default_schedule(80)
        pairs = brute_force_pairs(CAPPED_GRID.t1_segments, CAPPED_GRID.t2_segments)
        from_labels = simulate_fingerprints([TissueParams(*p) for p in pairs], schedule)
        from_array = simulate_fingerprints(np.array(pairs), schedule)
        from_grid = simulate_fingerprints(expand_grid(CAPPED_GRID), schedule)
        assert from_labels.tobytes() == from_array.tobytes() == from_grid.tobytes()

    def test_empty_after_filter_is_error(self):
        with pytest.raises(ValueError, match="no valid"):
            GridSpec(t1_segments=((0.0, 0.0, 1.0),), t2_segments=((10.0, 20.0, 10.0),))

    @pytest.mark.parametrize("t1_segments, t2_segments, message", [
        (((10.0, 10.0, 1.0),), ((100.0, 100.0, 1.0),),
         "grid expansion produced no valid (T1, T2) pairs"),
        # NumPy refuses the 28.4 PiB of T1 values before allocating any.
        (((1.0, 4000.0, 1e-12),), ((5.0, 500.0, 5.0),),
         "grid too fine to expand: Unable to allocate"),
        # 1e23 T1 values, past NumPy's index type: it used to raise its bare
        # ValueError "Maximum allowed size exceeded".
        (((0.0, 1e20, 1e-3),), ((1.0, 1.0, 1.0),),
         "grid too fine to expand: Maximum allowed size exceeded"),
    ], ids=["no_pairs", "too_fine", "past_index_type"])
    def test_constructor_refuses_what_load_refuses(self, t1_segments, t2_segments, message):
        # Both used to be made, and only expand_grid refused them.
        with pytest.raises(ValueError, match=re.escape(message)):
            GridSpec(t1_segments, t2_segments)

    def test_invalid_segment_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(t1_segments=((100.0, 50.0, 10.0),), t2_segments=((1, 2, 1),))
        with pytest.raises(ValueError):
            GridSpec(t1_segments=((0.0, 10.0, 0.0),), t2_segments=((1, 2, 1),))

    def test_segment_starting_below_zero_rejected(self):
        # Used to be made: expand_grid drops every value <= 0, so this grid
        # was T1 100-500 ms at T2 10 ms. Zero stays dropped, as the paper's
        # printed ranges start at it.
        with pytest.raises(ValueError, match=re.escape(
                "invalid segment (-100.0, 500.0, 100.0): a segment needs "
                "0 <= start <= stop and step > 0")):
            GridSpec(((-100, 500, 100),), ((-20, 10, 10),))

    def test_bool_rejected_numpy_float_accepted(self):
        with pytest.raises(ValueError, match=re.escape(
                "grid t1_segments value in segment (True, 900.0, 300.0) must be a number, "
                "got True")):
            GridSpec(t1_segments=((True, 900.0, 300.0),), t2_segments=((1, 2, 1),))
        spec = GridSpec(t1_segments=((np.float64(300.0), np.float32(900.0), 300),),
                        t2_segments=((1, 2, 1),))
        assert spec.t1_segments == ((300.0, 900.0, 300.0),)
        assert all(type(x) is float for seg in spec.t1_segments for x in seg)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("position", [0, 1, 2])
    @pytest.mark.parametrize("axis", ["t1_segments", "t2_segments"])
    def test_nonfinite_segment_rejected(self, axis, position, bad):
        segment = [100.0, 500.0, 10.0]
        segment[position] = bad
        valid = ((10.0, 50.0, 10.0),)
        segments = {"t1_segments": valid, "t2_segments": valid}
        segments[axis] = valid + (tuple(segment),)
        with pytest.raises(ValueError, match=re.escape(
                f"grid {axis} value in segment {tuple(segment)} must be finite, got {bad}")):
            GridSpec(**segments)


class TestBuildDictionary:
    def test_rows_normalized(self, toy_dictionary):
        d, _ = toy_dictionary
        norms = np.linalg.norm(d.atoms.astype(np.float64), axis=1)
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

    def test_batching_does_not_change_atoms(self, toy_dictionary, monkeypatch, pools):
        # The toy grid is one batch per process; in the split grid its
        # atoms sit in several batches of other atoms.
        d, schedule = toy_dictionary
        monkeypatch.setattr(parallel, "available_cpus", lambda: 1)
        split = build_dictionary(SPLIT_GRID, schedule)
        plan = dictionary.build_plan(split.labels, schedule)
        assert [len(rows) for rows in plan] == [56] * 7
        assert pools == []  # seven batches, all run in this process
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
        monkeypatch.setattr(parallel, "available_cpus", lambda: cpus)
        monkeypatch.setattr(epg, "BATCH_SIZE", batch_size)
        built = build_dictionary(spec, schedule)
        expected = one_call_reference(spec, schedule)
        assert built.atoms.tobytes() == expected.tobytes()
        assert built.labels == grid_labels(spec)
        assert pools == ([cpus - 1] if cpus > 1 else [])

    # Ids read atoms-BATCH_SIZE-cpus-plan.
    @pytest.mark.parametrize("grid, n, cpus, sizes", [
        # 12 atoms sweep all N orders (the two longest T2, and T2 = 158 ms
        # with its cap of about 870), 24 at most about 400 orders.
        (DICT_BUILD_GRID, 1750, 2, [12, 24]),
        (GridSpec.paper_grid(), 1750, 2, [64] * 1791 + [26]),
        (None, 80, 1, [24]),  # the toy grid
        (GridSpec(((1000.0, 5000.0, 1000.0),), ((50.0, 50.0, 1.0),)), 80, 4, [2, 2, 1]),
        (GridSpec(((100.0, 100.0, 1.0),), ((50.0, 50.0, 1.0),)), 80, 8, [1]),
        # One CPU: one batch, which simulate_fingerprints cuts itself.
        (DICT_BUILD_GRID, 1750, 1, [36]),
        (None, 80, 2, [12, 12]),
        # Above BATCH_SIZE atoms per CPU: at 2 CPUs the map grid's least
        # largest cost is that of 64-atom cuts, at 3 it takes 18 batches.
        (MAP_GRID, 250, 2, [64] * 15 + [60]),
        (MAP_GRID, 250, 3, [55] * 13 + [56, 60, 64, 64, 61]),
        (CI_GRID, 80, 2, [50] * 8 + [57, 63]),
    ], ids=["36-64-2-plan0", "114650-64-2-plan1", "24-64-1-plan2", "5-64-4-plan3",
            "1-64-8-plan4", "36-64-1-plan5", "24-64-2-plan6", "1020-64-2-plan7",
            "1020-64-3-plan8", "520-64-2-plan9"])
    def test_build_plan_split_rule(self, toy_dictionary, monkeypatch, grid, n, cpus, sizes):
        monkeypatch.setattr(parallel, "available_cpus", lambda: cpus)
        assert epg.BATCH_SIZE == 64
        schedule = default_schedule(n)
        labels = expand_grid(toy_dictionary[0].grid if grid is None else grid)
        plan = dictionary.build_plan(labels, schedule)
        assert [len(rows) for rows in plan] == sizes
        rows = np.concatenate(plan)
        assert sorted(rows.tolist()) == list(range(len(labels)))
        caps = order_caps(labels, schedule)[rows]
        assert np.all(np.diff(caps) <= 0)  # descending cap order

    def test_dict_build_plan_largest_batch(self, monkeypatch):
        # On 2 CPUs the largest batch holds 12 atoms at K = N, where an
        # even split would hold 18.
        monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
        schedule = default_schedule(1750)
        tissues = expand_grid(DICT_BUILD_GRID)
        plan = dictionary.build_plan(tissues, schedule)
        assert plan_cost(plan, tissues, schedule) == 12 * 1750 * 1751 // 2
        assert set(tissues[plan[0], 1].tolist()) == {158.0, 341.0}
        assert 0.0 < epg.orders_kept(tissues, schedule) < 0.5

    # At BATCH_SIZE 4 the 20 atoms are more than one batch per CPU: count
    # is 6 at 2 and 3 CPUs, and fixed 4-atom cuts cost 12,740 rows.
    @pytest.mark.parametrize("cpus, batch_size, sizes", [
        pytest.param(2, 64, [9, 11], id="2"), pytest.param(3, 64, [5, 6, 9], id="3"),
        pytest.param(2, 4, [3, 3, 3, 3, 4, 4], id="2-batch4"),
        pytest.param(3, 4, [3, 3, 3, 3, 4, 4], id="3-batch4"),
    ])
    def test_build_plan_minimizes_largest_batch(self, toy_dictionary, monkeypatch,
                                                cpus, batch_size, sizes):
        # Exhaustive search over every contiguous split of the cap-sorted
        # atoms into at most ``count`` batches of at most BATCH_SIZE atoms
        # finds no smaller largest cost.
        _, schedule = toy_dictionary
        labels = expand_grid(CAPPED_GRID)
        monkeypatch.setattr(parallel, "available_cpus", lambda: cpus)
        monkeypatch.setattr(epg, "BATCH_SIZE", batch_size)
        plan = dictionary.build_plan(labels, schedule)
        order = np.concatenate(plan)
        m, best = len(labels), np.inf
        count = cpus * -(-m // (cpus * batch_size))

        def split(cuts):
            return [order[lo:hi] for lo, hi in zip(cuts, cuts[1:])]

        for k in range(1, count + 1):
            for inner in itertools.combinations(range(1, m), k - 1):
                cuts = [0, *inner, m]
                if max(np.diff(cuts)) <= batch_size:
                    best = min(best, plan_cost(split(cuts), labels, schedule))
        assert plan_cost(plan, labels, schedule) == best
        assert best <= plan_cost(split([*range(0, m, batch_size), m]), labels, schedule)
        assert [len(rows) for rows in plan] == sizes

    def test_one_cpu_plan_leaves_the_cut_to_the_simulator(self, monkeypatch):
        # One process runs the whole dict-build grid as one batch; the
        # simulator cuts it where the work model is least, below the cost
        # of one kernel call over the batch's largest cap.
        monkeypatch.setattr(parallel, "available_cpus", lambda: 1)
        schedule = default_schedule(1750)
        tissues = expand_grid(DICT_BUILD_GRID)
        [batch] = dictionary.build_plan(tissues, schedule)
        caps = order_caps(tissues[batch], schedule)
        groups = epg._groups(caps, 1750)
        swept = epg._orders_swept(caps, 1750)

        def cost(groups):
            return sum(epg.GROUP_ROWS * 1750 + len(g) * swept[g].max() for g in groups)

        assert len(groups) > 1
        assert cost(groups) < cost([np.arange(len(batch))])

    @pytest.mark.parametrize("grid, n", [(None, 80), (MAP_GRID, 250), (DICT_BUILD_GRID, 1750)],
                             ids=["toy", "map", "dict-build"])
    def test_batches_where_no_cut_pays_run_as_one_kernel_call(
            self, toy_dictionary, monkeypatch, grid, n):
        # Each batch these grids are built in at 2 CPUs is one kernel call.
        monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
        schedule = default_schedule(n)
        tissues = expand_grid(toy_dictionary[0].grid if grid is None else grid)
        plan = dictionary.build_plan(tissues, schedule)
        calls, real = [], epg._kernel

        def counted(tissues, caps, schedule, out, rows):
            calls.append(len(rows))
            real(tissues, caps, schedule, out, rows)

        monkeypatch.setattr(epg, "_kernel", counted)
        for rows in plan:
            simulate_fingerprints(tissues[rows], schedule)
        assert calls == [len(rows) for rows in plan]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_zero_signal_atoms_refused_by_tissue(self, toy_dictionary, monkeypatch, cpus):
        # Without a flip, and without the inversion, whose π pulse leaves a
        # rounding residue, there is no transverse signal: every atom is
        # zero. The simulating process refuses its batch, and the calling
        # process simulates the first batch: the toy grid's first rows.
        d, _ = toy_dictionary
        monkeypatch.setattr(parallel, "available_cpus", lambda: cpus)
        pairs = expand_grid(d.grid)[:5].tolist()
        with time_limit(60), pytest.raises(ValueError, match=re.escape(
                f"zero-signal atoms for (T1, T2) {pairs}")):
            build_dictionary(d.grid, constant_schedule(80, 0.0, inversion_prep=False))
        assert multiprocessing.active_children() == []

    def test_paper_grid_orders_kept(self):
        # About three quarters of the paper atoms are capped, and the EPG
        # work they leave is about 0.65 of every atom at K = N.
        labels = expand_grid(GridSpec.paper_grid())
        schedule = default_schedule(1750)
        caps = order_caps(labels, schedule)
        assert 0.75 < np.mean(caps < 1750) < 0.8
        assert 0.6 < epg.orders_kept(labels, schedule) < 0.7

    @pytest.mark.parametrize("grid, n", [
        (MAP_GRID, 250), (GridSpec.paper_grid(), 1750), (DICT_BUILD_GRID, 1750), (CI_GRID, 80),
    ], ids=["map", "paper", "dict-build", "ci"])
    def test_orders_kept_equals_the_cap_sorted_share(self, grid, n):
        # The share a build plan used to carry, bit for bit: the rows each
        # atom sweeps, summed in cap order, over N(N + 1)/2 rows per atom.
        tissues, schedule = expand_grid(grid), default_schedule(n)
        _, head = epg._by_cap(order_caps(tissues, schedule), n)
        expected = float(head.sum() / (len(tissues) * n * (n + 1) / 2))
        assert epg.orders_kept(tissues, schedule) == expected

    @pytest.mark.parametrize("grid", [CAPPED_GRID, CI_GRID], ids=["capped", "ci"])
    def test_orders_kept_counts_every_swept_row(self, grid):
        # An atom capped at K updates min(i + 1, K + 1) rows at step i; both
        # sums are exact integers, so the share is their correctly rounded
        # quotient.
        tissues, schedule = expand_grid(grid), default_schedule(80)
        swept = sum(min(i + 1, int(k) + 1) for k in order_caps(tissues, schedule)
                    for i in range(80))
        kept = epg.orders_kept(tissues, schedule)
        assert kept == float(Fraction(swept, len(tissues) * 80 * 81 // 2)) < 1.0

    # In cap order the plan's first batch holds the five T2 = 14 ms atoms,
    # and the calling process simulates it; the last holds the T2 = 2 ms
    # atoms, which a worker simulates at 2 and 3 CPUs (at 1 CPU the caller
    # runs both). In grid order these tissues would sit the other way round.
    @pytest.mark.parametrize("bad", [TissueParams(200.0, 2.0), TissueParams(1000.0, 14.0)],
                             ids=["200.0", "1000.0"])  # the bad tissue's T1
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_simulation_error_propagates(self, toy_dictionary, monkeypatch, cpus, bad):
        _, schedule = toy_dictionary
        real = dictionary.simulate_fingerprints

        def failing(params, sched):
            if holds(params, bad):
                raise RuntimeError(f"no signal for {bad}")
            return real(params, sched)

        monkeypatch.setattr(parallel, "available_cpus", lambda: cpus)
        plan = dictionary.build_plan(expand_grid(CAPPED_GRID), schedule)
        holder = [i for i, rows in enumerate(plan)
                  if holds(expand_grid(CAPPED_GRID)[rows], bad)]
        assert holder == [0 if bad.t2_ms == 14.0 else len(plan) - 1]
        monkeypatch.setattr(dictionary, "simulate_fingerprints", failing)
        with time_limit(60), pytest.raises(RuntimeError, match=re.escape(str(bad))):
            build_dictionary(CAPPED_GRID, schedule)
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
        q = d.atoms[3].astype(np.float64) * 1.7
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
        q = d.atoms[4].astype(np.float64) + 0.001
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

    @pytest.mark.parametrize("call", [match, match_batch], ids=["match", "match_batch"])
    def test_complex_queries_rejected(self, toy_dictionary, call):
        # Simulator output is complex, and a cast to float64 would keep only
        # its real part, which is 0 at the default schedule's phase 0.
        d, schedule = toy_dictionary
        raw = simulate_fingerprints(d.labels[:3], schedule)
        with pytest.raises(ValueError, match=re.escape("magnitudes (np.abs)")):
            call(d, raw[0] if call is match else raw)
        assert match(d, np.abs(raw[0]))[0] == d.labels[0]

    def test_wrong_shape_rejected(self, toy_dictionary):
        d, _ = toy_dictionary
        for queries in (d.atoms[0], d.atoms[:2, :-1]):
            with pytest.raises(ValueError, match=re.escape(
                    f"queries must be (B, {d.n_samples}), got {queries.shape}")):
                match_batch(d, queries)

    def test_huge_and_tiny_rows_match_like_the_unscaled_row(self, toy_dictionary):
        # A finite row whose squared norm overflows or underflows is scaled
        # to a largest magnitude of 1 first, so matching stays invariant to
        # positive rescaling at both ends of the float64 range.
        d, _ = toy_dictionary
        queries = d.atoms[[2, 2, 2, 7]].astype(np.float64)
        queries[1] *= 1e200
        queries[2] *= 1e-300
        (label, score), *scaled, other = match_batch(d, queries)
        assert other[0] == d.labels[7]
        for got_label, got_score in scaled:
            assert got_label == label == d.labels[2]
            assert abs(got_score - score) <= 1e-12
        assert match(d, queries[1]) == scaled[0] and match(d, queries[2]) == scaled[1]


class TestMatchSlabs:
    """``match_batch`` splits a batch into slabs of at least one query
    block, one per thread, and joins their rows back in order."""

    @pytest.fixture(scope="class")
    def tied(self, map_dictionary):
        # Atom 700 is a copy of atom 300, so a query scores them alike bit
        # for bit and the lower row must win. Rows 148 to 151, which hold
        # that atom, straddle the slab edge at 150.
        atoms = map_dictionary.atoms.copy()
        atoms[700] = atoms[300]
        d = Dictionary(atoms, "hand-made", numbered_grid(len(atoms)))
        rng = np.random.default_rng(15)
        queries = np.abs(atoms[rng.integers(0, len(atoms), size=300)]
                         + rng.normal(0.0, 0.02, size=(300, d.n_samples)))
        queries[148:152] = atoms[300]
        return d, queries

    def test_two_cpus_give_the_rows_of_one(self, tied, monkeypatch, pools):
        d, queries = tied
        slabs = []
        match_rows = dictionary._match_rows

        def counting(d, queries, norms):
            slabs.append(len(queries))
            return match_rows(d, queries, norms)

        monkeypatch.setattr(dictionary, "_match_rows", counting)
        monkeypatch.setattr(parallel, "available_cpus", lambda: 1)
        one = match_batch(d, queries)
        assert slabs == [300]
        assert pools.threads == []
        monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
        slabs.clear()
        assert match_batch(d, queries) == one
        assert sorted(slabs) == [150, 150]
        assert pools.threads == [1] and pools == []
        assert [label for label, _ in one[148:152]] == [d.labels[300]] * 4
        assert [np.float64(score).tobytes() for _, score in one] == [
            np.float64(match(d, query)[1]).tobytes() for query in queries]

    def test_bad_rows_are_named_by_batch_index(self, tied, monkeypatch):
        monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
        d, queries = tied
        queries = queries.copy()
        queries[250, 3] = np.nan
        with pytest.raises(ValueError, match=r"NaN.*\[250\]"):
            match_batch(d, queries)
        queries[250] = 0.0
        queries[10] = 0.0
        with pytest.raises(ValueError, match=r"all-zero queries at rows \[10, 250\]"):
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
        w = d._subspace[1]
        assert w.shape == (r + 1, m)
        np.testing.assert_allclose(w[:, :extra], w[:, r:], atol=1e-6)
        queries = np.vstack([atoms, atoms + 0.05 * weak[:m]])
        for (label, score), query in zip(match_batch(d, queries), queries):
            ref_label, ref_score = naive_match(d, query)
            assert label == ref_label
            assert abs(score - ref_score) < 1e-12
        assert tuple(label for label, _ in match_batch(d, queries)) == 2 * d.labels

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
        assert tuple(label for label, _ in match_batch(d, d.atoms)) == d.labels

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
        assert poor._subspace[0].shape == (d.n_samples, rank)

    def test_atoms_cannot_be_reassigned(self, map_dictionary):
        # A dictionary holds what its files hold, and the subspace derived
        # from its atoms can never go stale.
        d = map_dictionary
        assert [f.name for f in dataclasses.fields(d)] == ["atoms", "schedule_digest", "grid"]
        match(d, d.atoms[5])
        with pytest.raises(dataclasses.FrozenInstanceError):
            d.atoms = d.atoms[::-1].copy()

    def test_atoms_freeze_at_the_first_match(self):
        # A write after the first match used to be taken while V and W kept
        # the old atoms, so an atom overwritten with the query's direction
        # lost to the old best row.
        atoms = np.abs(np.random.default_rng(5).standard_normal((110, 60))).astype(np.float32)
        atoms /= np.linalg.norm(atoms, axis=1, keepdims=True)
        d = Dictionary(atoms, "hand-made", numbered_grid(110))
        d.atoms[0] = d.atoms[1]  # a write before the first match is taken
        query = d.atoms[40] + np.float32(0.01)
        label, score = match(d, query)
        assert label == naive_match(d, query)[0]
        with pytest.raises(ValueError, match="read-only"):
            d.atoms[-1] = query / np.linalg.norm(query)
        assert match(d, query) == (label, score)
        # The dictionary holds the caller's own C-contiguous float32 array,
        # so that array froze too.
        assert d.atoms is atoms and not atoms.flags.writeable

    def test_the_callers_array_cannot_leave_the_matcher_stale(self):
        # The dictionary used to freeze only its own view, so the caller's
        # array took a write after the first match: with row -1 overwritten
        # by the query's direction, which scores 1.0, match kept its old
        # label at 0.78.
        grid = GridSpec(((100.0, 1000.0, 100.0),), ((10.0, 100.0, 10.0),))
        rng = np.random.default_rng(3)
        atoms = np.abs(rng.standard_normal((100, 60))).astype(np.float32)
        atoms /= np.linalg.norm(atoms, axis=1, keepdims=True)
        d = Dictionary(atoms, "hand-made", grid)
        query = np.abs(rng.standard_normal(60))
        label, score = match(d, query)
        with pytest.raises(ValueError, match="read-only"):
            atoms[-1] = query / np.linalg.norm(query)
        assert match(d, query) == (label, score)
        assert label == naive_match(d, query)[0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_first_match_refuses_atoms_written_nonfinite(self, bad):
        # Such a write before the first match used to be taken: match
        # returned the score nan and a wrong label.
        atoms = np.abs(np.random.default_rng(5).standard_normal((110, 60))).astype(np.float32)
        atoms /= np.linalg.norm(atoms, axis=1, keepdims=True)
        d = Dictionary(atoms, "hand-made", numbered_grid(110))
        d.atoms[3, 7] = d.atoms[50, 0] = bad
        query = d.atoms[40] + np.float32(0.01)
        for _ in range(2):  # a refused match derives nothing
            with pytest.raises(ValueError, match=re.escape(
                    "atoms holding NaN or inf at rows [3, 50]")):
                match(d, query)
        d.atoms[3], d.atoms[50] = d.atoms[4], d.atoms[51]  # still writeable
        assert match(d, query)[0] == naive_match(d, query)[0]

    def test_labels_cannot_be_written(self, toy_dictionary):
        # d.labels[3] = TissueParams(1.0, 1.0) used to be taken, and match
        # then returned that label for atom 3.
        toy, _ = toy_dictionary
        d = Dictionary(toy.atoms, toy.schedule_digest, toy.grid)
        with pytest.raises(TypeError):
            d.labels[3] = TissueParams(1.0, 1.0)
        assert d.labels == grid_labels(d.grid)
        assert match(d, d.atoms[3])[0] == grid_labels(d.grid)[3]

    def test_exact_stage_memory_is_bounded_on_noisy_queries(self):
        # At low SNR the bounds rule out few atoms; near a subspace of twice
        # RANK dimensions they rule out none. The exact stage used to widen
        # every open atom to float64 at once, 8 MiB of these 1024 atoms of
        # 1024 samples, and peaked at 12.8 MiB; it now widens tiles of
        # about 1 MiB.
        d = random_dictionary(1024, 1024, seed=7, rank=2 * dictionary.RANK)
        rng = np.random.default_rng(8)
        atoms = d.atoms[rng.integers(0, d.n_atoms, size=64)].astype(np.float64)
        # Circular Gaussian noise at a per-sample SNR of 1.2.
        sigma = np.linalg.norm(atoms, axis=1, keepdims=True) / np.sqrt(2 * d.n_samples) / 1.2
        queries = np.abs(atoms + sigma * (rng.standard_normal(atoms.shape)
                                          + 1j * rng.standard_normal(atoms.shape)))
        d._subspace  # derived once per dictionary, before the traced call
        tracemalloc.start()
        try:
            result = match_batch(d, queries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2 ** 20
        dense = (d.atoms.astype(np.float64)
                 @ (queries / np.linalg.norm(queries, axis=1, keepdims=True)).T)
        assert [label for label, _ in result] == [d.labels[i] for i in dense.argmax(axis=0)]
        np.testing.assert_allclose([score for _, score in result], dense.max(axis=0),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("scale", [1e-150, 1e-162, 1e-200, 1e-300])
    def test_tiny_queries_match_like_unit_ones(self, map_dictionary, scale):
        # Squares of these rows underflow, partly or wholly.
        d = map_dictionary
        query = d.atoms[17].astype(np.float64) + 0.01
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
    v = d._subspace[0]
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


def manifest_line(path):
    """The JSON manifest line of the ``.dict`` at ``path``, parsed."""
    return json.loads(path.read_bytes().partition(b"\n")[0])


def rewrite_dict(path, manifest=None, atoms=None):
    """Replace the manifest line (a JSON value, or the bytes of a line) or the
    atom bytes of the ``.dict`` at ``path``; what is None stays."""
    head, sep, blob = path.read_bytes().partition(b"\n---ATOMS---\n")
    if manifest is not None:
        head = manifest if isinstance(manifest, bytes) else json.dumps(manifest).encode()
    path.write_bytes(head + sep + (blob if atoms is None else atoms))


small_grids = st.builds(
    lambda t1, t1_step, t1_count, t2, t2_count: GridSpec(
        ((t1, t1 + t1_step * t1_count, t1_step),), ((t2, t2 + t2_count, 1.0),)),
    st.integers(50, 100).map(float), st.sampled_from([25.0, 50.0]), st.integers(0, 3),
    st.integers(1, 49).map(float), st.integers(0, 3))


class TestSerialization:
    def test_round_trip_bit_identical(self, toy_dictionary, tmp_path):
        d, _ = toy_dictionary
        (path,) = save_dictionary(d, tmp_path / "dict_a")
        loaded = load_dictionary(tmp_path / "dict_a")
        np.testing.assert_array_equal(loaded.atoms, d.atoms)
        # The atoms after the delimiter line, as they are: no widened copy,
        # and one aligned array that owns them, not a view of file bytes.
        assert loaded.atoms.dtype == np.float32
        assert loaded.atoms.tobytes() == path.read_bytes().partition(b"\n---ATOMS---\n")[2]
        assert loaded.atoms.flags.aligned and loaded.atoms.flags.writeable
        assert loaded.atoms.base.flags.owndata and loaded.atoms.base.ndim == 1
        assert loaded.labels == d.labels == grid_labels(d.grid)
        assert loaded.schedule_digest == d.schedule_digest
        assert loaded.grid == d.grid
        (p2,) = save_dictionary(loaded, tmp_path / "dict_b")
        assert p2.read_bytes() == path.read_bytes()

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), grid=small_grids, n=st.integers(1, 6), digest=st.text(max_size=12))
    def test_save_load_save_is_byte_identical(self, data, grid, n, digest):
        m = len(expand_grid(grid))
        atoms = data.draw(hnp.arrays(np.float32, (m, n), elements=st.floats(
            width=32, allow_nan=False, allow_infinity=False)))
        with tempfile.TemporaryDirectory() as tmp:
            (first,) = save_dictionary(Dictionary(atoms, digest, grid), Path(tmp) / "a")
            loaded = load_dictionary(Path(tmp) / "a")
            (second,) = save_dictionary(loaded, Path(tmp) / "b")
            assert second.read_bytes() == first.read_bytes()
        assert loaded.atoms.tobytes() == atoms.tobytes()
        assert (loaded.schedule_digest, loaded.grid) == (digest, grid)

    def test_unsupported_version_rejected_naming_file(self, toy_dictionary, tmp_path):
        # The layout before the manifest line (MRFD, version 1, M, N, atoms,
        # with its grid and digest in a <name>.json beside it) is refused,
        # not read: such a dictionary must be built again.
        d, _ = toy_dictionary
        path = tmp_path / "old.dict"
        path.write_bytes(b"MRFD" + struct.pack("<IQQ", 1, *d.atoms.shape) + d.atoms.tobytes())
        (tmp_path / "old.json").write_text(json.dumps(
            {"grid": d.grid.to_json_dict(), "schedule_digest": d.schedule_digest}))
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: second line is not the ---ATOMS--- delimiter")):
            load_dictionary(tmp_path / "old")

    def test_checkpoint_given_as_a_dictionary_rejected_naming_file(self, tmp_path):
        spec = ModelSpec("ann", input_len=12, ann_hidden=(5, 3))
        path = save_checkpoint(ModelCheckpoint(spec, init_params(spec, seed=0), 4000.0, 500.0, 0),
                               tmp_path / "m.dict")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: second line is not the ---ATOMS--- delimiter")):
            load_dictionary(tmp_path / "m")

    def test_dictionary_given_as_a_checkpoint_rejected_naming_file(self, toy_dictionary,
                                                                   tmp_path):
        (path,) = save_dictionary(toy_dictionary[0], tmp_path / "d")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: second line is not the ---PARAMS--- delimiter")):
            load_checkpoint(path)

    def test_dotted_names_keep_their_dots(self, toy_dictionary, tmp_path):
        # "d.250" and "d.1750" used to both write d.dict and d.json.
        d, _ = toy_dictionary
        short = Dictionary(d.atoms[:, :40], d.schedule_digest, d.grid)
        save_dictionary(d, tmp_path / "d.250")
        save_dictionary(short, tmp_path / "d.1750")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.1750.dict", "d.250.dict"]
        assert load_dictionary(tmp_path / "d.250").atoms.tobytes() == d.atoms.tobytes()
        assert load_dictionary(tmp_path / "d.1750").atoms.tobytes() == short.atoms.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_atoms_rejected_with_rows(self, toy_dictionary, tmp_path, bad):
        d, _ = toy_dictionary
        (path,) = save_dictionary(d, tmp_path / "dict_e")
        atoms = d.atoms.astype("<f4")
        atoms[2, 5] = bad
        atoms[9, 0] = bad
        # Both infinities in one row: its sum is NaN, with no warning.
        atoms[6, 1], atoms[6, 3] = np.inf, -np.inf
        rewrite_dict(path, atoms=atoms.tobytes())
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: atoms holding NaN or inf at rows [2, 6, 9]")):
            load_dictionary(tmp_path / "dict_e")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_save_refuses_atoms_written_nonfinite(self, toy_dictionary, tmp_path, bad):
        # Such a save used to write a .dict file that load_dictionary refuses.
        d, _ = toy_dictionary
        (path,) = save_dictionary(d, tmp_path / "d")
        before = path.read_bytes()
        written = Dictionary(d.atoms.copy(), d.schedule_digest, d.grid)
        written.atoms[4, 2] = bad
        for name in ("d", "e"):
            with pytest.raises(ValueError, match=re.escape(
                    f"{tmp_path / name}.dict: atoms holding NaN or inf at rows [4]")):
                save_dictionary(written, tmp_path / name)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["d.dict"]

    def test_manifest_holds_grid_samples_and_digest_only(self, toy_dictionary, tmp_path):
        d, _ = toy_dictionary
        (path,) = save_dictionary(d, tmp_path / "dict_i")
        line = path.read_bytes().partition(b"\n")[0]
        assert line == json.dumps({"grid": d.grid.to_json_dict(), "n_samples": 80,
                                   "schedule_digest": d.schedule_digest},
                                  sort_keys=True).encode()
        assert path.stat().st_size == len(line) + len(b"\n---ATOMS---\n") + d.atoms.nbytes

    @pytest.mark.parametrize("key", ["labels", "n_atoms"])
    def test_manifest_unknown_key_rejected(self, toy_dictionary, tmp_path, key):
        # Older manifests also listed the labels, which expand_grid derives.
        d, _ = toy_dictionary
        (path,) = save_dictionary(d, tmp_path / "dict_j")
        rewrite_dict(path, {**manifest_line(path), key: []})
        with pytest.raises(ValueError, match=re.escape(f"{path}: unknown manifest keys ['{key}']")):
            load_dictionary(tmp_path / "dict_j")

    def test_rows_disagreeing_with_grid_rejected(self, toy_dictionary, tmp_path):
        # The toy grid has 24 pairs; this one, with T1 up to 1200 ms, has 29.
        d, _ = toy_dictionary
        (path,) = save_dictionary(d, tmp_path / "dict_g")
        manifest = manifest_line(path)
        manifest["grid"]["t1_segments"] = [[200.0, 1200.0, 200.0]]
        rewrite_dict(path, manifest)
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: 24 atom rows, but the grid expands to 29 (T1, T2) pairs")):
            load_dictionary(tmp_path / "dict_g")

    def test_grid_too_fine_to_expand_rejected(self, toy_dictionary, tmp_path):
        # 4e15 T1 values: NumPy refuses their 28.4 PiB before allocating any.
        d, _ = toy_dictionary
        (path,) = save_dictionary(d, tmp_path / "dict_m")
        manifest = manifest_line(path)
        manifest["grid"]["t1_segments"] = [[1.0, 4000.0, 1e-12]]
        rewrite_dict(path, manifest)
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: grid too fine to expand: Unable to allocate")):
            load_dictionary(tmp_path / "dict_m")

    def test_constructor_rejects_rows_disagreeing_with_grid(self, toy_dictionary):
        d, _ = toy_dictionary
        with pytest.raises(ValueError, match=re.escape(
                "23 atom rows, but the grid expands to 24 (T1, T2) pairs")):
            Dictionary(d.atoms[:-1], d.schedule_digest, d.grid)

    @pytest.mark.parametrize("digest", [5, None, b"ab"])
    def test_constructor_rejects_a_digest_that_is_no_string(self, toy_dictionary, digest):
        # A digest of 5 used to be made and saved, and only its manifest's
        # load refused it.
        d, _ = toy_dictionary
        with pytest.raises(ValueError, match=re.escape(
                f"schedule_digest must be a string, got {digest!r}")):
            Dictionary(d.atoms, digest, d.grid)

    @pytest.mark.parametrize("grid", [None, json.loads(TOY_GRID_JSON)], ids=["none", "json"])
    def test_constructor_rejects_a_grid_that_is_no_gridspec(self, toy_dictionary, grid):
        # A grid's JSON dict used to raise AttributeError on t1_segments.
        d, _ = toy_dictionary
        with pytest.raises(ValueError, match=f"grid must be a GridSpec, got {type(grid).__name__}"):
            Dictionary(d.atoms, d.schedule_digest, grid)

    def test_constructor_rejects_atoms_that_are_not_2d(self, toy_dictionary):
        d, _ = toy_dictionary
        with pytest.raises(ValueError, match=re.escape(
                f"atoms must be (B, N) with N >= 1, got ({d.atoms.size},)")):
            Dictionary(d.atoms.ravel(), d.schedule_digest, d.grid)

    def test_constructor_rejects_complex_atoms(self, toy_dictionary):
        # A float32 cast would keep the real part of each atom.
        d, _ = toy_dictionary
        with pytest.raises(ValueError, match="complex atoms"):
            Dictionary(d.atoms * np.exp(0.5j), d.schedule_digest, d.grid)

    def test_atoms_of_no_samples_rejected(self, toy_dictionary, tmp_path):
        # Both used to be accepted, and the first match then failed inside
        # NumPy on a zero-size reduction.
        d, _ = toy_dictionary
        refusal = f"atoms must be (B, N) with N >= 1, got ({d.n_atoms}, 0)"
        with pytest.raises(ValueError, match=re.escape(refusal)):
            Dictionary(np.zeros((d.n_atoms, 0)), d.schedule_digest, d.grid)
        (path,) = save_dictionary(d, tmp_path / "dict_z")
        for atoms in (b"", d.atoms.tobytes()):
            rewrite_dict(path, {**manifest_line(path), "n_samples": 0}, atoms)
            with pytest.raises(ValueError, match=re.escape(
                    f"{path}: n_samples must be at least 1, got 0")):
                load_dictionary(tmp_path / "dict_z")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_constructor_rejects_nonfinite_atoms_with_rows(self, toy_dictionary, bad):
        d, _ = toy_dictionary
        atoms = d.atoms.copy()
        atoms[4, 3] = bad
        atoms[20, 0] = bad
        with pytest.raises(ValueError, match=re.escape("atoms holding NaN or inf at rows [4, 20]")):
            Dictionary(atoms, d.schedule_digest, d.grid)

    @pytest.mark.parametrize("key", ["grid", "schedule_digest", "n_samples"])
    def test_manifest_missing_key_rejected(self, toy_dictionary, tmp_path, key):
        d, _ = toy_dictionary
        (path,) = save_dictionary(d, tmp_path / "dict_h")
        manifest = manifest_line(path)
        del manifest[key]
        rewrite_dict(path, manifest)
        with pytest.raises(ValueError, match=re.escape(f"{path}: manifest lacks ['{key}']")):
            load_dictionary(tmp_path / "dict_h")

    @pytest.mark.parametrize("value, reason", [
        (80.0, "n_samples must be an integer, got 80.0"),
        (True, "n_samples must be an integer, got True"),
        ("80", "n_samples must be an integer, got '80'"),
        (-80, "n_samples must be at least 1, got -80"),
        # 1920 values: 24 rows of 80, which are no whole rows of 7 or 7680.
        (7, "1920 atom values are not whole rows of 7 samples"),
        (7680, "1920 atom values are not whole rows of 7680 samples"),
        (40, "48 atom rows, but the grid expands to 24 (T1, T2) pairs")])
    def test_bad_n_samples_rejected_naming_file(self, toy_dictionary, tmp_path, value, reason):
        d, _ = toy_dictionary
        (path,) = save_dictionary(d, tmp_path / "dict_n")
        rewrite_dict(path, {**manifest_line(path), "n_samples": value})
        with pytest.raises(ValueError, match=re.escape(f"{path}: {reason}")):
            load_dictionary(tmp_path / "dict_n")

    # The manifest line of each case is the text; a text that is no JSON
    # is refused by the container as a header that is not JSON.
    @pytest.mark.parametrize("text, reason", [
        ('["grid", "schedule_digest"]', "manifest must be a JSON object, got list"),
        ('"grid schedule_digest"', "manifest must be a JSON object, got str"),
        ("5", "manifest must be a JSON object, got int"),
        ("null", "manifest must be a JSON object, got NoneType"),
        ("grid: toy", "Expecting value"),
        ("", "Expecting value"),
        (b"\xff\xfe{}", ""),  # not UTF-8
        ('{"grid": %s, "schedule_digest": 5, "n_samples": 80}' % TOY_GRID_JSON,
         "schedule_digest must be a string, got 5"),
        ('{"grid": %s, "schedule_digest": null, "n_samples": 80}' % TOY_GRID_JSON,
         "schedule_digest must be a string, got None"),
        ('{"grid": [], "schedule_digest": "ab", "n_samples": 80}',
         "grid must be a JSON object, got list"),
        # JSON reads this as an int, which float() cannot hold.
        pytest.param('{"grid": {"t1_segments": [[200, 1%s, 200]], "t2_segments": '
                     '[[50, 250, 50]]}, "schedule_digest": "ab", "n_samples": 80}' % ("0" * 399),
                     "grid t1_segments value in segment (200, 1%s, 200) is too large for a float"
                     % ("0" * 399), id="huge_grid_value"),
        pytest.param('{"grid": {"t1_segments": [[0, 1e308, 1e-300]], "t2_segments": '
                     '[[1, 1, 1]]}, "schedule_digest": "ab", "n_samples": 80}',
                     "grid too fine to expand: cannot convert float infinity to integer",
                     id="inf_grid_steps"),
    ])
    def test_corrupt_manifest_rejected_naming_file(self, toy_dictionary, tmp_path,
                                                   text, reason):
        d, _ = toy_dictionary
        (path,) = save_dictionary(d, tmp_path / "dict_k")
        rewrite_dict(path, text if isinstance(text, bytes) else text.encode())
        with pytest.raises(ValueError, match=(
                f"^{re.escape(str(path))}: (header is not JSON: )?{re.escape(reason)}")) as err:
            load_dictionary(tmp_path / "dict_k")
        assert isinstance(text, str) or "'utf-8' codec can't decode" in str(err.value)

    def test_file_cut_before_its_atoms_rejected_naming_file(self, toy_dictionary, tmp_path):
        d, _ = toy_dictionary
        (path,) = save_dictionary(d, tmp_path / "dict_l")
        whole = path.read_bytes()
        atoms_at = len(whole) - d.atoms.nbytes
        # Inside the manifest line, at its end, with its newline, inside the
        # delimiter line: no delimiter follows. After it: no atom rows.
        for size in (2, atoms_at - 13, atoms_at - 12, atoms_at - 5):
            path.write_bytes(whole[:size])
            with pytest.raises(ValueError, match=re.escape(
                    f"{path}: second line is not the ---ATOMS--- delimiter")):
                load_dictionary(tmp_path / "dict_l")
        path.write_bytes(whole[:atoms_at])
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: 0 atom rows, but the grid expands to 24 (T1, T2) pairs")):
            load_dictionary(tmp_path / "dict_l")

    def test_truncated_file_rejected(self, toy_dictionary, tmp_path):
        # Inside a value, inside a row, and at a row boundary.
        d, _ = toy_dictionary
        (path,) = save_dictionary(d, tmp_path / "dict_d")
        whole = path.read_bytes()
        for cut, reason in [(3, f"blob of {d.atoms.nbytes - 3} bytes is not whole float32 values"),
                            (8, "1918 atom values are not whole rows of 80 samples"),
                            (320, "23 atom rows, but the grid expands to 24 (T1, T2) pairs")]:
            path.write_bytes(whole[:-cut])
            with pytest.raises(ValueError, match=re.escape(f"{path}: {reason}")):
                load_dictionary(tmp_path / "dict_d")


def test_build_load_and_first_match_hold_one_float32_matrix(monkeypatch, tmp_path):
    # Traced peaks in units of the float32 atom matrix, M·N·4 bytes: a
    # float64 copy of the atoms alone would take two. At one CPU the build
    # runs in this process, so tracemalloc sees all of it.
    monkeypatch.setattr(parallel, "available_cpus", lambda: 1)
    schedule = default_schedule(64)
    # First calls import modules (np.unique imports numpy.ma), which are no
    # part of a dictionary's cost, so a 4-atom grid makes them first.
    warm = build_dictionary(GridSpec(((100.0, 200.0, 100.0),), ((5.0, 10.0, 5.0),)), schedule)
    save_dictionary(warm, tmp_path / "warm")
    match_batch(load_dictionary(tmp_path / "warm"), warm.atoms)
    grid = GridSpec(((100.0, 4000.0, 10.0),), ((5.0, 500.0, 25.0),))  # 7508 atoms

    def traced_peak(call, *args):
        tracemalloc.start()
        try:
            return call(*args), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    built, build_peak = traced_peak(build_dictionary, grid, schedule)
    unit = built.atoms.size * 4
    assert built.atoms.dtype == np.float32 and built.atoms.nbytes == unit
    save_dictionary(built, tmp_path / "d")
    loaded, load_peak = traced_peak(load_dictionary, tmp_path / "d")
    assert loaded.atoms.tobytes() == built.atoms.tobytes()
    queries = loaded.atoms[:64].astype(np.float64) + 0.01
    _, match_peak = traced_peak(match_batch, loaded, queries)
    assert build_peak <= 2 * unit
    assert load_peak <= 1.25 * unit
    assert match_peak <= 2 * unit
