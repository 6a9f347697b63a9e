import itertools
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from conftest import constant_schedule
from mrfmap import epg
from mrfmap.dictionary import build_plan
from mrfmap.epg import orders_kept
from mrfmap.epg import (
    EPSILON,
    TissueParams,
    isochromat_oracle,
    order_caps,
    simulate_fingerprints,
)
from mrfmap.schedule import SequenceSchedule, default_schedule


def random_schedule(rng, n, zero_phase=False):
    """Random schedule; ``zero_phase`` keeps every RF phase at 0 (real state).

    The inversion delay is drawn either way, so the random stream does not
    depend on the prep, and kept only with the inversion.
    """
    flip = rng.uniform(0.05, np.pi / 2, n)
    phase = np.zeros(n) if zero_phase else rng.uniform(-np.pi, np.pi, n)
    tr = rng.uniform(3.0, 12.0, n)
    prep = bool(rng.integers(0, 2))
    delay = float(rng.uniform(0.0, 20.0))
    return SequenceSchedule(flip_angles_rad=flip, rf_phases_rad=phase, tr_ms=tr, te_ms=0.0,
                            inversion_prep=prep, inversion_delay_ms=delay if prep else 0.0)


def piecewise_tr_schedule(rng, n, zero_phase=False):
    """``random_schedule`` with TR 4.3 ms, then 9 ms from excitation n/3
    and 4.3 ms again from 2n/3: the relaxation interval changes twice after
    the window of orders has grown."""
    sched = random_schedule(rng, n, zero_phase=zero_phase)
    tr = np.full(n, 4.3)
    tr[n // 3:2 * n // 3] = 9.0
    return replace(sched, tr_ms=tr)


def random_params(rng):
    t1 = float(rng.uniform(100.0, 4000.0))
    t2 = float(rng.uniform(5.0, min(t1, 500.0)))
    return TissueParams(t1, t2)


def one_tissue(params, schedule):
    """Complex samples of one tissue through ``simulate_fingerprints``."""
    return simulate_fingerprints([params], schedule)[0]


def pulses(flip_deg, phase_rad=0.0, tr_ms=4.3, inversion_prep=False, **prep):
    """Schedule of the listed flip angles; phases and TRs broadcast to match."""
    flip = np.deg2rad(np.atleast_1d(np.asarray(flip_deg, dtype=np.float64)))
    return SequenceSchedule(
        flip_angles_rad=flip,
        rf_phases_rad=np.broadcast_to(phase_rad, flip.shape),
        tr_ms=np.broadcast_to(tr_ms, flip.shape),
        inversion_prep=inversion_prep,
        **prep,
    )


def epg_reference(params, schedule, k_max):
    """Complex EPG over orders 0..k_max: rotate, record F+_0, relax, shift.

    No inversion pulse and TE = 0. Orders above k_max fall off the top at
    each shift, which is the truncation ``simulate_fingerprints`` makes at
    a tissue's ``order_caps``.
    """
    fp, fm, z = (np.zeros(k_max + 1, dtype=np.complex128) for _ in range(3))
    z[0] = 1.0
    out = np.empty(schedule.n_excitations, dtype=np.complex128)
    for i, (alpha, tr) in enumerate(zip(schedule.flip_angles_rad, schedule.tr_ms)):
        e = np.exp(1j * schedule.rf_phases_rad[i])
        c2, s2, s = np.cos(alpha / 2) ** 2, np.sin(alpha / 2) ** 2, np.sin(alpha)
        fp, fm, z = (c2 * fp + e * e * s2 * fm - 1j * e * s * z,
                     np.conj(e * e) * s2 * fp + c2 * fm + 1j * np.conj(e) * s * z,
                     -0.5j * np.conj(e) * s * fp + 0.5j * e * s * fm + np.cos(alpha) * z)
        out[i] = fp[0]
        e1, e2 = np.exp(-tr / params.t1_ms), np.exp(-tr / params.t2_ms)
        fp, fm, z = fp * e2, fm * e2, z * e1
        z[0] += 1.0 - e1
        fp[1:] = fp[:-1]
        fm[:-1] = fm[1:]
        fm[-1] = 0.0
        fp[0] = np.conj(fm[0])
    return out


def cap_bound(params, schedule, k):
    """The module docstring's bound on what capping at order k moves a sample."""
    n = schedule.n_excitations
    dt = np.concatenate(([schedule.inversion_delay_ms], schedule.tr_ms[:-1]))
    c = 2.0 + np.sum(1.0 - np.exp(-dt / params.t1_ms))
    r = np.exp(-schedule.tr_ms[:-1].min() / params.t2_ms)
    return np.sqrt(2.0) * n * c * r ** (2 * (k + 1))


def short_t2_params(rng, t2_values):
    """One tissue per T2, each with a random T1 of at least T2."""
    return [TissueParams(float(rng.uniform(max(t2, 100.0), 4000.0)), t2) for t2 in t2_values]


# T1 = T2 this large makes every relaxation factor exactly 1.
NO_RELAXATION = TissueParams(1e300, 1e300)


# Row 1 of a 3-row batch, spoilt in one column: T1 = 10 ms or T2 = 900 ms
# puts T2 above T1.
BAD_ROW_CASES = [(column, value) for column in (0, 1)
                 for value in (np.nan, np.inf, -np.inf, 0.0, -5.0, (10.0, 900.0)[column])]


class TestTissueParams:
    """``TissueParams`` is a plain label; the simulator checks the values."""

    def test_rejects_nonpositive(self):
        sched = default_schedule(10)
        for bad in (TissueParams(0.0, 10.0), TissueParams(1000.0, -1.0)):
            with pytest.raises(ValueError, match=re.escape("rows [1]")):
                simulate_fingerprints([TissueParams(1000.0, 10.0), bad], sched)

    def test_rejects_t2_above_t1(self):
        sched = default_schedule(10)
        with pytest.raises(ValueError, match=re.escape("rows [0]")):
            simulate_fingerprints([TissueParams(100.0, 200.0)], sched)
        simulate_fingerprints([TissueParams(100.0, 100.0)], sched)  # equality allowed

    @pytest.mark.parametrize("column, value", BAD_ROW_CASES)
    def test_bad_row_named(self, column, value):
        sched = default_schedule(10)
        tissues = np.array([[1000.0, 100.0], [800.0, 80.0], [1200.0, 50.0]])
        tissues[1, column] = value
        named = re.escape("tissues holding NaN or inf at rows [1]" if not np.isfinite(value)
                          else f"rows [1] do not have 0 < T2 <= T1: {tissues[[1]].tolist()}")
        with pytest.raises(ValueError, match=named):
            simulate_fingerprints(tissues, sched)
        with pytest.raises(ValueError, match=named):
            order_caps(tissues, sched)
        with pytest.raises(ValueError, match=re.escape("rows [0]")):
            isochromat_oracle(TissueParams(*tissues[1]), sched, n_spins=11)
        for good in (0, 2):
            isochromat_oracle(TissueParams(*tissues[good]), sched, n_spins=11)

    def test_complex_rows_refused(self):
        # A float64 cast would keep the real part: this simulated T1 = 1000.
        sched = default_schedule(10)
        for call in (simulate_fingerprints, order_caps, orders_kept, build_plan):
            with pytest.raises(ValueError, match="complex tissues"):
                call(np.array([[1000.0 + 5j, 50.0]]), sched)
        with pytest.raises(ValueError, match="complex tissues"):
            isochromat_oracle(TissueParams(1000.0 + 5j, 50.0), sched, n_spins=11)

    @pytest.mark.parametrize("tissues", [[], [[1000.0, 100.0, 1.0]], [1000.0, 100.0],
                                         np.empty((0, 2))],
                             ids=["empty", "three_columns", "one_dimensional", "no_rows"])
    def test_batch_shape_rejected(self, tissues):
        with pytest.raises(ValueError, match=re.escape("tissues must be (B, 2)")):
            simulate_fingerprints(tissues, default_schedule(10))


class TestRfRotation:
    def test_zero_flip_is_identity(self):
        # Zero flips never tip equilibrium, whatever the phases and the
        # inversion; and a zero flip after a spin echo leaves its sample.
        rng = np.random.default_rng(4)
        p = TissueParams(1000.0, 100.0)
        phases = rng.uniform(-np.pi, np.pi, 30)
        assert np.all(one_tissue(p, pulses(np.zeros(30), phases)) == 0.0)
        # sin(pi) is 1.2e-16 in floating point, so the inversion leaves that much.
        inverted = one_tissue(p, pulses(np.zeros(30), phases, inversion_prep=True))
        assert np.all(np.abs(inverted) < 1e-15)
        echo = one_tissue(p, pulses([90.0, 180.0, 0.0], np.pi / 2))[2]
        for phi in rng.uniform(-np.pi, np.pi, 5):
            sched = pulses([90.0, 180.0, 0.0], [np.pi / 2, np.pi / 2, phi])
            assert abs(one_tissue(p, sched)[2] - echo) < 1e-15

    def test_ideal_inversion(self):
        # Inversion with no delay turns Z_0 = 1 into -1 and leaves no
        # transverse state, so a 90 degree readout about y gives -1.
        sched = pulses([90.0], np.pi / 2, inversion_prep=True)
        assert abs(one_tissue(TissueParams(1000.0, 100.0), sched)[0] + 1.0) < 1e-15

    def test_analytic_90_about_y(self):
        # -i * e^{i pi/2} * sin(pi/2) * 1 = 1
        sched = pulses([90.0], np.pi / 2)
        assert abs(one_tissue(TissueParams(1000.0, 100.0), sched)[0] - 1.0) < 1e-15

    def test_norm_preserved_per_order(self):
        # Without relaxation, a pulse from equilibrium splits Z_0 = 1 into
        # |F+_0| = sin(alpha), read at once, and Z_0 = cos(alpha), read by a
        # 90 degree pulse one TR later; the squares must add up to 1.
        rng = np.random.default_rng(7)
        for _ in range(50):
            alpha = float(rng.uniform(0.0, 180.0))
            sched = pulses([alpha, 90.0], rng.uniform(-np.pi, np.pi, 2))
            s0, s1 = np.abs(one_tissue(NO_RELAXATION, sched))
            assert abs(s0 - np.sin(np.deg2rad(alpha))) < 1e-15
            assert abs(s0 ** 2 + s1 ** 2 - 1.0) < 1e-12

    def test_rejects_nonfinite(self):
        # A pulse reaches the simulator only through a schedule, which
        # refuses non-finite values; finite extremes give finite samples.
        with pytest.raises(ValueError, match=re.escape("NaN or inf at rows [1]")):
            pulses([30.0, np.nan])
        with pytest.raises(ValueError, match=re.escape("NaN or inf at rows [1]")):
            pulses([30.0, 40.0], [0.0, np.inf])
        sched = pulses([180.0, 0.0, 90.0, 1e-300], [1e6, -1e6, 0.0, np.pi],
                       tr_ms=[1e-6, 1e4, 1e-6, 1e4], inversion_prep=True,
                       inversion_delay_ms=1e4)
        params = [TissueParams(1e-3, 1e-3), TissueParams(1e4, 1e-3), NO_RELAXATION]
        assert np.all(np.isfinite(simulate_fingerprints(params, sched)))


class TestRelaxShift:
    def test_equilibrium_is_fixed_point(self):
        # Relaxing the equilibrium state keeps Z_0 = 1 for a 90 degree readout.
        sched = pulses([0.0] * 5 + [90.0], np.pi / 2)
        assert abs(one_tissue(TissueParams(1000.0, 100.0), sched)[-1] - 1.0) < 1e-15

    def test_inverted_recovery_matches_scalar_formula(self):
        # Independently evaluated: z0' = E1*(-1) + (1 - E1) = 1 - 2*exp(-dt/T1)
        sched = pulses([90.0], np.pi / 2, inversion_prep=True, inversion_delay_ms=4.3)
        expected = -2.0 * math.exp(-4.3 / 1000.0) + 1.0
        assert abs(one_tissue(TissueParams(1000.0, 100.0), sched)[0] - expected) < 1e-15

    def test_shift_refills_from_conj_fminus(self):
        # Spin echo about y: 90 sets F+_0 = 1, the shift carries it to F+_1,
        # 180 turns F+_1 into F-_1 = -F+_1, the next shift moves that to
        # F-_0 and refills F+_0 = conj(F-_0). Sample 1 (dephased) is 0 and
        # sample 2, read by a zero flip, is the echo -exp(-2 TR/T2).
        p, tr = TissueParams(1000.0, 50.0), 7.0
        s = one_tissue(p, pulses([90.0, 180.0, 0.0], np.pi / 2, tr_ms=tr))
        assert abs(s[0] - 1.0) < 1e-15
        assert abs(s[1]) < 1e-15
        assert abs(s[2] + np.exp(-2.0 * tr / p.t2_ms)) < 1e-15

    def test_rejects_negative_interval(self):
        # Every interval the simulator relaxes over comes from a schedule,
        # which refuses a negative inversion delay and a non-positive TR.
        with pytest.raises(ValueError, match="inversion_delay_ms"):
            pulses([30.0], inversion_prep=True, inversion_delay_ms=-1.0)
        for tr in (0.0, -1.0):
            with pytest.raises(ValueError, match="repetition times"):
                pulses([30.0], tr_ms=tr)


class TestSimulateFingerprint:
    def test_rejects_empty_schedule(self):
        with pytest.raises(ValueError):
            SequenceSchedule(
                flip_angles_rad=np.array([]),
                rf_phases_rad=np.array([]),
                tr_ms=np.array([]),
            )

    def test_vanishing_t2_kills_echoes(self):
        # With T2 ~ 0, exp(-te/T2) annihilates every echo for any te > 0.
        sched = SequenceSchedule(
            flip_angles_rad=np.full(30, np.deg2rad(30.0)),
            rf_phases_rad=np.zeros(30),
            tr_ms=np.full(30, 4.3),
            te_ms=0.5,
        )
        fp = one_tissue(TissueParams(1000.0, 0.01), sched)
        assert np.all(np.abs(fp) <= 1e-6)

    def test_vanishing_t2_no_transverse_carryover(self):
        # At te=0 the echo train reduces to fresh excitation of Z_0 each TR;
        # compare against that closed-form recursion.
        n, alpha, tr, t1 = 40, np.deg2rad(25.0), 4.3, 800.0
        sched = constant_schedule(n, 25.0, tr, inversion_prep=True)
        fp = one_tissue(TissueParams(t1, 0.01), sched)
        e1 = np.exp(-tr / t1)
        z = -1.0  # after inversion, zero delay
        expected = []
        for _ in range(n):
            expected.append(abs(np.sin(alpha) * z))
            z = np.cos(alpha) * z * e1 + (1.0 - e1)
        np.testing.assert_allclose(np.abs(fp), expected, atol=1e-6)

    def test_matches_isochromat_oracle_constant_schedule(self):
        sched = constant_schedule(50, 30.0)
        fp = one_tissue(TissueParams(1000.0, 100.0), sched)
        oracle = isochromat_oracle(TissueParams(1000.0, 100.0), sched, n_spins=128)
        assert np.max(np.abs(fp - oracle.samples)) < 1e-9

    def test_distinguishable_fingerprints(self):
        sched = default_schedule(200)
        a, b = np.abs(simulate_fingerprints(
            [TissueParams(800.0, 80.0), TissueParams(1200.0, 80.0)], sched))
        dot = float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
        assert dot < 1.0 - 1e-6

    def test_deterministic_bitwise(self):
        sched = default_schedule(100)
        p = TissueParams(900.0, 90.0)
        assert one_tissue(p, sched).tobytes() == one_tissue(p, sched).tobytes()

    def test_batch_equals_single(self):
        # Short-T2 tissues keep fewer orders than the batch's window, and
        # each row must still be that tissue run alone (its own window).
        rng = np.random.default_rng(3)
        for zero_phase, make in itertools.product(
                (False, True), (random_schedule, piecewise_tr_schedule)):
            sched = make(rng, 60, zero_phase=zero_phase)
            params = [random_params(rng) for _ in range(7)]
            params += short_t2_params(rng, [0.5, 1.0, 2.0, 3.0, 5.0])
            caps = order_caps(params, sched)
            assert len(set(caps[7:].tolist())) == 5 and caps[7:].max() < caps.max()
            batch = simulate_fingerprints(params, sched)
            for i, p in enumerate(params):
                assert batch[i].tobytes() == one_tissue(p, sched).tobytes()
            # And the shortest T2 at the bottom of a batch of long ones.
            mixed = simulate_fingerprints(params[::-1], sched)
            assert mixed.tobytes() == batch[::-1].tobytes()
        # At paper length what lies above a tissue's cap in a wider window
        # would reach its samples in the last bits; the kernel keeps it out.
        params = [TissueParams(4000.0, 500.0), TissueParams(4000.0, 100.0),
                  TissueParams(500.0, 20.0), TissueParams(1000.0, 60.0)]
        for sched in (default_schedule(1750), random_schedule(rng, 1750)):
            caps = order_caps(params, sched)
            assert caps[0] == 1750 and np.all(caps[1:] < 1000)
            batch = simulate_fingerprints(params, sched)
            for i, p in enumerate(params):
                assert batch[i].tobytes() == one_tissue(p, sched).tobytes()

    @pytest.mark.parametrize("zero_phase", [True, False])
    def test_truncated_orders_match_single_step_loop(self, zero_phase):
        # Each tissue keeps orders 0..K of its own cap; ``epg_reference`` on
        # K+1 orders truncates the same way after each shift.
        rng = np.random.default_rng(17)
        n = 60
        for make in (random_schedule, piecewise_tr_schedule):
            sched = make(rng, n, zero_phase=zero_phase)
            sched = SequenceSchedule(sched.flip_angles_rad, sched.rf_phases_rad,
                                     sched.tr_ms, te_ms=0.0, inversion_prep=False)
            params = short_t2_params(rng, [0.5, 2.0, 6.0]) + [random_params(rng)]
            caps = order_caps(params, sched)
            assert np.all(caps[:3] < n)  # the first three are really capped
            got = simulate_fingerprints(params, sched)
            for row, p, k in zip(got, params, caps.tolist()):
                assert np.max(np.abs(row - epg_reference(p, sched, k))) < 1e-12

    def test_order_caps_smallest_within_epsilon(self):
        # Each cap is the smallest K whose bound is at most EPSILON, or N;
        # it is the tissue's alone, whatever else is in the list.
        rng = np.random.default_rng(19)
        for zero_phase in (False, True):
            sched = random_schedule(rng, 300, zero_phase=zero_phase)
            params = [random_params(rng) for _ in range(20)]
            params += short_t2_params(rng, [0.01, 0.5, 3.0, 20.0])
            caps = order_caps(params, sched).tolist()
            assert caps == [order_caps([p], sched)[0] for p in params]
            assert min(caps) == 0 and max(caps) == 300 and len(set(caps)) > 3
            for p, k in zip(params, caps):
                assert 0 <= k <= 300
                assert k == 300 or cap_bound(p, sched, k) <= EPSILON
                assert k == 0 or cap_bound(p, sched, k - 1) > EPSILON
        # One excitation has no shift: its one order is always kept.
        assert order_caps(params, pulses([30.0])).tolist() == [1] * len(params)

    def test_cap_error_within_bound(self):
        # Paper length and the paper grid's extreme T1 (2 and 4000 ms) with
        # T2 of 1 and 500 ms. Against all N orders, capping a reference run
        # at k < N moves no sample by more than the module docstring's
        # bound, at the tissue's own cap and at smaller ones where the bound
        # is far above rounding; the simulator's normalized magnitudes stay
        # within 1e-13 of the full reference's.
        n = 1750
        paper = default_schedule(n)
        sched = SequenceSchedule(paper.flip_angles_rad, paper.rf_phases_rad,
                                 paper.tr_ms, inversion_prep=False)
        params = [TissueParams(2.0, 1.0), TissueParams(4000.0, 1.0),
                  TissueParams(4000.0, 500.0)]
        caps = order_caps(params, sched).tolist()
        assert caps[0] < n and caps[1] < n and caps[2] == n
        assert cap_bound(params[0], sched, caps[0]) <= EPSILON
        assert cap_bound(params[1], sched, caps[1]) <= EPSILON
        got = simulate_fingerprints(params, sched)
        for row, p, cap in zip(got, params, caps):
            full = epg_reference(p, sched, n)
            for k in sorted({1, 2, cap // 4, cap // 2, cap}):
                if 0 < k < n:
                    error = np.max(np.abs(epg_reference(p, sched, k) - full))
                    assert error <= cap_bound(p, sched, k)
            unit = np.abs(row) / np.linalg.norm(row)
            unit_full = np.abs(full) / np.linalg.norm(full)
            assert np.max(np.abs(unit - unit_full)) <= 1e-13

    def test_z0_imag_zero_for_real_phases(self):
        # RF phases of 0 and pi keep every state on the imaginary axis of
        # F (and Z real), so the signal has no real part.
        rng = np.random.default_rng(11)
        n = 40
        sched = SequenceSchedule(
            flip_angles_rad=rng.uniform(0.1, 1.2, n),
            rf_phases_rad=rng.integers(0, 2, n) * np.pi,
            tr_ms=np.full(n, 4.3),
        )
        fp = one_tissue(TissueParams(1000.0, 80.0), sched)
        assert np.max(np.abs(fp.real)) < 1e-12
        assert np.min(np.abs(fp.imag)) > 1e-6

    def test_inversion_recovery_monotone(self):
        # Inversion, delay d, then a 90 degree readout about y samples
        # z0 = 1 - 2 exp(-d/T1), which rises monotonically toward +1.
        p = TissueParams(1200.0, 100.0)
        prev = -1.0
        for d in np.arange(25.0, 1525.0, 25.0):
            sched = pulses([90.0], np.pi / 2, inversion_prep=True,
                           inversion_delay_ms=float(d))
            z0 = one_tissue(p, sched)[0]
            assert abs(z0 - (1.0 - 2.0 * np.exp(-d / p.t1_ms))) < 1e-12
            assert z0.real > prev
            prev = z0.real

    def test_state_magnitudes_bounded(self):
        sched = default_schedule(150)
        batch = simulate_fingerprints([TissueParams(500.0, 60.0)], sched)
        assert np.all(np.abs(batch) <= 1.0 + 1e-12)


def rows_swept(k, n):
    """State rows a run capped at order k updates over n excitations."""
    return sum(min(i + 1, k + 1) for i in range(n))


def modelled_cost(groups, caps, n):
    """``GROUP_ROWS`` per excitation per group, plus each group's size times
    the rows its largest cap sweeps."""
    return sum(epg.GROUP_ROWS * n + len(g) * rows_swept(int(caps[g].max()), n)
               for g in groups)


def least_cost(caps, n):
    """The least modelled cost over every split of the cap-sorted batch into
    runs of at most ``BATCH_SIZE``, by trying each set of cut points."""
    order = np.argsort(-caps, kind="stable")
    best = math.inf
    for mask in itertools.product((False, True), repeat=len(caps) - 1):
        cuts = [0, *(i + 1 for i, cut in enumerate(mask) if cut), len(caps)]
        if all(hi - lo <= epg.BATCH_SIZE for lo, hi in zip(cuts, cuts[1:])):
            best = min(best, modelled_cost(
                [order[lo:hi] for lo, hi in zip(cuts, cuts[1:])], caps, n))
    return best


class TestPlanning:
    @pytest.mark.parametrize("zero_phase", [True, False])
    def test_groups_return_rows_in_input_order(self, monkeypatch, zero_phase):
        # Groups of at most 4 and a fixed cost of 1 row per excitation cut
        # this shuffled 15-tissue batch into several kernel calls; each row
        # is still its tissue simulated alone.
        rng = np.random.default_rng(29)
        sched = random_schedule(rng, 60, zero_phase=zero_phase)
        params = [random_params(rng) for _ in range(7)]
        params += short_t2_params(rng, [0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 0.5])
        params = [params[i] for i in rng.permutation(len(params))]
        alone = [one_tissue(p, sched) for p in params]
        monkeypatch.setattr(epg, "BATCH_SIZE", 4)
        monkeypatch.setattr(epg, "GROUP_ROWS", 1)
        calls, real = [], epg._kernel

        def counted(tissues, caps, schedule, out, rows):
            calls.append(len(rows))
            real(tissues, caps, schedule, out, rows)

        monkeypatch.setattr(epg, "_kernel", counted)
        got = simulate_fingerprints(params, sched)
        assert len(calls) >= 4 and sum(calls) == len(params)
        for row, expected in zip(got, alone):
            np.testing.assert_array_equal(row, expected)

    @pytest.mark.parametrize("batch_size, group_rows", [(3, 0), (4, 2), (5, 20), (64, 4000)])
    def test_groups_are_cap_runs_of_least_cost(self, monkeypatch, batch_size, group_rows):
        # Random caps with ties, in batches of 1 to 10 tissues: the groups
        # are runs of descending caps of at most BATCH_SIZE that cover each
        # row once, and cost what the best of every split costs, which is
        # never more than one window over the batch's largest cap.
        monkeypatch.setattr(epg, "BATCH_SIZE", batch_size)
        monkeypatch.setattr(epg, "GROUP_ROWS", group_rows)
        rng = np.random.default_rng(batch_size)
        n = 40
        for b in [*range(1, 11)] * 3:
            caps = rng.choice(rng.integers(0, n + 1, 4), b)
            groups = epg._groups(caps, n)
            rows = np.concatenate(groups)
            assert sorted(rows.tolist()) == list(range(b))
            assert np.all(np.diff(caps[rows]) <= 0)
            assert all(1 <= len(g) <= batch_size for g in groups)
            cost = modelled_cost(groups, caps, n)
            assert cost == least_cost(caps, n)
            if b <= batch_size:
                assert cost <= modelled_cost([np.arange(b)], caps, n)

    def test_train_setup_batch_is_cut(self):
        # 32 off-grid tissues of the train benchmark's ranges at paper
        # length, caps 27 to 1750: cutting pays, and the cost falls below
        # one kernel call over the largest cap.
        rng = np.random.default_rng(61)
        u1 = (np.arange(4)[:, None] + rng.random((4, 8))) / 4
        u2 = (np.arange(8)[None, :] + rng.random((4, 8))) / 8
        tissues = np.column_stack([(500.0 * 8.0 ** u1).ravel(), (5.0 * 100.0 ** u2).ravel()])
        caps = order_caps(tissues, default_schedule(1750))
        assert caps.min() < 100 and caps.max() == 1750
        groups = epg._groups(caps, 1750)
        assert len(groups) > 1
        assert modelled_cost(groups, caps, 1750) < modelled_cost([np.arange(32)], caps, 1750)


class TestIsochromatOracle:
    def test_rejects_too_few_spins(self):
        sched = constant_schedule(50, 30.0)
        with pytest.raises(ValueError):
            isochromat_oracle(TissueParams(1000.0, 100.0), sched, n_spins=50)

    def test_zero_flip_gives_zero_signal(self):
        sched = constant_schedule(20, 0.0, inversion_prep=False)
        fp = isochromat_oracle(TissueParams(1000.0, 100.0), sched, n_spins=40)
        assert np.all(fp.samples == 0.0)

    def test_single_90_pulse_full_excitation(self):
        sched = constant_schedule(1, 90.0, inversion_prep=False)
        fp = isochromat_oracle(TissueParams(1000.0, 100.0), sched, n_spins=8)
        assert abs(abs(fp.samples[0]) - 1.0) < 1e-12

    def test_agreement_property_randomized(self):
        # EPG with K=N must equal the discrete-isochromat sum to rounding;
        # randomized schedules and tissues, lengths up to 200.
        rng = np.random.default_rng(2024)
        for _ in range(25):
            n = int(rng.integers(5, 200))
            sched = random_schedule(rng, n)
            p = random_params(rng)
            oracle = isochromat_oracle(p, sched, n_spins=n + 14)
            assert np.max(np.abs(one_tissue(p, sched) - oracle.samples)) < 1e-9

    def test_agreement_property_randomized_zero_phase(self):
        # Every RF phase 0 runs the real-valued state; same bound as above.
        rng = np.random.default_rng(2025)
        for _ in range(25):
            n = int(rng.integers(5, 200))
            sched = random_schedule(rng, n, zero_phase=True)
            p = random_params(rng)
            oracle = isochromat_oracle(p, sched, n_spins=n + 14)
            assert np.max(np.abs(one_tissue(p, sched) - oracle.samples)) < 1e-9

