import numpy as np
import pytest

from mrfmap.epg import (
    EpgState,
    Fingerprint,
    TissueParams,
    isochromat_oracle,
    relax_shift,
    rf_rotation,
    simulate_fingerprint,
    simulate_fingerprints,
)
from mrfmap.schedule import SequenceSchedule, constant_schedule, default_schedule


def random_schedule(rng, n, zero_phase=False):
    """Random schedule; ``zero_phase`` keeps every RF phase at 0 (real state)."""
    return SequenceSchedule(
        flip_angles_rad=rng.uniform(0.05, np.pi / 2, n),
        rf_phases_rad=np.zeros(n) if zero_phase else rng.uniform(-np.pi, np.pi, n),
        tr_ms=rng.uniform(3.0, 12.0, n),
        te_ms=0.0,
        inversion_prep=bool(rng.integers(0, 2)),
        inversion_delay_ms=float(rng.uniform(0.0, 20.0)),
    )


def random_params(rng):
    t1 = float(rng.uniform(100.0, 4000.0))
    t2 = float(rng.uniform(5.0, min(t1, 500.0)))
    return TissueParams(t1, t2)


class TestTissueParams:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            TissueParams(0.0, 10.0)
        with pytest.raises(ValueError):
            TissueParams(1000.0, -1.0)

    def test_rejects_t2_above_t1(self):
        with pytest.raises(ValueError):
            TissueParams(100.0, 200.0)
        TissueParams(100.0, 100.0)  # equality allowed


class TestRfRotation:
    def test_zero_flip_is_identity(self):
        state = EpgState.equilibrium(4)
        state.f_plus[1] = 0.3 + 0.1j
        state.f_minus[1] = 0.3 - 0.1j
        out = rf_rotation(state, 0.0, 1.234)
        np.testing.assert_array_equal(out.f_plus, state.f_plus)
        np.testing.assert_array_equal(out.f_minus, state.f_minus)
        np.testing.assert_array_equal(out.z, state.z)

    def test_ideal_inversion(self):
        out = rf_rotation(EpgState.equilibrium(4), np.pi, 0.0)
        assert abs(out.z[0] + 1.0) < 1e-15
        assert np.all(np.abs(out.f_plus) < 1e-15)
        assert np.all(np.abs(out.f_minus) < 1e-15)

    def test_analytic_90_about_y(self):
        # -i * e^{i pi/2} * sin(pi/2) * 1 = 1
        out = rf_rotation(EpgState.equilibrium(4), np.pi / 2, np.pi / 2)
        assert abs(out.f_plus[0] - 1.0) < 1e-15

    def test_norm_preserved_per_order(self):
        # The Cartesian magnetization norm per order is
        # (|F+|^2 + |F-|^2)/2 + |Z|^2; RF rotation must conserve it.
        rng = np.random.default_rng(7)
        for _ in range(50):
            k = int(rng.integers(0, 5))
            state = EpgState.equilibrium(6)
            state.z[:] = 0.0
            state.f_plus[k] = complex(rng.normal(), rng.normal())
            state.f_minus[k] = complex(rng.normal(), rng.normal())
            state.z[k] = complex(rng.normal(), rng.normal())
            before = (0.5 * (abs(state.f_plus[k]) ** 2 + abs(state.f_minus[k]) ** 2)
                      + abs(state.z[k]) ** 2)
            out = rf_rotation(state, float(rng.uniform(0, np.pi)),
                              float(rng.uniform(-np.pi, np.pi)))
            after = (0.5 * (abs(out.f_plus[k]) ** 2 + abs(out.f_minus[k]) ** 2)
                     + abs(out.z[k]) ** 2)
            assert abs(after - before) < 1e-12

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            rf_rotation(EpgState.equilibrium(2), np.nan, 0.0)


class TestRelaxShift:
    def test_zero_interval_still_shifts(self):
        state = EpgState.equilibrium(4)
        state.f_plus[0] = 0.5 + 0.25j
        state.f_minus[0] = 0.5 - 0.25j
        out = relax_shift(state, 0.0, TissueParams(1000.0, 100.0))
        assert out.z[0] == 1.0  # recovery term is zero
        assert out.f_plus[1] == 0.5 + 0.25j  # shifted up
        # F+_0 refilled from pre-shift conj(F-_1) = 0
        assert out.f_plus[0] == 0.0

    def test_equilibrium_is_fixed_point(self):
        out = relax_shift(EpgState.equilibrium(4), 4.3, TissueParams(1000.0, 100.0))
        assert abs(out.z[0] - 1.0) < 1e-15

    def test_inverted_recovery_matches_scalar_formula(self):
        # Independently evaluated: z0' = E1*(-1) + (1 - E1) = 1 - 2*exp(-dt/T1)
        state = EpgState.equilibrium(4)
        state.z[0] = -1.0
        out = relax_shift(state, 4.3, TissueParams(1000.0, 100.0))
        import math
        expected = -2.0 * math.exp(-4.3 / 1000.0) + 1.0
        assert abs(out.z[0] - expected) < 1e-15

    def test_shift_refills_from_conj_fminus(self):
        state = EpgState.equilibrium(4)
        state.f_minus[1] = 0.25 - 0.5j
        out = relax_shift(state, 0.0, TissueParams(1000.0, 100.0))
        assert out.f_plus[0] == np.conj(0.25 - 0.5j)
        assert out.f_minus[0] == 0.25 - 0.5j

    def test_rejects_negative_interval(self):
        with pytest.raises(ValueError):
            relax_shift(EpgState.equilibrium(2), -1.0, TissueParams(1000.0, 100.0))


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
        fp = simulate_fingerprint(TissueParams(1000.0, 0.01), sched)
        assert np.all(fp.magnitude() <= 1e-6)

    def test_vanishing_t2_no_transverse_carryover(self):
        # At te=0 the echo train reduces to fresh excitation of Z_0 each TR;
        # compare against that closed-form recursion.
        n, alpha, tr, t1 = 40, np.deg2rad(25.0), 4.3, 800.0
        sched = constant_schedule(n, 25.0, tr, inversion_prep=True)
        fp = simulate_fingerprint(TissueParams(t1, 0.01), sched)
        e1 = np.exp(-tr / t1)
        z = -1.0  # after inversion, zero delay
        expected = []
        for _ in range(n):
            expected.append(abs(np.sin(alpha) * z))
            z = np.cos(alpha) * z * e1 + (1.0 - e1)
        np.testing.assert_allclose(fp.magnitude(), expected, atol=1e-6)

    def test_matches_isochromat_oracle_constant_schedule(self):
        sched = constant_schedule(50, 30.0)
        fp = simulate_fingerprint(TissueParams(1000.0, 100.0), sched)
        oracle = isochromat_oracle(TissueParams(1000.0, 100.0), sched, n_spins=128)
        assert np.max(np.abs(fp.samples - oracle.samples)) < 1e-9

    def test_distinguishable_fingerprints(self):
        sched = default_schedule(200)
        a = simulate_fingerprint(TissueParams(800.0, 80.0), sched).magnitude()
        b = simulate_fingerprint(TissueParams(1200.0, 80.0), sched).magnitude()
        dot = float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
        assert dot < 1.0 - 1e-6

    def test_deterministic_bitwise(self):
        sched = default_schedule(100)
        p = TissueParams(900.0, 90.0)
        f1 = simulate_fingerprint(p, sched)
        f2 = simulate_fingerprint(p, sched)
        assert np.array_equal(f1.samples, f2.samples)

    def test_batch_equals_single(self):
        rng = np.random.default_rng(3)
        for zero_phase in (False, True):
            sched = random_schedule(rng, 60, zero_phase=zero_phase)
            params = [random_params(rng) for _ in range(7)]
            batch = simulate_fingerprints(params, sched)
            for i, p in enumerate(params):
                single = simulate_fingerprint(p, sched)
                np.testing.assert_array_equal(batch[i], single.samples)

    @pytest.mark.parametrize("zero_phase", [True, False])
    def test_truncated_orders_match_single_step_loop(self, zero_phase):
        # k_max < N drops orders above K; the single-step operators on an
        # EpgState of K+1 orders truncate the same way after each shift.
        rng = np.random.default_rng(17)
        n = 60
        sched = random_schedule(rng, n, zero_phase=zero_phase)
        sched = SequenceSchedule(sched.flip_angles_rad, sched.rf_phases_rad,
                                 sched.tr_ms, te_ms=0.0, inversion_prep=False)
        params = [random_params(rng) for _ in range(3)]
        full = simulate_fingerprints(params, sched)
        for k in (1, 3, 10):
            got = simulate_fingerprints(params, sched, k_max=k)
            for row, p in zip(got, params):
                state = EpgState.equilibrium(k)
                expected = np.empty(n, dtype=np.complex128)
                for i in range(n):
                    state = rf_rotation(state, sched.flip_angles_rad[i],
                                        sched.rf_phases_rad[i])
                    expected[i] = state.f_plus[0]
                    state = relax_shift(state, sched.tr_ms[i], p)
                assert np.max(np.abs(row - expected)) < 1e-12
            assert np.max(np.abs(got - full)) > 1e-6  # truncation did bite

    def test_z0_imag_zero_for_real_phases(self):
        rng = np.random.default_rng(11)
        n = 40
        sched = SequenceSchedule(
            flip_angles_rad=rng.uniform(0.1, 1.2, n),
            rf_phases_rad=rng.integers(0, 2, n) * np.pi,
            tr_ms=np.full(n, 4.3),
        )
        state = EpgState.equilibrium(n)
        p = TissueParams(1000.0, 80.0)
        state = rf_rotation(state, np.pi, 0.0)
        for i in range(n):
            state = rf_rotation(state, sched.flip_angles_rad[i], sched.rf_phases_rad[i])
            state = relax_shift(state, sched.tr_ms[i], p)
            assert abs(state.z[0].imag) < 1e-12

    def test_inversion_recovery_monotone(self):
        # All flips zero after inversion: z0 follows 1 - 2 exp(-t/T1).
        p = TissueParams(1200.0, 100.0)
        state = rf_rotation(EpgState.equilibrium(8), np.pi, 0.0)
        t = 0.0
        prev = -1.0
        for _ in range(60):
            state = relax_shift(state, 25.0, p)
            t += 25.0
            z0 = state.z[0].real
            assert z0 > prev  # monotone recovery toward +1
            assert abs(z0 - (1.0 - 2.0 * np.exp(-t / p.t1_ms))) < 1e-12
            prev = z0

    def test_state_magnitudes_bounded(self):
        sched = default_schedule(150)
        batch = simulate_fingerprints([TissueParams(500.0, 60.0)], sched)
        assert np.all(np.abs(batch) <= 1.0 + 1e-12)


class TestIsochromatOracle:
    def test_rejects_too_few_spins(self):
        sched = constant_schedule(50, 30.0)
        with pytest.raises(ValueError):
            isochromat_oracle(TissueParams(1000.0, 100.0), sched, n_spins=50)

    def test_zero_flip_gives_zero_signal(self):
        sched = constant_schedule(20, 0.0, inversion_prep=False)
        fp = isochromat_oracle(TissueParams(1000.0, 100.0), sched, n_spins=40)
        assert np.all(fp.magnitude() == 0.0)

    def test_single_90_pulse_full_excitation(self):
        sched = constant_schedule(1, 90.0, inversion_prep=False)
        fp = isochromat_oracle(TissueParams(1000.0, 100.0), sched, n_spins=8)
        assert abs(fp.magnitude()[0] - 1.0) < 1e-12

    def test_agreement_property_randomized(self):
        # EPG with K=N must equal the discrete-isochromat sum to rounding;
        # randomized schedules and tissues, lengths up to 200.
        rng = np.random.default_rng(2024)
        for _ in range(25):
            n = int(rng.integers(5, 200))
            sched = random_schedule(rng, n)
            p = random_params(rng)
            epg = simulate_fingerprint(p, sched)
            oracle = isochromat_oracle(p, sched, n_spins=n + 14)
            assert np.max(np.abs(epg.samples - oracle.samples)) < 1e-9

    def test_agreement_property_randomized_zero_phase(self):
        # Every RF phase 0 runs the real-valued state; same bound as above.
        rng = np.random.default_rng(2025)
        for _ in range(25):
            n = int(rng.integers(5, 200))
            sched = random_schedule(rng, n, zero_phase=True)
            p = random_params(rng)
            epg = simulate_fingerprint(p, sched)
            oracle = isochromat_oracle(p, sched, n_spins=n + 14)
            assert np.max(np.abs(epg.samples - oracle.samples)) < 1e-9


class TestFingerprint:
    def test_magnitude_nonnegative_finite(self):
        fp = Fingerprint(np.array([1 + 1j, -2j, 0.0]))
        mags = fp.magnitude()
        assert np.all(mags >= 0) and np.all(np.isfinite(mags))
        assert len(fp) == 3
