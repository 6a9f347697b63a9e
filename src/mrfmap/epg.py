"""Extended-phase-graph fingerprint simulation with a Bloch isochromat oracle.

The magnetization of a voxel is tracked as configuration states (F+_k, F-_k,
Z_k): Fourier coefficients of the transverse/longitudinal magnetization over
the intra-voxel dephasing angle. Three operators evolve the states:

* RF rotation mixes (F+_k, F-_k, Z_k) at every order k with the standard
  complex rotation matrix for a pulse of flip angle alpha and phase phi.
* Relaxation scales F states by exp(-dt/T2), Z states by exp(-dt/T1) and
  feeds (1 - exp(-dt/T1)) back into Z_0.
* The spoiler gradient of each TR advances every transverse state by one
  dephasing order (F+ up, F- down, F+_0 refilled from conj(F-_1)).

For a gradient-spoiled train of N excitations the state never exceeds order
N, so tracking K = N orders is lossless and the EPG signal equals the mean
transverse magnetization of any >N uniformly dephased Bloch isochromats.
That equality (to float64 rounding) is the correctness oracle for this
module: ``isochromat_oracle`` simulates the same timeline spin-by-spin.

The public surface is ``TissueParams``, ``simulate_fingerprints`` (the one
simulator, for one tissue or a batch) and ``isochromat_oracle``. The oracle
returns a ``Fingerprint``, which holds only its complex ``samples``; it stays
because ``mrfbench`` reads the oracle's ``samples`` attribute.

``simulate_fingerprints`` is one in-place kernel (Weigel 2015, "Extended
phase graphs: dephasing, RF pulses, and echoes - pure and simple", JMRI):

* Frame. Between pulse i-1 and pulse i the state is stored in the frame of
  pulse i's phase e = exp(i*phi): F+_k = i*e*a_k, F-_k = i*conj(e)*b_k,
  Z_k = z_k. There the RF rotation has real coefficients,
  a' = pp*a + pm*b - s*z, b' = pm*a + pp*b + s*z, z' = s*(a - b)/2 + c*z,
  with pp = cos^2(alpha/2), pm = sin^2(alpha/2), s = sin(alpha) and
  c = cos(alpha). Moving on to the next pulse multiplies a by e/e_next and b
  by its conjugate; the refill F+_0 = conj(F-_0) reads a_0 = -conj(b_0).
* Real or complex. When every RF phase is exactly 0 (the phase of the
  inversion pulse) every frame factor is 1 and a, b and z stay real, so the
  kernel runs on one float64 plane. Otherwise it carries a second plane for
  the imaginary part and turns it with real arithmetic: NumPy's complex
  multiply rounds differently for short inner loops, which would break the
  bit-for-bit equality of a batch with its single-pair runs.
* Layout. States are (planes, orders, batch) arrays, so the active window of
  orders is contiguous. The spoiler shift copies nothing: F+ and F- live in
  buffers of N+K rows whose base offsets move down and up by one per TR.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .schedule import SequenceSchedule


@dataclass(frozen=True)
class TissueParams:
    """A (T1, T2) relaxation-time pair in milliseconds."""

    t1_ms: float
    t2_ms: float

    def __post_init__(self):
        if not (self.t1_ms > 0.0 and self.t2_ms > 0.0):
            raise ValueError(f"relaxation times must be positive, got {self}")
        if self.t2_ms > self.t1_ms:
            raise ValueError(
                f"t2_ms={self.t2_ms} exceeds t1_ms={self.t1_ms}; "
                "no tissue has T2 > T1"
            )


@dataclass(frozen=True)
class Fingerprint:
    """Complex signal evolution sampled at each excitation (the oracle's result)."""

    samples: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "samples",
            np.ascontiguousarray(np.asarray(self.samples, dtype=np.complex128)),
        )


def simulate_fingerprints(params_list, schedule: SequenceSchedule,
                          k_max: int | None = None) -> np.ndarray:
    """Simulate a batch of tissue parameter pairs through one schedule.

    Returns a complex array of shape (len(params_list), n_excitations).
    ``k_max`` keeps the default K = N configuration orders (exact); smaller
    values trade accuracy for speed by truncating high dephasing orders.

    Batching only vectorizes the identical per-pair arithmetic, so each row
    equals the same pair simulated alone, bit for bit, and is independent of
    how a larger batch is split.
    """
    params_list = list(params_list)
    if not params_list:
        raise ValueError("params_list must not be empty")
    n = schedule.n_excitations
    if k_max is None:
        k_max = n
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    # Before excitation i only orders <= i are populated, so orders above N-1
    # are always zero and K = N is already exact.
    kk = min(k_max, n) + 1

    b = len(params_list)
    t1 = np.array([p.t1_ms for p in params_list])
    t2 = np.array([p.t2_ms for p in params_list])
    phases = schedule.rf_phases_rad
    # Interval i runs from the previous pulse (the phase-0 inversion, or
    # equilibrium with dt = 0) to pulse i. Relaxing over it also carries the
    # state into pulse i's frame: a turns by e_{i-1} / e_i, b by its
    # conjugate. With every phase zero no turn happens and the state is real.
    delay = schedule.inversion_delay_ms if schedule.inversion_prep else 0.0
    dt = np.concatenate(([delay], schedule.tr_ms[:-1]))[:, None]
    e1 = np.exp(-dt / t1)                      # (N, B)
    e2 = np.exp(-dt / t2)
    g1 = 1.0 - e1
    turn = -np.diff(phases, prepend=0.0)
    e2_cos = e2 * np.cos(turn)[:, None]
    e2_sin = e2 * np.sin(turn)[:, None]
    planes = 2 if np.any(phases) else 1
    conj_neg = np.array([-1.0, 1.0])[:planes, None]

    # State arrays are (planes, orders, B): the real part, then in the
    # complex case the imaginary part, so every window is contiguous per
    # plane. F+_k = i*e*a_k lives at a_buf[:, op + k] and F-_k = i*conj(e)*b_k
    # at b_buf[:, om + k]. The spoiler shift moves op down and om up by one;
    # the row above a window's top was never written, so it reads as zero.
    a_buf = np.zeros((planes, n + kk - 1, b))
    b_buf = np.zeros((planes, n + kk - 1, b))
    z = np.zeros((planes, kk, b))
    z[0, 0] = 1.0
    scratch = np.empty((3, planes, kk, b))
    a0 = np.zeros((2, n, b))
    op, om = n - 1, 0

    v, sz, t = scratch
    if schedule.inversion_prep:
        _rotate_real(a_buf[:, op:op + 1], b_buf[:, om:om + 1], z[:, :1],
                     v[:, :1], sz[:, :1], t[:, :1], *_rf_real(np.pi))
    rf = _rf_real(schedule.flip_angles_rad)
    turns = turn.tolist()
    w = 1  # populated orders
    for i in range(n):
        a_w, b_w, z_w = a_buf[:, op:op + w], b_buf[:, om:om + w], z[:, :w]
        if turns[i]:
            _turn(a_w, e2_cos[i], e2_sin[i], t[:, :w])
            _turn(b_w, e2_cos[i], -e2_sin[i], t[:, :w])
        else:
            np.multiply(a_w, e2[i], out=a_w)
            np.multiply(b_w, e2[i], out=b_w)
        np.multiply(z_w, e1[i], out=z_w)
        z[0, 0] += g1[i]
        if i:
            op -= 1
            om += 1
            # F+_0 = conj(F-_0) reads a_0 = -conj(b_0) in the pulse frame.
            np.multiply(b_buf[:, om], conj_neg, out=a_buf[:, op])
            w = min(i + 1, kk)
        _rotate_real(a_buf[:, op:op + w], b_buf[:, om:om + w], z[:, :w],
                     v[:, :w], sz[:, :w], t[:, :w], *rf[i])
        a0[:planes, i] = a_buf[:, op]

    # Sample i is F+_0 = i * e_i * a_0 after pulse i, decayed to the echo.
    a0 *= np.exp(-schedule.te_ms / t2)
    x, y = a0
    sin_p, cos_p = np.sin(phases)[:, None], np.cos(phases)[:, None]
    signal = np.empty((b, n), dtype=np.complex128)
    signal.real = (-x * sin_p - y * cos_p).T
    signal.imag = (x * cos_p - y * sin_p).T
    return signal


def _turn(x, p, q, scratch) -> None:
    """x <- (p + i*q) * x in place, for a state with planes (re, im).

    Written with real ufuncs because NumPy's complex multiply rounds
    differently for short inner loops, which would break batch = single.
    """
    re, im = x
    t_re, t_im = scratch[0], scratch[1]
    np.multiply(re, q, out=t_re)
    np.multiply(im, q, out=t_im)
    np.multiply(re, p, out=re)
    np.subtract(re, t_im, out=re)
    np.multiply(im, p, out=im)
    np.add(im, t_re, out=im)


def _rf_real(alpha):
    """(c, s, s/2, (c - 1)/2) of flip angle(s) ``alpha`` for ``_rotate_real``."""
    c, s = np.cos(alpha), np.sin(alpha)
    coeffs = np.stack([c, s, 0.5 * s, 0.5 * (c - 1.0)], axis=-1)
    return coeffs.tolist()


def _rotate_real(a, b, z, v, sz, t, c, s, half_s, half_c1) -> None:
    """RF pulse in its own phase frame, in place; v, sz and t are scratch.

    With F+ = i*e*a, F- = i*conj(e)*b and Z = z the rotation is real:
    a' = pp*a + pm*b - s*z, b' = pm*a + pp*b + s*z, z' = s*(a - b)/2 + c*z
    (pp = cos^2(alpha/2), pm = sin^2(alpha/2), s = sin, c = cos). It is
    computed as a' = a + d, b' = b - d with d = (c - 1)*(a - b)/2 - s*z,
    on each real plane of the state alike.
    """
    np.subtract(a, b, out=v)
    np.multiply(z, s, out=sz)
    np.multiply(z, c, out=z)
    np.multiply(v, half_s, out=t)
    np.add(z, t, out=z)
    np.multiply(v, half_c1, out=v)
    np.subtract(v, sz, out=v)
    np.add(a, v, out=a)
    np.subtract(b, v, out=b)


def isochromat_oracle(params: TissueParams, schedule: SequenceSchedule,
                      n_spins: int) -> Fingerprint:
    """Bloch-summation reference: ``n_spins`` uniformly dephased isochromats.

    Each spin accumulates a fixed dephasing angle 2*pi*j/n_spins per TR in
    place of the EPG shift operator; the returned sample is the complex mean
    transverse magnetization after each excitation. For n_spins >
    n_excitations this equals the EPG result exactly (no order aliasing),
    which is what the EPG tests assert.
    """
    n = schedule.n_excitations
    if n_spins <= n:
        raise ValueError(
            f"n_spins={n_spins} must exceed n_excitations={n} to avoid "
            "dephasing-order aliasing"
        )
    theta = 2.0 * np.pi * np.arange(n_spins) / n_spins
    dephase = np.exp(1j * theta)

    m_xy = np.zeros(n_spins, dtype=np.complex128)
    m_z = np.ones(n_spins, dtype=np.float64)
    e1_tr = np.exp(-schedule.tr_ms / params.t1_ms)
    e2_tr = np.exp(-schedule.tr_ms / params.t2_ms)
    te_decay = np.exp(-schedule.te_ms / params.t2_ms)

    def pulse(alpha, phi):
        nonlocal m_xy, m_z
        cos_half_sq = np.cos(alpha / 2.0) ** 2
        sin_half_sq = np.sin(alpha / 2.0) ** 2
        sin_a = np.sin(alpha)
        e_ip = np.exp(1j * phi)
        m_xy_new = (cos_half_sq * m_xy
                    + e_ip * e_ip * sin_half_sq * np.conj(m_xy)
                    - 1j * e_ip * sin_a * m_z)
        m_z_new = np.cos(alpha) * m_z + sin_a * np.imag(np.conj(e_ip) * m_xy)
        m_xy, m_z = m_xy_new, m_z_new

    if schedule.inversion_prep:
        pulse(np.pi, 0.0)
        e1 = np.exp(-schedule.inversion_delay_ms / params.t1_ms)
        m_xy = m_xy * np.exp(-schedule.inversion_delay_ms / params.t2_ms)
        m_z = e1 * m_z + (1.0 - e1)

    samples = np.empty(n, dtype=np.complex128)
    for i in range(n):
        pulse(schedule.flip_angles_rad[i], schedule.rf_phases_rad[i])
        samples[i] = m_xy.mean() * te_decay
        m_xy = m_xy * e2_tr[i]
        m_z = e1_tr[i] * m_z + (1.0 - e1_tr[i])
        m_xy = m_xy * dephase
    return Fingerprint(samples)
