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

Before excitation i only orders <= i are populated, so tracking K = N
orders is lossless, and the EPG signal then equals the mean transverse
magnetization of any >N uniformly dephased Bloch isochromats. That equality
(to float64 rounding) is the correctness oracle for this module:
``isochromat_oracle`` simulates the same timeline spin-by-spin.

Order cap. A state of order k has dephased for at least k TRs, so a
short-T2 tissue's high orders are gone to float64 rounding long before step
N. ``order_caps`` keeps, per tissue,

    K = min(N, ceil(T2 * ln(sqrt(2) * N * C / EPSILON) / (2 * TR_min)) - 1),
    C = 2 + sum_i (1 - exp(-dt_i / T1)),

orders, where dt_i runs over every relaxation interval (the inversion
delay, which is 0 in a schedule without the inversion, then every TR but
the last) and TR_min is the shortest interval that precedes a spoiler
shift. Dropping the orders above K moves no sample by more than EPSILON.
Proof: write the state two-sided, F_k = F+_k and F_-k = conj(F-_k)
(likewise Z_-k = conj(Z_k)), so that the shift is F_k -> F_k+1. Let
r = exp(-TR_min / T2) and, for s = +1 or -1,

    ||S||_s^2 = sum over all integers k of r^(2 s |k|) (|F_k|^2 + |Z_k|^2).

* Neither norm grows under RF, relaxation or the shift. A pulse turns the
  Fourier coefficient vectors (Mx, My, Mz) of orders k and -k by one real
  rotation, so it keeps |F_k|^2 + |F_-k|^2 + |Z_k|^2 + |Z_-k|^2, and both
  orders have the same weight. Relaxation scales F by e2 <= 1 and Z by
  e1 <= 1 (a frame turn only changes phases). The shift follows a
  relaxation by some e2 <= r and moves each F_k one order, which changes its
  weight by r^-1 at most.
* The recovery adds 1 - e1 to Z_0, whose weight is 1. From equilibrium
  (norm 1) a run therefore has ||S||_-1 <= C - 1 at every step, capped or
  not, as a cap only removes terms; so |F_k| <= (C - 1) r^|k|.
* A capped run differs from the full one only in that each shift drops
  F_K+1 = e2 F_K, of size <= (C - 1) r^(K+1) (F_-K takes F_-K-1, which a
  capped run never holds). The difference of the two runs evolves by the
  linear part of the same steps, so it is the sum of what the drops become.
  A drop starts with ||.||_+1 <= (C - 1) r^(2(K+1)) and keeps that bound;
  a sample reads F_0, of weight 1, times exp(-TE/T2) <= 1.
* Summing over the N - 1 shifts, |delta s| <= (N - 1)(C - 1) r^(2(K+1)),
  below sqrt(2) N C r^(2(K+1)) <= EPSILON by the choice of K.

The public surface is ``TissueParams``, ``simulate_fingerprints`` (the one
simulator, for one tissue or a batch), ``order_caps`` (the K of each tissue,
for ``EPSILON``), ``orders_kept`` (the share of EPG work those caps leave)
and ``isochromat_oracle``. A batch of tissues is a (B, 2)
array of (T1, T2) in ms, such as a list of ``TissueParams`` labels, and
``_relaxation_times`` is its one check. The oracle returns a ``Fingerprint``
of complex ``samples`` until a change that may edit ``mrfbench`` drops it.

``simulate_fingerprints`` is one in-place kernel (Weigel 2015, "Extended
phase graphs: dephasing, RF pulses, and echoes - pure and simple", JMRI):

* Frame. Between pulse i-1 and pulse i the state is stored in the frame of
  pulse i's phase e = exp(i*phi): F+_k = i*e*a_k, F-_k = i*conj(e)*b_k,
  Z_k = z_k. There the RF rotation has real coefficients,
  a' = pp*a + pm*b - s*z, b' = pm*a + pp*b + s*z, z' = s*(a - b)/2 + c*z,
  with pp = cos^2(alpha/2), pm = sin^2(alpha/2), s = sin(alpha) and
  c = cos(alpha). Moving on to the next pulse relaxes the state, then turns
  a by e/e_next and b by its conjugate: a multiply by the Python-float cos
  and sin of the phase step. The refill F+_0 = conj(F-_0) reads
  a_0 = -conj(b_0).
* Real or complex. When every RF phase is exactly 0 (the phase of the
  inversion pulse) every frame factor is 1 and a, b and z stay real, so the
  kernel runs on one float64 plane. Otherwise it carries a second plane for
  the imaginary part and turns it with real arithmetic: NumPy's complex
  multiply rounds differently for short inner loops, which would break the
  bit-for-bit equality of a batch with its single-pair runs.
* Layout. States are (planes, orders, batch) arrays, so the active window of
  orders is contiguous, and the relaxation factors are (orders, batch)
  tiles of the same rows. The spoiler shift copies nothing: F+ and F- live
  in buffers of N+K rows whose base offsets move down and up by one per TR.
* Relaxation. A (B,) factor broadcast along the orders makes NumPy run one
  inner loop of only B tissues per order row: at 1,750 rows it took 2.7x
  as long as a same-shape multiply at B=12, 2.3x at B=24 and about 2x at
  B=64. So the kernel keeps two (K+1, B) tiles, of exp(-dt/T1) and
  exp(-dt/T2), whose every row holds the current interval's factors, and
  relaxes a, b and z by same-shape multiplies with them. Rows are filled
  as the window grows and refilled from row 0 only when the interval
  differs from the previous step's; the default schedule fills each tile
  twice per call, for the inversion delay and for the TR. Each element is
  still one IEEE product with its own tissue's factor, whatever B is, so a
  batch still equals its rows simulated alone, bit for bit. The tiles cost
  2(K+1)B float64s per call.
* Mixed caps. The window is the group's largest K. After each shift the
  kernel writes +0 into F-_K of every tissue whose own K is smaller, which
  is what that tissue reads there when simulated alone. Its orders <= K
  then see exactly the arithmetic of that lone run, and the orders above,
  which RF never mixes into lower ones, feed nothing back.

Planning. Every tissue in a kernel call sweeps the window of the call's
largest cap, so ``simulate_fingerprints`` first cuts its batch, sorted by
cap, into runs of at most ``BATCH_SIZE`` tissues, one kernel call each.
The work model prices a run at ``GROUP_ROWS`` state rows per excitation, for
the kernel's per-excitation Python overhead, plus its size times the rows
its largest cap sweeps (``_orders_swept``). ``_groups`` finds the runs of
least total cost. On one core of a 2-core Xeon at N=1750, over B = 8, 16,
32 and 64 in three runs, the overhead measured 15-26 us per excitation
(19 in the median; a call whose tissues all keep order 0) and a state row
3.0-3.9 ns at B = 8-16 and 4.3-6.5 ns at B = 32-64 (the extra time of a
K = N window over that call, per row). So a call costs about 3,000-7,000
rows per excitation, 4,300 in the median, and ``GROUP_ROWS`` is 4,000;
any value from 4,000 to 6,000 plans 256 evenly spaced paper-grid atoms
alike.
Seconds of one ``simulate_fingerprints`` call at N=1750, default schedule,
planned and as one kernel call over the batch's largest cap, in two runs
(the median of 3 calls per train seed, the best of 2 for 238 tissues):

    batch                                    one window   planned   groups
    32 stratified off-grid tissues (train)   0.30-0.47    0.16-0.25  2
    238 off-grid tissues, 14 x 17 strata     3.4          0.95       5

The first row is the train benchmark's set-up call for seeds 61-66, the
second ``mrfbench``'s ``stratified_tissues`` over the train ranges at
seed 7. Planning took about 16 us for a batch of 64 that one call suits,
0.1 ms for the train call and 1.7 ms for the 238 tissues.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .files import real_rows
from .schedule import SequenceSchedule


class TissueParams(NamedTuple):
    """A (T1, T2) label in milliseconds; a list of them is a (B, 2) batch."""

    t1_ms: float
    t2_ms: float


class Fingerprint(NamedTuple):
    """Complex signal evolution sampled at each excitation (the oracle's result)."""

    samples: np.ndarray  # (N,) complex128


# Largest change of a sample (samples are bounded by 1) that dropping the
# orders above ``order_caps`` may cause: about float64 rounding at 1.
EPSILON = 1e-16


def _relaxation_times(tissues) -> np.ndarray:
    """``tissues`` as a nonempty (B, 2) float64 array of (T1, T2) in ms
    (``files.real_rows``); rows without 0 < T2 <= T1 are refused by index."""
    tissues = real_rows("tissues", tissues, 2)
    if not len(tissues):
        raise ValueError(f"tissues must be (B, 2) with B >= 1, got {tissues.shape}")
    t1, t2 = tissues.T
    bad = np.flatnonzero(~((0.0 < t2) & (t2 <= t1)))
    if bad.size:
        raise ValueError(f"tissue rows {bad.tolist()} do not have "
                         f"0 < T2 <= T1: {tissues[bad].tolist()}")
    return tissues


def order_caps(tissues, schedule: SequenceSchedule) -> np.ndarray:
    """The highest dephasing order K each tissue keeps (see the module docstring).

    Each K depends only on its tissue and the schedule, never on the other
    rows of the (B, 2) batch, and lies in [0, N].
    """
    t1, t2 = _relaxation_times(tissues).T
    n = schedule.n_excitations
    if n < 2:  # no spoiler shift, so no order above 0 is ever populated
        return np.full(t1.size, n)
    # One contiguous row per distinct T1: a row sum does not depend on
    # which other rows share the call.
    t1_values, t1_index = np.unique(t1, return_inverse=True)
    recovery = 1.0 - np.exp(-_intervals(schedule)[None, :] / t1_values[:, None])
    c = 2.0 + recovery.sum(axis=1)[t1_index]
    rate = np.log(np.sqrt(2.0) * n * c / EPSILON) / (2.0 * float(schedule.tr_ms[:-1].min()))
    # Clipping T2 first keeps an enormous T2 from overflowing the product.
    orders = np.ceil(np.minimum(t2, (n + 1) / rate) * rate) - 1.0
    return np.clip(orders, 0, n).astype(np.int64)


def orders_kept(tissues, schedule: SequenceSchedule) -> float:
    """The EPG work the ``order_caps`` of (B, 2) ``tissues`` leave, as a share
    of the same tissues at K = N, each of which sweeps N(N + 1)/2 state rows.

    The work is the state rows each tissue sweeps alone (``_orders_swept``),
    summed exactly in int64.
    """
    n = schedule.n_excitations
    swept = _orders_swept(order_caps(tissues, schedule), n)
    return float(swept.sum() / (swept.size * n * (n + 1) / 2))


def _intervals(schedule: SequenceSchedule) -> np.ndarray:
    """Relaxation interval before each pulse: the inversion delay, which a
    schedule without the inversion holds as 0, then the TRs."""
    return np.concatenate(([schedule.inversion_delay_ms], schedule.tr_ms[:-1]))


def simulate_fingerprints(tissues, schedule: SequenceSchedule) -> np.ndarray:
    """Simulate a (B, 2) batch of (T1, T2) tissues in ms through one schedule.

    Returns a complex (B, n_excitations) array; ``_relaxation_times`` checks
    the rows. Each tissue keeps the orders ``order_caps`` gives it, which
    moves no sample by more than ``EPSILON`` from keeping all K = N.

    ``_groups`` cuts the batch, in cap order, into groups of at most
    ``BATCH_SIZE`` tissues where the work model of the module docstring is
    least, and the kernel runs once per group. Batching only vectorizes the
    identical per-pair arithmetic, so each row equals the same pair
    simulated alone, bit for bit, however a batch is grouped or split, and
    rows come back in input order.

    Small groups pay the kernel's per-excitation Python overhead on few
    tissues; large ones push its (orders x batch) state out of the core's
    cache. Atoms/s of evenly spaced paper-grid atoms (2048 at N=250, best
    of 3; 512 at N=1750, best of 2; the better of two sweeps) in cap order,
    default schedule, on one core of a 2-core Xeon with 2 MB L2 per core,
    by most tissues per kernel call:

        batch     16    32    64   128   256   512  2048
        N=250   2742  4548  5738  6542  5287  3548  2438
        N=1750   174   196   156   141   131   133   121

    No one size is best at both lengths. In 6 alternating pairs each,
    32 beat 64 on 256 of those atoms at N=1750 (median 186 against 161
    atoms/s) and lost on 1,024 at N=250 (4,405 against 5,658), where 128
    beat 64 in 4 (6,273). ``BATCH_SIZE`` = 64 stays: it is 12% below the
    best at N=250 and 13-20% below it at N=1750.
    """
    tissues = _relaxation_times(tissues)
    caps = order_caps(tissues, schedule)
    signal = np.empty((len(tissues), schedule.n_excitations), dtype=np.complex128)
    for rows in _groups(caps, schedule.n_excitations):
        _kernel(tissues[rows], caps[rows], schedule, signal, rows)
    return signal


# Most tissues per kernel call; see the sweep in ``simulate_fingerprints``'s
# docstring.
BATCH_SIZE = 64

# Modelled cost of one kernel call per excitation, in state rows; see
# "Planning" in the module docstring.
GROUP_ROWS = 4000


def _orders_swept(caps, n: int) -> np.ndarray:
    """Σ_i min(i + 1, K + 1) over N steps: the state rows a run capped at K updates."""
    w = np.minimum(np.asarray(caps, dtype=np.int64) + 1, n)
    return w * (w + 1) // 2 + (n - w) * w


def _by_cap(caps: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Tissue indices in descending order of ``caps`` (ties in input order),
    and the state rows each sweeps alone (``_orders_swept``) in that order."""
    order = np.argsort(-caps, kind="stable")
    return order, _orders_swept(caps[order], n)


def _groups(caps: np.ndarray, n: int) -> list[np.ndarray]:
    """Tissue indices of each kernel call: runs of ``_by_cap`` order of at
    most ``BATCH_SIZE`` tissues whose total modelled cost is least.

    A run costs ``GROUP_ROWS`` per excitation plus its size times the rows
    its first, largest cap sweeps. ``least[j]`` is the least cost of the
    first j tissues and ``start[j]`` where the last run of that plan starts.
    """
    order, swept = _by_cap(caps, n)
    fixed = GROUP_ROWS * n
    # A cut adds a fixed cost and saves at most what one window sweeps
    # beyond each tissue's own rows.
    if order.size <= BATCH_SIZE and order.size * swept[0] - swept.sum() <= fixed:
        return [order]
    swept = swept.tolist()
    least, start = [0], [0]
    for j in range(1, len(swept) + 1):
        at = min(range(max(0, j - BATCH_SIZE), j),
                 key=lambda s: least[s] + (j - s) * swept[s])
        least.append(least[at] + (j - at) * swept[at] + fixed)
        start.append(at)
    cuts = [len(swept)]
    while cuts[-1]:
        cuts.append(start[cuts[-1]])
    cuts.reverse()
    return [order[lo:hi] for lo, hi in zip(cuts, cuts[1:])]


def _kernel(tissues: np.ndarray, caps: np.ndarray, schedule: SequenceSchedule,
            out: np.ndarray, rows: np.ndarray) -> None:
    """Write the complex samples of checked ``tissues``, kept at their
    ``caps``, into ``out[rows]``: one pass over the schedule (see the module
    docstring)."""
    t1, t2 = tissues.T
    n, b = schedule.n_excitations, len(tissues)
    kk = int(caps.max()) + 1
    # Tissues capped below the window, and the F- row each zeroes per shift.
    capped = np.flatnonzero(caps < kk - 1)
    capped_rows = caps[capped]

    phases = schedule.rf_phases_rad
    # Interval i runs from the previous pulse (the phase-0 inversion, or
    # equilibrium with dt = 0) to pulse i. Relaxing over it also carries the
    # state into pulse i's frame: a turns by e_{i-1} / e_i, b by its
    # conjugate. With every phase zero no turn happens and the state is real.
    dt = _intervals(schedule)
    e1 = np.exp(-dt[:, None] / t1)             # (N, B)
    e2 = np.exp(-dt[:, None] / t2)
    g1 = 1.0 - e1
    turn = -np.diff(phases, prepend=0.0)
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
    cos_turn, sin_turn = np.cos(turn).tolist(), np.sin(turn).tolist()
    # Every row of a tile holds the current interval's factors, so the
    # window relaxes by same-shape multiplies. Rows are filled as the window
    # grows, and refilled only when the interval changes.
    e1_tile, e2_tile = np.empty((2, kk, b))
    refill = np.concatenate(([True], dt[1:] != dt[:-1])).tolist()
    filled = 0
    w = 1  # populated orders
    for i in range(n):
        if refill[i]:
            filled = 0
        if filled < w:
            e1_tile[filled:w] = e1[i]
            e2_tile[filled:w] = e2[i]
            filled = w
        a_w, b_w, z_w = a_buf[:, op:op + w], b_buf[:, om:om + w], z[:, :w]
        np.multiply(a_w, e2_tile[:w], out=a_w)
        np.multiply(b_w, e2_tile[:w], out=b_w)
        np.multiply(z_w, e1_tile[:w], out=z_w)
        if turns[i]:
            _turn(a_w, cos_turn[i], sin_turn[i], t[:, :w])
            _turn(b_w, cos_turn[i], -sin_turn[i], t[:, :w])
        z[0, 0] += g1[i]
        if i:
            op -= 1
            om += 1
            if capped.size:  # F-_K of a tissue capped at K takes no F-_K+1
                b_buf[:, om + capped_rows, capped] = 0.0
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
    out.real[rows] = (-x * sin_p - y * cos_p).T
    out.imag[rows] = (x * cos_p - y * sin_p).T


def _turn(x, p: float, q: float, scratch) -> None:
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
    [(t1, t2)] = _relaxation_times([params]).tolist()
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
    e1_tr = np.exp(-schedule.tr_ms / t1)
    e2_tr = np.exp(-schedule.tr_ms / t2)
    te_decay = np.exp(-schedule.te_ms / t2)

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
        e1 = np.exp(-schedule.inversion_delay_ms / t1)
        m_xy = m_xy * np.exp(-schedule.inversion_delay_ms / t2)
        m_z = e1 * m_z + (1.0 - e1)

    samples = np.empty(n, dtype=np.complex128)
    for i in range(n):
        pulse(schedule.flip_angles_rad[i], schedule.rf_phases_rad[i])
        samples[i] = m_xy.mean() * te_decay
        m_xy = m_xy * e2_tr[i]
        m_z = e1_tr[i] * m_z + (1.0 - e1_tr[i])
        m_xy = m_xy * dephase
    return Fingerprint(samples)
