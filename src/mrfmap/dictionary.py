"""Fingerprint dictionary construction, persistence and dot-product matching.

A dictionary holds one L2-normalized magnitude fingerprint per (T1, T2) grid
pair. Matching a measured signal means normalizing it and taking the label of
the atom with the largest inner product: the exhaustive float64 argmax over
all rows, ties going to the lowest row index.

Matching runs in two stages, and only the second computes a score. On the
first match a dictionary derives V, its top r = min(RANK, M, N) right
singular vectors, each atom's coordinates c_j = Vᵀa_j and its residual norm
ρ_j = ‖a_j − V c_j‖. By Cauchy–Schwarz a unit query q scores at most
⟨Vᵀq, c_j⟩ + ‖q − VVᵀq‖·ρ_j against atom j, so one float32 product in
r + 1 dimensions bounds every atom's score. The atom of the largest bound is
then scored exactly, as is every atom whose bound reaches that score minus a
rounding slack; every other atom scores strictly less. The slack covers the
rounding of both stages and of the basis (see ``_subspace``), so the result
is the exhaustive argmax whatever the basis: a poor basis costs time, never
a wrong label. An exact score is one row-wise float64 dot product, the same
whichever rows share the call, so ``match`` and ``match_batch`` agree bit
for bit.

On disk a dictionary is a ``<name>.dict`` binary (magic ``MRFD``, version,
M, N, then M*N little-endian float32 atoms, row-major) plus a ``<name>.json``
manifest of two keys, ``grid`` and the generating ``schedule_digest``. Row i
is labelled by pair i of ``expand_grid(grid)``; the ``labels`` older
manifests also hold are ignored. Atom values are quantized to float32 at
build time so the in-memory matrix and the file round-trip bit-exactly;
match scores are still accumulated in float64.
"""

from __future__ import annotations

import json
import math
import numbers
import struct
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .epg import TissueParams, simulate_fingerprints
from .parallel import available_cpus, fan_out
from .schedule import SequenceSchedule, schedule_digest

DICT_MAGIC = b"MRFD"
DICT_VERSION = 1

# Piecewise (start, stop, step) segments in ms. Zero grid values are printed
# in the source ranges but excluded during expansion: exp(-TR/T) is singular
# at T = 0 and no tissue has a zero relaxation time.
PAPER_T1_SEGMENTS = [(0.0, 500.0, 2.0), (500.0, 1000.0, 5.0),
                     (1000.0, 2000.0, 10.0), (2000.0, 4000.0, 50.0)]
PAPER_T2_SEGMENTS = [(0.0, 100.0, 1.0), (100.0, 500.0, 2.0)]


@dataclass(frozen=True)
class GridSpec:
    """Piecewise-linear T1/T2 grids as (start_ms, stop_ms, step_ms) segments."""

    t1_segments: tuple
    t2_segments: tuple

    def __post_init__(self):
        for name in ("t1_segments", "t2_segments"):
            segments = getattr(self, name)
            # A bool is an int to Python, but JSON's true is no time in ms.
            if not (isinstance(segments, (list, tuple)) and all(
                    isinstance(seg, (list, tuple)) and len(seg) == 3
                    and all(isinstance(x, numbers.Real) and not isinstance(x, bool)
                            for x in seg)
                    for seg in segments)):
                raise ValueError(f"grid {name} must be a list of [start, stop, step] "
                                 f"lists of numbers, got {segments!r}")
            object.__setattr__(self, name, tuple(tuple(map(float, seg))
                                                 for seg in segments))
        for seg in self.t1_segments + self.t2_segments:
            # NaN fails every comparison below and inf would overflow the
            # expansion, so both are refused here.
            if not all(math.isfinite(x) for x in seg):
                raise ValueError(f"segment values must be finite, got {seg}")
            start, stop, step = seg
            if step <= 0 or stop < start:
                raise ValueError(f"invalid segment {seg}")

    @classmethod
    def paper_grid(cls) -> "GridSpec":
        return cls(tuple(PAPER_T1_SEGMENTS), tuple(PAPER_T2_SEGMENTS))

    def to_json_dict(self) -> dict:
        return {"t1_segments": [list(s) for s in self.t1_segments],
                "t2_segments": [list(s) for s in self.t2_segments]}

    @classmethod
    def from_json_dict(cls, d: dict) -> "GridSpec":
        """The grid ``to_json_dict`` wrote; anything else raises ValueError."""
        keys = ["t1_segments", "t2_segments"]
        if not isinstance(d, dict):
            raise ValueError(f"grid must be a JSON object, got {type(d).__name__}")
        if sorted(d) != keys:
            raise ValueError(f"grid keys must be {keys}, got {sorted(d)}")
        return cls(d["t1_segments"], d["t2_segments"])


def _expand_segments(segments) -> np.ndarray:
    """Values of a piecewise grid, deduplicated across shared boundaries."""
    values = []
    for start, stop, step in segments:
        n_steps = int(round((stop - start) / step))
        # Walk by integer multiples to avoid accumulating float error.
        seg = start + step * np.arange(n_steps + 1)
        seg = seg[seg <= stop + 1e-9]
        values.append(seg)
    merged = np.concatenate(values)
    return np.unique(merged)


def expand_grid(spec: GridSpec) -> list[TissueParams]:
    """Expand a GridSpec into the lexicographically sorted (T1, T2) pairs.

    Zero values are dropped and pairs violating T2 <= T1 are filtered out.
    """
    t1_values = _expand_segments(spec.t1_segments)
    t2_values = _expand_segments(spec.t2_segments)
    t1_values = t1_values[t1_values > 0.0]
    t2_values = t2_values[t2_values > 0.0]
    pairs = [TissueParams(float(t1), float(t2))
             for t1 in t1_values for t2 in t2_values if t2 <= t1]
    if not pairs:
        raise ValueError("grid expansion produced no valid (T1, T2) pairs")
    return pairs


@dataclass
class Dictionary:
    """Row-normalized atom matrix and its provenance; labels come from the grid.

    The first match derives the matcher's subspace from ``atoms`` and keeps
    it; write a new array to ``atoms`` rather than into the old one.
    """

    atoms: np.ndarray          # (M, N) float64, values exactly f32-representable
    schedule_digest: str
    grid: GridSpec
    labels: list[TissueParams] = field(init=False)  # expand_grid(grid), row by row
    _subspace: tuple | None = field(init=False, default=None, repr=False,
                                    compare=False)  # see ``_subspace``

    def __post_init__(self):
        if self.atoms.ndim != 2:
            raise ValueError("atoms must be a 2-D matrix")
        bad = np.flatnonzero(~np.isfinite(self.atoms).all(axis=1))
        if bad.size:
            raise ValueError(f"NaN or inf atoms in rows {bad.tolist()}")
        self.labels = expand_grid(self.grid)
        if self.atoms.shape[0] != len(self.labels):
            raise ValueError(f"{self.atoms.shape[0]} atom rows, but the grid "
                             f"expands to {len(self.labels)} (T1, T2) pairs")

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[0]

    @property
    def n_samples(self) -> int:
        return self.atoms.shape[1]


def build_plan(n_atoms: int) -> tuple[int, int]:
    """Atoms per batch and processes ``build_dictionary`` uses for ``n_atoms``.

    Batches hold ``min(BATCH_SIZE, ceil(n_atoms / cpus))`` atoms, so a grid
    smaller than one batch still spreads over every CPU. Without ``fork``
    the build runs in the calling process alone.
    """
    cpus = available_cpus()
    size = min(BATCH_SIZE, -(-n_atoms // cpus))
    return size, min(cpus, -(-n_atoms // size))


def _magnitudes(chunk: list[TissueParams], schedule: SequenceSchedule) -> np.ndarray:
    """float64 magnitude fingerprints of one batch of tissues."""
    return np.abs(simulate_fingerprints(chunk, schedule))


# Atoms per ``simulate_fingerprints`` call; see the sweep in
# ``build_dictionary``'s docstring.
BATCH_SIZE = 64


def build_dictionary(spec: GridSpec, schedule: SequenceSchedule) -> Dictionary:
    """Simulate every grid pair and assemble the normalized atom matrix.

    Every build is exact: each atom keeps all K = N dephasing orders. The
    grid is split into batches of ``min(BATCH_SIZE, ceil(M / P))`` atoms,
    where P is the number of CPUs the process may use (``build_plan``).
    With more than one batch and CPU, the calling process simulates every
    P-th batch and forked workers the rest; otherwise every batch runs in
    the calling process. ``simulate_fingerprints`` gives each atom bit for
    bit the same samples in any batch, so the atoms are identical however
    the grid is split and whichever process simulates it. Normalization
    and float32 quantization run in the calling process.

    ``BATCH_SIZE`` atoms go through ``simulate_fingerprints`` per call.
    Small batches pay the simulator's per-excitation Python overhead on few
    atoms; large ones push its (orders x batch) state out of the core's
    cache. Best of 4 (N=250, 2048 atoms) and of 2 (N=1750, 512 atoms) runs
    of the default schedule on one core of a 2-core Xeon with 2 MB L2 per
    core, atoms/s:

        batch     16    32    64   128   256   512  2048
        N=250   2410  3443  4450  5207  5180  4183  3027
        N=1750    99   106    94    76    62    56    51

    64 stays within 15% of the best at both lengths.
    """
    labels = expand_grid(spec)
    size, processes = build_plan(len(labels))
    chunks = [labels[lo:lo + size] for lo in range(0, len(labels), size)]
    simulate = partial(_magnitudes, schedule=schedule)
    atoms = np.empty((len(labels), schedule.n_excitations), dtype=np.float64)
    for i, rows in fan_out(simulate, chunks, processes):
        atoms[i * size:i * size + len(rows)] = rows
    norms = np.linalg.norm(atoms, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        bad = [labels[i] for i in np.flatnonzero(norms[:, 0] == 0.0)[:5]]
        raise ValueError(f"zero-signal atoms for {bad}")
    atoms /= norms
    # Quantize to the storage precision so build -> save -> load is identity.
    atoms = atoms.astype(np.float32).astype(np.float64)
    return Dictionary(atoms, schedule_digest(schedule), spec)


# Dimension of the matcher's subspace; see the sweep in ``match_batch``'s
# docstring.
RANK = 32


def _subspace(dictionary: Dictionary) -> tuple[np.ndarray, np.ndarray, float, float, float]:
    """(V, W, tol, scale, margin) of the certified matcher, derived once per atom array.

    V (N, r) holds the eigenvectors of AᵀA of the r largest eigenvalues,
    and W (r + 1, M) the float32 columns [c_j; ρ_j]/scale, where scale is
    the largest atom norm.

    Rounding, with u = 2⁻⁵³ and δ ≥ ‖VᵀV − I‖ measured here. A query x
    enters as q = x/n, n its computed norm, so ‖q‖² ≤ 1 + (N + 4)u;
    z = fl(Vᵀx)/n is off from Vᵀq by η with ‖η‖ ≤ (√r·N + 1)u, and
    c_j = fl(Vᵀa_j) is off by √r·N·u per unit ‖a_j‖. With e_j = a_j − V c_j
    exactly,

        ⟨q, a_j⟩ = zᵀc_j + ⟨q − Vz, e_j⟩ − ηᵀc_j + zᵀ(Vᵀa_j − c_j) − zᵀ(VᵀV − I)c_j,
        ‖q − Vz‖² = ‖q‖² − ‖z‖² + 2ηᵀz + zᵀ(VᵀV − I)z.

    So ‖q − Vz‖² ≤ fl(1 − ‖z‖²) + ((2√r + 1)N + r + 8)u + δ, and ⟨q, a_j⟩
    exceeds zᵀc_j + ‖q − Vz‖·ρ_j by at most (2√r·N + 1)u + δ per unit
    ‖a_j‖. The computed ρ_j may fall short of ‖e_j‖ by ((√r + 1)N + 2)u
    and an exact score fl(⟨x, a_j⟩)/n errs by (N + 1)u, each per unit
    ‖a_j‖. As r ≤ N, each total is below ((3√r + 4)N + 8)u + δ, and ``tol``
    is twice that, which leaves room for the second-order terms.
    ``_match_rows`` adds tol to 1 − ‖z‖² before the square root.

    The bound product runs in float32 (u₃₂ = 2⁻²⁴) on [z, t] and W, whose
    entries are at most about 1, so nothing overflows. Rounding them to
    float32 moves a bound by 2u₃₂ and the product by (r + 1)u₃₂, each
    relative to Σ|z_k c_jk| + tρ_j ≤ 2‖a_j‖/scale, and rounding a score's
    floor, at most about 1, to float32 moves it by u₃₂. ``margin``, the
    slack below a score in units of scale, is tol plus twice that sum,
    4(r + 4)u₃₂. No basis makes the result wrong; one that captures little
    of the atoms only leaves more atoms to score exactly.
    """
    cached = dictionary._subspace
    if cached is None or cached[0] is not dictionary.atoms:
        atoms = dictionary.atoms
        m, n = atoms.shape
        r = min(RANK, m, n)
        v = np.ascontiguousarray(np.linalg.eigh(atoms.T @ atoms)[1][:, n - r:])
        coords = atoms @ v
        rho = np.concatenate([
            np.linalg.norm(atoms[lo:lo + 4096] - coords[lo:lo + 4096] @ v.T, axis=1)
            for lo in range(0, m, 4096)])
        u = np.finfo(np.float64).eps / 2
        # Frobenius norm of the computed Gram error, plus the r·N·u its
        # computation may hide.
        delta = np.linalg.norm(v.T @ v - np.eye(r)) + r * n * u
        tol = 2.0 * (((3.0 * math.sqrt(r) + 4.0) * n + 8.0) * u + delta)
        scale = float(np.linalg.norm(atoms, axis=1).max()) or 1.0
        margin = tol + 4.0 * (r + 4) * float(np.finfo(np.float32).eps / 2)
        w = np.vstack([coords.T, rho]) / scale
        dictionary._subspace = cached = (atoms, v, w.astype(np.float32), tol, scale, margin)
    return cached[1:]


def _match_rows(dictionary: Dictionary,
                queries: np.ndarray) -> list[tuple[TissueParams, float]]:
    """Best label and score of every row of a (Q, N) float64 query matrix."""
    queries = np.ascontiguousarray(queries)
    norms = np.sqrt(np.einsum("ij,ij->i", queries, queries))
    tiny = np.flatnonzero(norms < 2.0 ** -450)
    if tiny.size:
        # Squares this small lose bits or vanish in underflow, so these rows
        # are scaled to a largest magnitude of 1 first.
        queries = queries.copy()
        queries[tiny] /= np.maximum(np.abs(queries[tiny]).max(axis=1), 2.0 ** -1074)[:, None]
        norms[tiny] = np.linalg.norm(queries[tiny], axis=1)
    bad = np.flatnonzero(norms == 0.0)
    if bad.size:
        raise ValueError(f"all-zero queries at indices {bad.tolist()}")
    bad = np.flatnonzero(~np.isfinite(norms))
    if bad.size:
        raise ValueError(
            f"queries holding NaN, inf or overflowing values at indices {bad.tolist()}"
        )
    v, w, tol, scale, margin = _subspace(dictionary)
    atoms = dictionary.atoms
    # [Vᵀq, ‖q − VVᵀq‖] per unit query q = x/‖x‖, the norm rounded up as
    # ``_subspace`` derives.
    z = (queries @ v) / norms[:, None]
    zt = np.empty((queries.shape[0], v.shape[1] + 1), dtype=np.float32)
    zt[:, :-1] = z
    zt[:, -1] = np.sqrt(np.maximum(1.0 - np.einsum("ij,ij->i", z, z), 0.0) + tol)
    best = np.empty(queries.shape[0], dtype=np.intp)
    scores = np.empty(queries.shape[0])
    # Query blocks whose (rows, M) float32 bounds, about 0.5 MB, stay in
    # the L2 cache.
    block = max(1, 131_072 // dictionary.n_atoms)
    for lo in range(0, queries.shape[0], block):
        x, norm = queries[lo:lo + block], norms[lo:lo + block]
        bounds = zt[lo:lo + block] @ w
        first = np.argmax(bounds, axis=1)
        # An exact score is ⟨x, a_j⟩/‖x‖. Both einsum forms run NumPy's own
        # contiguous dot kernel per (query, atom) pair, so its bits do not
        # depend on which other rows or atoms share the call.
        score = np.einsum("ij,ij->i", x, atoms[first]) / norm
        # A row is open while another atom's bound reaches the floor.
        floor = (score / scale - margin).astype(np.float32)
        bounds[np.arange(first.size), first] = -np.inf
        open_rows = np.flatnonzero(bounds.max(axis=1) >= floor)
        if open_rows.size:
            # Score each open row exactly against every atom open in any
            # row, in ascending order. An atom that is not open in a row
            # scores less than that row's first atom, so it cannot win there.
            cols = np.flatnonzero((bounds >= floor[:, None]).any(axis=0))
            exact = (np.einsum("ij,kj->ik", x[open_rows], atoms[cols])
                     / norm[open_rows, None])
            pick = np.argmax(exact, axis=1)  # the lowest index of the best
            top = exact[np.arange(open_rows.size), pick]
            beats = ((top > score[open_rows])
                     | ((top == score[open_rows]) & (cols[pick] < first[open_rows])))
            first[open_rows[beats]] = cols[pick[beats]]
            score[open_rows[beats]] = top[beats]
        best[lo:lo + block] = first
        scores[lo:lo + block] = score
    return [(dictionary.labels[i], s) for i, s in zip(best.tolist(), scores.tolist())]


def match(dictionary: Dictionary, query: np.ndarray) -> tuple[TissueParams, float]:
    """Best (T1, T2) label for a magnitude signal by maximum dot product.

    This is ``match_batch`` at Q=1: the result equals
    ``match_batch(dictionary, Q)[i]`` bit for bit for any Q whose row i is
    ``query``. The query is L2-normalized first, so the returned score lies
    in [-1, 1] and the result is invariant to positive rescaling of the
    query. The result is the exhaustive float64 argmax, ties breaking toward
    the lowest row index, but found in two stages (see the module
    docstring). First, one float32 product in the dictionary's
    r-dimensional subspace bounds every atom's score by
    ⟨Vᵀq, c_j⟩ + ‖q − VVᵀq‖·ρ_j. Second, the atom of the largest bound is
    scored exactly, in float64 against its full N samples, and so is every
    atom whose bound reaches that score minus a slack that covers all
    rounding: 4(r + 4)·2⁻²⁴ + ((3√r + 4)N + 8)·2⁻⁵² plus twice the
    measured ‖VᵀV − I‖, times the largest atom norm. The best of these, by
    exact score, is the match.
    """
    query = np.asarray(query, dtype=np.float64)
    if query.ndim != 1 or query.size != dictionary.n_samples:
        raise ValueError(
            f"query length {query.size} does not match dictionary "
            f"sample count {dictionary.n_samples}"
        )
    return _match_rows(dictionary, query[None])[0]


def match_batch(dictionary: Dictionary,
                queries: np.ndarray) -> list[tuple[TissueParams, float]]:
    """Match many signals at once; output order follows input order.

    Invalid rows are rejected up front with an error enumerating every
    offending query index, so a batch never returns partial results.
    Each row's result is ``match``'s for that row.

    The subspace has r = min(``RANK``, M, N) dimensions. A small r leaves
    more atoms to score exactly; a large one makes the bound product
    dearer. Median ms per call of 8192 noisy voxels, over 11 passes of the
    map benchmark's 65,536-voxel slice against its 1020 atoms at N=250, on
    one BLAS thread of a 2-core Xeon (the dense float64 product this
    matcher replaced took 141–154 ms, measured alongside):

        r      8    16    24    32    48    64    96
        ms    66    56    58    59    59    63    86

    Ranks 16 to 48 lie within 6% of each other, about the host's
    run-to-run spread, and 32 is in the middle of that range.
    """
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != dictionary.n_samples:
        raise ValueError(
            f"queries must be (Q, {dictionary.n_samples}), got {queries.shape}"
        )
    return _match_rows(dictionary, queries)


def save_dictionary(dictionary: Dictionary, name: str | Path) -> tuple[Path, Path]:
    """Write ``<name>.dict`` and ``<name>.json``; returns both paths."""
    base = Path(name)
    dict_path = base.with_suffix(".dict")
    json_path = base.with_suffix(".json")
    m, n = dictionary.atoms.shape
    with open(dict_path, "wb") as fh:
        fh.write(DICT_MAGIC)
        fh.write(struct.pack("<I", DICT_VERSION))
        fh.write(struct.pack("<QQ", m, n))
        fh.write(np.ascontiguousarray(dictionary.atoms, dtype="<f4").tobytes())
    manifest = {
        "grid": dictionary.grid.to_json_dict(),
        "schedule_digest": dictionary.schedule_digest,
    }
    json_path.write_text(json.dumps(manifest, indent=1, sort_keys=True))
    return dict_path, json_path


def load_dictionary(name: str | Path) -> Dictionary:
    """Read ``<name>.dict`` and ``<name>.json`` as written by ``save_dictionary``.

    Rejects a bad header or size, atoms holding NaN or inf (naming the rows),
    a manifest that is not a JSON object holding a valid grid and a string
    ``schedule_digest``, and a row count other than the number of pairs of
    the manifest's grid, each with a ValueError naming the file.
    """
    base = Path(name)
    dict_path = base.with_suffix(".dict")
    json_path = base.with_suffix(".json")
    blob = dict_path.read_bytes()
    if blob[:4] != DICT_MAGIC:
        raise ValueError(f"{dict_path}: bad magic {blob[:4]!r}")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != DICT_VERSION:
        raise ValueError(f"{dict_path}: unsupported version {version}")
    m, n = struct.unpack_from("<QQ", blob, 8)
    expected = 24 + 4 * m * n
    if len(blob) != expected:
        raise ValueError(f"{dict_path}: expected {expected} bytes, got {len(blob)}")
    atoms = np.frombuffer(blob, dtype="<f4", offset=24).reshape(m, n)
    atoms = atoms.astype(np.float64)
    try:  # a JSON or UTF-8 decoding error is a ValueError too
        manifest = json.loads(json_path.read_text())
        if not isinstance(manifest, dict):
            raise ValueError("manifest must be a JSON object, "
                             f"got {type(manifest).__name__}")
        missing = [key for key in ("grid", "schedule_digest") if key not in manifest]
        if missing:
            raise ValueError(f"manifest lacks {missing}")
        if not isinstance(manifest["schedule_digest"], str):
            raise ValueError("schedule_digest must be a string, "
                             f"got {manifest['schedule_digest']!r}")
        grid = GridSpec.from_json_dict(manifest["grid"])
    except ValueError as err:
        raise ValueError(f"{json_path}: {err}") from None
    try:
        return Dictionary(atoms, manifest["schedule_digest"], grid)
    except ValueError as err:
        raise ValueError(f"{dict_path}: {err} (grid of {json_path})") from None
