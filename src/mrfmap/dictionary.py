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

On disk a dictionary is one ``<name>.dict`` file, the ``files.write_blob``
container: a one-line JSON manifest of exactly three keys, ``grid``,
``n_samples`` (N) and the generating ``schedule_digest``, the ``---ATOMS---``
delimiter line, then the M*N atoms as little-endian float32, row-major. M is
the grid's number of pairs, and row i is labelled by pair i of
``expand_grid(grid)``. In memory the atoms are the file's float32 values;
match scores are float64, over the rows the matcher widens to score.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace
from functools import cached_property, partial
from pathlib import Path

import numpy as np

from . import epg, parallel
from .epg import TissueParams, order_caps, simulate_fingerprints
from .files import json_object, naming, number, read_blob, real_rows, write_blob
from .schedule import SequenceSchedule, schedule_digest

DELIMITER = b"---ATOMS---\n"

# Piecewise (start, stop, step) segments in ms. Zero grid values are printed
# in the source ranges but excluded during expansion: exp(-TR/T) is singular
# at T = 0 and no tissue has a zero relaxation time.
PAPER_T1_SEGMENTS = [(0.0, 500.0, 2.0), (500.0, 1000.0, 5.0),
                     (1000.0, 2000.0, 10.0), (2000.0, 4000.0, 50.0)]
PAPER_T2_SEGMENTS = [(0.0, 100.0, 1.0), (100.0, 500.0, 2.0)]


@dataclass(frozen=True)
class GridSpec:
    """Piecewise-linear T1/T2 grids as (start_ms, stop_ms, step_ms) segments;
    a grid that ``expand_grid`` would refuse cannot be made, nor one with a
    segment that starts below 0 ms, which no tissue's relaxation time is."""

    t1_segments: tuple
    t2_segments: tuple

    def __post_init__(self):
        for name in ("t1_segments", "t2_segments"):
            segments = getattr(self, name)
            if not (isinstance(segments, (list, tuple)) and all(
                    isinstance(seg, (list, tuple)) and len(seg) == 3 for seg in segments)):
                raise ValueError(f"grid {name} must be a list of [start, stop, step] "
                                 f"lists of numbers, got {segments!r}")
            checked = []
            for seg in segments:
                where = f"grid {name} value in segment {tuple(seg)}"
                start, stop, step = checked_seg = tuple(number(where, x) for x in seg)
                if step <= 0 or stop < start or start < 0:
                    raise ValueError(f"invalid segment {checked_seg}: a segment needs "
                                     f"0 <= start <= stop and step > 0")
                checked.append(checked_seg)
            object.__setattr__(self, name, tuple(checked))
        expand_grid(self)

    @classmethod
    def paper_grid(cls) -> "GridSpec":
        return cls(tuple(PAPER_T1_SEGMENTS), tuple(PAPER_T2_SEGMENTS))

    def to_json_dict(self) -> dict:
        return {"t1_segments": [list(s) for s in self.t1_segments],
                "t2_segments": [list(s) for s in self.t2_segments]}

    @classmethod
    def from_json_dict(cls, d: dict) -> "GridSpec":
        """The grid ``to_json_dict`` wrote; anything else raises ValueError."""
        d = json_object("grid", d, ("t1_segments", "t2_segments"), allowed=())
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


def expand_grid(spec: GridSpec) -> np.ndarray:
    """Expand a GridSpec into the lexicographically sorted (M, 2) array of (T1, T2) in ms.

    Zero values are dropped and pairs violating T2 <= T1 are filtered out. A
    grid of no valid pair, or too fine to expand, raises ValueError: a
    segment's step count may pass what memory or NumPy's index type holds,
    or be no finite number.
    """
    # NumPy refuses an array larger than memory (MemoryError) or than its
    # index type (ValueError) before allocating any.
    try:
        t1_values = _expand_segments(spec.t1_segments)
        t2_values = _expand_segments(spec.t2_segments)
        t1, t2 = np.meshgrid(t1_values[t1_values > 0.0], t2_values[t2_values > 0.0],
                             indexing="ij")
        keep = t2 <= t1
        pairs = np.column_stack([t1[keep], t2[keep]])
    except (MemoryError, OverflowError, ValueError) as err:
        raise ValueError(f"grid too fine to expand: {err}") from None
    if not len(pairs):
        raise ValueError("grid expansion produced no valid (T1, T2) pairs")
    return pairs


@dataclass(frozen=True)
class Dictionary:
    """What a ``.dict`` holds; ``atoms`` of another dtype are rounded to float32.

    Construction refuses atoms that are not finite real (M, N) rows, M the
    grid's number of pairs, a ``schedule_digest`` that is not a string and
    a ``grid`` that is not a ``GridSpec``.
    ``atoms`` is the checked array itself, the caller's own when it is
    already C-contiguous float32: it can be written until the first match
    derives ``_subspace`` from it, and is read-only from then on, so no write
    through it can leave the matcher stale. A view into a larger array can
    still be written through that larger array. So the atoms are checked
    again where they are used: the first match refuses NaN or inf rows by
    index before it freezes them, and ``save_dictionary`` constructs the
    dictionary again before it writes. ``labels`` is a tuple.
    """

    atoms: np.ndarray  # (M, N) float32
    schedule_digest: str
    grid: GridSpec

    def __post_init__(self):
        if not isinstance(self.schedule_digest, str):
            raise ValueError(f"schedule_digest must be a string, got {self.schedule_digest!r}")
        if not isinstance(self.grid, GridSpec):
            raise ValueError(f"grid must be a GridSpec, got {type(self.grid).__name__}")
        object.__setattr__(self, "atoms", real_rows("atoms", self.atoms, dtype=np.float32))
        n_pairs = len(expand_grid(self.grid))
        if self.atoms.shape[0] != n_pairs:
            raise ValueError(f"{self.atoms.shape[0]} atom rows, but the grid "
                             f"expands to {n_pairs} (T1, T2) pairs")

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[0]

    @property
    def n_samples(self) -> int:
        return self.atoms.shape[1]

    @cached_property
    def labels(self) -> tuple[TissueParams, ...]:
        """Each atom row's label, from ``expand_grid(grid)``'s rows on first use."""
        return tuple(TissueParams(*row) for row in expand_grid(self.grid).tolist())

    @cached_property
    def _subspace(self) -> tuple[np.ndarray, np.ndarray, float, float, float]:
        """(V, W, tol, scale, margin) of the certified matcher, derived on first use.

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
        # V and W stand for these atoms, so they are checked as they are
        # now, and can no longer be written.
        real_rows("atoms", self.atoms, dtype=np.float32)
        self.atoms.flags.writeable = False
        m, n = self.atoms.shape
        r = min(RANK, m, n)
        # The float64 work runs over blocks of rows widened one at a time,
        # so no full-size float64 matrix or temporary is made.
        blocks = [slice(lo, lo + 1024) for lo in range(0, m, 1024)]
        gram, norms = np.zeros((n, n)), np.empty(m)
        for rows in blocks:
            block = self.atoms[rows].astype(np.float64)
            gram += block.T @ block
            norms[rows] = np.linalg.norm(block, axis=1)
        v = np.ascontiguousarray(np.linalg.eigh(gram)[1][:, n - r:])
        scale = float(norms.max()) or 1.0
        w = np.empty((r + 1, m), dtype=np.float32)
        for rows in blocks:
            block = self.atoms[rows].astype(np.float64)
            coords = block @ v
            w[:r, rows] = coords.T / scale
            w[r, rows] = np.linalg.norm(block - coords @ v.T, axis=1) / scale
        u = np.finfo(np.float64).eps / 2
        # Frobenius norm of the computed Gram error, plus the r·N·u its
        # computation may hide.
        delta = np.linalg.norm(v.T @ v - np.eye(r)) + r * n * u
        tol = 2.0 * (((3.0 * math.sqrt(r) + 4.0) * n + 8.0) * u + delta)
        margin = tol + 4.0 * (r + 4) * float(np.finfo(np.float32).eps / 2)
        return v, w, tol, scale, margin


def _cuts(head: np.ndarray, limit) -> list[int]:
    """Greedy cut points of batches of at most ``epg.BATCH_SIZE`` atoms costing at most ``limit``.

    A batch that starts at atom lo costs its size times ``head[lo]``, which
    descends with lo and is at most ``limit``.
    """
    cuts = [0]
    while cuts[-1] < head.size:
        lo = cuts[-1]
        cuts.append(min(head.size, lo + min(epg.BATCH_SIZE, int(limit // head[lo]))))
    return cuts


def build_plan(tissues, schedule: SequenceSchedule) -> list[np.ndarray]:
    """The batches ``build_dictionary`` simulates (M, 2) ``tissues`` in: one
    array of row indices into ``tissues`` per ``simulate_fingerprints`` call.

    Atoms are taken in descending order of their ``order_caps``
    (``epg._by_cap``). A batch costs its size times the rows its largest
    cap sweeps. The cut points split them into at most
    ``count = cpus * ceil(M / (cpus * epg.BATCH_SIZE))`` batches of at most
    ``epg.BATCH_SIZE`` atoms each, where the largest batch cost is least;
    ``fan_out`` runs them on up to cpus processes, each taking every
    cpus-th batch, so about count / cpus of them. For M up to cpus ×
    ``epg.BATCH_SIZE`` count is cpus, so one CPU takes such a grid as one
    batch. Above it, cuts every ``epg.BATCH_SIZE`` atoms are one split into
    at most count batches, so the plan's largest cost is never above
    theirs; on 2 CPUs the map benchmark's grid and the paper grid get
    exactly those cuts. Within a batch ``simulate_fingerprints`` makes its
    own cuts. Without ``fork`` the build runs in the calling process alone.
    The plan is only its batches: the share of EPG work the caps leave is
    ``epg.orders_kept``, and the process count ``fan_out``'s.
    """
    n, m, cpus = schedule.n_excitations, len(tissues), parallel.available_cpus()
    order, head = epg._by_cap(order_caps(tissues, schedule), n)
    count = cpus * -(-m // (cpus * epg.BATCH_SIZE))
    # The least largest cost lies between the first atom's and a full batch
    # of it, which the greedy split meets in ceil(M / BATCH_SIZE) batches:
    # bisect for the least limit it meets in at most count.
    limits = range(head[0], min(epg.BATCH_SIZE, m) * head[0] + 1)
    cuts = _cuts(head, limits[bisect.bisect_left(
        limits, True, key=lambda limit: len(_cuts(head, limit)) <= count + 1)])
    return [order[lo:hi] for lo, hi in zip(cuts, cuts[1:])]


def _batch_atoms(chunk: np.ndarray, schedule: SequenceSchedule) -> np.ndarray:
    """Float32 unit rows of one batch's magnitudes; a zero row is refused by (T1, T2)."""
    mags = np.abs(simulate_fingerprints(chunk, schedule))
    norms = np.linalg.norm(mags, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise ValueError(f"zero-signal atoms for (T1, T2) {chunk[norms[:, 0] == 0.0][:5].tolist()}")
    return (mags / norms).astype(np.float32)


def build_dictionary(spec: GridSpec, schedule: SequenceSchedule) -> Dictionary:
    """Simulate every grid pair and assemble the normalized atom matrix.

    Each atom keeps the dephasing orders ``order_caps`` gives it, which
    moves no sample by more than ``EPSILON`` from keeping all K = N.
    ``build_plan`` sorts the atoms by cap and cuts them, by one rule for
    every grid size, into batches whose largest cost is least, one
    ``simulate_fingerprints`` call each, which groups its batch for the
    kernel itself; ``fan_out`` spreads the batches over processes and hands
    their atoms back in batch order. The process that simulates a batch
    also normalizes its rows and rounds them to float32; the caller only
    writes them into the one (M, N) float32 matrix.
    ``simulate_fingerprints`` gives each atom bit for bit the same samples
    in any batch, so the atoms are identical however the grid is split and
    whichever process simulates it, and rows keep ``expand_grid`` order.
    """
    tissues = expand_grid(spec)
    plan = build_plan(tissues, schedule)
    simulate = partial(_batch_atoms, schedule=schedule)
    atoms = np.empty((len(tissues), schedule.n_excitations), dtype=np.float32)
    for rows, batch in zip(plan, parallel.fan_out(simulate, [tissues[rows] for rows in plan])):
        atoms[rows] = batch
    return Dictionary(atoms, schedule_digest(schedule), spec)


# Dimension of the matcher's subspace; see the sweep in ``match_batch``'s
# docstring.
RANK = 32


def _unit_queries(dictionary: Dictionary, queries) -> tuple[np.ndarray, np.ndarray]:
    """Checked (Q, N) float64 query rows and their norms; all-zero rows are
    refused by index."""
    queries = real_rows("queries", queries, dictionary.n_samples)
    norms = np.sqrt(np.einsum("ij,ij->i", queries, queries))
    # Squares this small lose bits or vanish in underflow, and the squared
    # norm of a finite row can overflow, so these rows are scaled to a
    # largest magnitude of 1 first.
    rescale = np.flatnonzero((norms < 2.0 ** -450) | (norms == np.inf))
    if rescale.size:
        queries = queries.copy()
        queries[rescale] /= np.maximum(np.abs(queries[rescale]).max(axis=1),
                                       2.0 ** -1074)[:, None]
        norms[rescale] = np.linalg.norm(queries[rescale], axis=1)
    bad = np.flatnonzero(norms == 0.0)
    if bad.size:
        raise ValueError(f"all-zero queries at rows {bad.tolist()}")
    return queries, norms


def _query_block(dictionary: Dictionary) -> int:
    """Queries per block of ``_match_rows``: their (rows, M) float32
    bounds, about 0.5 MB, stay in the L2 cache."""
    return max(1, 131_072 // dictionary.n_atoms)


def _match_rows(dictionary: Dictionary, queries: np.ndarray,
                norms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best atom row and its score for every row of ``_unit_queries``'s
    (Q, N) rows and norms.

    It reads ``dictionary._subspace`` and the atoms and writes nothing they
    hold, so several threads may run it at once on one dictionary once the
    subspace is derived.
    """
    v, w, tol, scale, margin = dictionary._subspace
    atoms = dictionary.atoms
    # [Vᵀq, ‖q − VVᵀq‖] per unit query q = x/‖x‖, the norm rounded up as
    # ``_subspace`` derives.
    z = (queries @ v) / norms[:, None]
    zt = np.empty((queries.shape[0], v.shape[1] + 1), dtype=np.float32)
    zt[:, :-1] = z
    zt[:, -1] = np.sqrt(np.maximum(1.0 - np.einsum("ij,ij->i", z, z), 0.0) + tol)
    best = np.empty(queries.shape[0], dtype=np.intp)
    scores = np.empty(queries.shape[0])
    block = _query_block(dictionary)
    # Atom tiles whose float64 copy is about 1 MB.
    tile = max(1, 131_072 // dictionary.n_samples)
    for lo in range(0, queries.shape[0], block):
        x, norm = queries[lo:lo + block], norms[lo:lo + block]
        bounds = zt[lo:lo + block] @ w
        first = np.argmax(bounds, axis=1)
        # An exact score is ⟨x, a_j⟩/‖x‖. Both einsum forms run NumPy's own
        # contiguous dot kernel per (query, atom) pair, so its bits do not
        # depend on which other rows or atoms share the call.
        score = np.einsum("ij,ij->i", x, atoms[first].astype(np.float64)) / norm
        # A row is open while another atom's bound reaches the floor.
        floor = (score / scale - margin).astype(np.float32)
        bounds[np.arange(first.size), first] = -np.inf
        open_rows = np.flatnonzero(bounds.max(axis=1) >= floor)
        # Score each open row exactly against every atom open in any open
        # row, one tile at a time in ascending order, so that ties still go
        # to the lowest row and memory does not grow with the open share.
        # An atom that is not open in a row scores less than that row's
        # first atom, so it cannot win there.
        x_open, norm_open = x[open_rows], norm[open_rows, None]
        cols = np.flatnonzero((bounds[open_rows] >= floor[open_rows, None]).any(axis=0))
        for at in range(0, cols.size, tile):
            tile_cols = cols[at:at + tile]
            exact = (np.einsum("ij,kj->ik", x_open, atoms[tile_cols].astype(np.float64))
                     / norm_open)
            pick = np.argmax(exact, axis=1)  # the lowest index of the best
            top = exact[np.arange(open_rows.size), pick]
            beats = ((top > score[open_rows])
                     | ((top == score[open_rows]) & (tile_cols[pick] < first[open_rows])))
            first[open_rows[beats]] = tile_cols[pick[beats]]
            score[open_rows[beats]] = top[beats]
        best[lo:lo + block] = first
        scores[lo:lo + block] = score
    return best, scores


def _labelled(dictionary: Dictionary, best: np.ndarray,
              scores: np.ndarray) -> list[tuple[TissueParams, float]]:
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
    rounding: ``margin`` times the largest atom norm, with ``margin`` and
    its derivation in ``Dictionary._subspace``. The best of these, by exact
    score, is the match.
    """
    query = np.asarray(query)
    if query.ndim != 1 or query.size != dictionary.n_samples:
        raise ValueError(
            f"query length {query.size} does not match dictionary "
            f"sample count {dictionary.n_samples}"
        )
    queries, norms = _unit_queries(dictionary, query[None])
    return _labelled(dictionary, *_match_rows(dictionary, queries, norms))[0]


def match_batch(dictionary: Dictionary,
                queries: np.ndarray) -> list[tuple[TissueParams, float]]:
    """Match many signals at once; output order follows input order.

    Invalid rows are rejected up front with an error enumerating every
    offending query index, so a batch never returns partial results;
    complex queries are refused, as their magnitudes are what matches.
    Each row's result is ``match``'s for that row.

    The caller checks the queries and derives the subspace; then the rows
    are split into S = ``parallel.processes_for(Q // b)`` contiguous slabs
    of near-equal size, b the rows of one query block of ``_match_rows``
    (128 at the map benchmark's 1020 atoms), and ``parallel.thread_map``
    runs one slab per thread. A block bounds about 131,072 (query, atom)
    pairs whatever M. Against the map benchmark's dictionary at N=250
    (noisy atoms, one BLAS thread, 2-core Xeon, medians of 15 alternating
    calls in two runs), two slabs lost to one at 64 queries (0.8-1.1
    against 1.1-1.3 ms) and won from 128 (2.0-2.1 against 1.5-1.6 ms), so
    a batch splits from two blocks.
    The slabs change no bit of any row: an exact score is a row-wise dot
    product, and the bounds only choose which atoms are scored.

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
    queries, norms = _unit_queries(dictionary, queries)
    dictionary._subspace  # derived here, before any thread reads it
    slabs = parallel.processes_for(len(queries) // _query_block(dictionary))
    edges = [len(queries) * i // slabs for i in range(slabs + 1)]
    parts = parallel.thread_map(lambda rows: _match_rows(dictionary, queries[rows], norms[rows]),
                                [slice(lo, hi) for lo, hi in zip(edges, edges[1:])])
    return _labelled(dictionary, *(np.concatenate(part) for part in zip(*parts)))


def save_dictionary(dictionary: Dictionary, name: str | Path) -> tuple[Path]:
    """Write ``<name>.dict`` (a dot in ``name`` is part of the name); returns
    the one path written, as a tuple.

    The atoms can be written until the first match, so the dictionary is
    constructed again first: one it refuses raises a ValueError naming
    ``<name>.dict`` and leaves the file as it was.
    """
    path = Path(f"{name}.dict")
    with naming(path):
        dictionary = replace(dictionary)
    manifest = {"grid": dictionary.grid.to_json_dict(), "n_samples": dictionary.n_samples,
                "schedule_digest": dictionary.schedule_digest}
    write_blob(path, manifest, DELIMITER, [dictionary.atoms])
    return (path,)


def load_dictionary(name: str | Path) -> Dictionary:
    """Read ``<name>.dict`` as written by ``save_dictionary``.

    The atoms are the file's float32 values, read once into an array that
    is writable until the first match (see ``Dictionary``). Rejects, with a
    ValueError naming the file, what ``files.read_blob`` refuses (among it a
    ``.ckpt`` and the older ``MRFD`` binary, which has no manifest line), a
    manifest that is not a JSON object of exactly its three keys, an
    ``n_samples`` that is not a positive integer, atoms that are not whole
    rows of it, and whatever ``Dictionary`` refuses: a grid that is not
    valid or too fine to expand, a row count other than its number of pairs,
    a ``schedule_digest`` that is not a string and rows holding NaN or inf.
    """
    path = Path(f"{name}.dict")
    with naming(path):
        manifest, blob = read_blob(path, DELIMITER)
        manifest = json_object("manifest", manifest, ("grid", "n_samples", "schedule_digest"),
                               allowed=())
        n = number("n_samples", manifest["n_samples"], integral=True)
        if n < 1:
            raise ValueError(f"n_samples must be at least 1, got {n}")
        if blob.size % n:
            raise ValueError(f"{blob.size} atom values are not whole rows of {n} samples")
        return Dictionary(blob.reshape(-1, n), manifest["schedule_digest"],
                          GridSpec.from_json_dict(manifest["grid"]))
