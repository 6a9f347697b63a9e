"""Fingerprint dictionary construction, persistence and dot-product matching.

A dictionary holds one L2-normalized magnitude fingerprint per (T1, T2) grid
pair. Matching a measured signal means normalizing it and taking the label of
the atom with the largest inner product — exhaustive search over all rows.

On disk a dictionary is a ``<name>.dict`` binary (magic ``MRFD``, version,
M, N, then M*N little-endian float32 atoms, row-major) plus a ``<name>.json``
manifest carrying the grid specification, the labels and the digest of the
generating schedule. Atom values are quantized to float32 at build time so
the in-memory matrix and the file round-trip bit-exactly; match scores are
still accumulated in float64.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .epg import TissueParams, simulate_fingerprints
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
        t1 = tuple(tuple(float(x) for x in seg) for seg in self.t1_segments)
        t2 = tuple(tuple(float(x) for x in seg) for seg in self.t2_segments)
        object.__setattr__(self, "t1_segments", t1)
        object.__setattr__(self, "t2_segments", t2)
        for seg in t1 + t2:
            if len(seg) != 3:
                raise ValueError(f"segment must be (start, stop, step), got {seg}")
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
        return cls(tuple(tuple(s) for s in d["t1_segments"]),
                   tuple(tuple(s) for s in d["t2_segments"]))


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
    """Row-normalized atom matrix with aligned labels and provenance."""

    atoms: np.ndarray          # (M, N) float64, values exactly f32-representable
    labels: list[TissueParams]
    schedule_digest: str
    grid: GridSpec

    def __post_init__(self):
        if self.atoms.ndim != 2:
            raise ValueError("atoms must be a 2-D matrix")
        if self.atoms.shape[0] != len(self.labels):
            raise ValueError("labels must align with atom rows")

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[0]

    @property
    def n_samples(self) -> int:
        return self.atoms.shape[1]


def available_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def build_plan(n_atoms: int, batch_size: int = 64) -> tuple[int, int]:
    """Atoms per batch and processes ``build_dictionary`` uses for ``n_atoms``.

    Batches hold ``min(batch_size, ceil(n_atoms / cpus))`` atoms, so a grid
    smaller than one batch still spreads over every CPU. Without ``fork``
    the build runs in the calling process alone.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    cpus = available_cpus() if hasattr(os, "fork") else 1
    size = min(batch_size, -(-n_atoms // cpus))
    return size, min(cpus, -(-n_atoms // size))


def _magnitudes(chunk: list[TissueParams], schedule: SequenceSchedule,
                k_max: int | None) -> np.ndarray:
    """float64 magnitude fingerprints of one batch of tissues."""
    return np.abs(simulate_fingerprints(chunk, schedule, k_max=k_max))


def _fan_out(simulate, chunks: list, processes: int):
    """Yield ``(index, simulate(chunks[index]))`` for every chunk, in no fixed order.

    The calling process simulates every ``processes``-th chunk itself and
    ``processes - 1`` forked workers take the rest. A worker's rows are
    collected after each of the caller's own chunks, so the caller holds
    about one batch per worker at a time, not a whole share. A forked worker
    starts without importing NumPy again and runs element-wise NumPy only,
    never BLAS. Shutting the pool down on the way out, also after an error,
    cancels the batches no worker has started and joins the workers.
    """
    # Imported here: they cost about 2 MB of resident memory, which
    # processes that only train or map should not pay.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor, as_completed

    pool = ProcessPoolExecutor(processes - 1,
                               mp_context=multiprocessing.get_context("fork"))
    try:
        pending = {pool.submit(simulate, chunk): i
                   for i, chunk in enumerate(chunks) if i % processes}
        for i in range(0, len(chunks), processes):
            yield i, simulate(chunks[i])
            for future in [f for f in pending if f.done()]:
                yield pending.pop(future), future.result()
        for future in as_completed(pending):
            yield pending.pop(future), future.result()
    finally:
        pool.shutdown(cancel_futures=True)


def build_dictionary(spec: GridSpec, schedule: SequenceSchedule,
                     k_max: int | None = None, batch_size: int = 64) -> Dictionary:
    """Simulate every grid pair and assemble the normalized atom matrix.

    The grid is split into batches of ``min(batch_size, ceil(M / P))``
    atoms, where P is the number of CPUs the process may use
    (``build_plan``). With more than one batch and CPU, the calling process
    simulates every P-th batch and forked workers the rest; otherwise every
    batch runs in the calling process. ``simulate_fingerprints`` gives each
    atom bit for bit the same samples in any batch, so the atoms are
    identical however the grid is split and whichever process simulates it.
    Normalization and float32 quantization run in the calling process.

    ``batch_size`` atoms go through ``simulate_fingerprints`` per call. Small
    batches pay the simulator's per-excitation Python overhead on few atoms;
    large ones push its (orders x batch) state out of the core's cache. Best
    of 4 (N=250, 2048 atoms) and of 2 (N=1750, 512 atoms) runs of the
    default schedule on one core of a 2-core Xeon with 2 MB L2 per core,
    atoms/s:

        batch     16    32    64   128   256   512  2048
        N=250   2410  3443  4450  5207  5180  4183  3027
        N=1750    99   106    94    76    62    56    51

    64 stays within 15% of the best at both lengths.
    """
    labels = expand_grid(spec)
    size, processes = build_plan(len(labels), batch_size)
    chunks = [labels[lo:lo + size] for lo in range(0, len(labels), size)]
    simulate = partial(_magnitudes, schedule=schedule, k_max=k_max)
    batches = (_fan_out(simulate, chunks, processes) if processes > 1
               else enumerate(map(simulate, chunks)))
    atoms = np.empty((len(labels), schedule.n_excitations), dtype=np.float64)
    for i, rows in batches:
        atoms[i * size:i * size + len(rows)] = rows
    norms = np.linalg.norm(atoms, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        bad = [labels[i] for i in np.flatnonzero(norms[:, 0] == 0.0)[:5]]
        raise ValueError(f"zero-signal atoms for {bad}")
    atoms /= norms
    # Quantize to the storage precision so build -> save -> load is identity.
    atoms = atoms.astype(np.float32).astype(np.float64)
    return Dictionary(atoms=atoms, labels=labels,
                      schedule_digest=schedule_digest(schedule), grid=spec)


def match(dictionary: Dictionary, query: np.ndarray) -> tuple[TissueParams, float]:
    """Best (T1, T2) label for a magnitude signal by maximum dot product.

    The query is L2-normalized first, so the returned score lies in [-1, 1]
    and the result is invariant to positive rescaling of the query. Ties
    break toward the lowest row index.
    """
    query = np.asarray(query, dtype=np.float64)
    if query.ndim != 1 or query.size != dictionary.n_samples:
        raise ValueError(
            f"query length {query.size} does not match dictionary "
            f"sample count {dictionary.n_samples}"
        )
    norm = np.linalg.norm(query)
    if norm == 0.0:
        raise ValueError("cannot match an all-zero query")
    if not np.isfinite(norm):
        raise ValueError("cannot match a query holding NaN, inf or overflowing values")
    scores = dictionary.atoms @ (query / norm)
    idx = int(np.argmax(scores))  # argmax returns the first maximal index
    return dictionary.labels[idx], float(scores[idx])


def match_batch(dictionary: Dictionary,
                queries: np.ndarray) -> list[tuple[TissueParams, float]]:
    """Match many signals at once; output order follows input order.

    Invalid rows are rejected up front with an error enumerating every
    offending query index, so a batch never returns partial results.
    """
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != dictionary.n_samples:
        raise ValueError(
            f"queries must be (Q, {dictionary.n_samples}), got {queries.shape}"
        )
    norms = np.linalg.norm(queries, axis=1)
    bad = np.flatnonzero(norms == 0.0)
    if bad.size:
        raise ValueError(f"all-zero queries at indices {bad.tolist()}")
    bad = np.flatnonzero(~np.isfinite(norms))
    if bad.size:
        raise ValueError(
            f"queries holding NaN, inf or overflowing values at indices {bad.tolist()}"
        )
    normalized = queries / norms[:, None]
    # Process in blocks so the score matrix stays around a quarter GB.
    block = max(1, 33_554_432 // dictionary.n_atoms)
    results: list[tuple[TissueParams, float]] = []
    for lo in range(0, normalized.shape[0], block):
        scores = normalized[lo:lo + block] @ dictionary.atoms.T
        best = np.argmax(scores, axis=1)
        results.extend(
            (dictionary.labels[int(i)], float(scores[q, int(i)]))
            for q, i in enumerate(best)
        )
    return results


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
        "labels": [[p.t1_ms, p.t2_ms] for p in dictionary.labels],
        "schedule_digest": dictionary.schedule_digest,
    }
    json_path.write_text(json.dumps(manifest, indent=1, sort_keys=True))
    return dict_path, json_path


def load_dictionary(name: str | Path) -> Dictionary:
    """Read ``<name>.dict`` and ``<name>.json`` as written by ``save_dictionary``.

    Rejects a bad header or size, atoms holding NaN or inf (naming the rows),
    and manifest labels that differ from the expansion of the manifest's grid.
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
    bad = np.flatnonzero(~np.isfinite(atoms).all(axis=1))
    if bad.size:
        raise ValueError(f"{dict_path}: NaN or inf atoms in rows {bad.tolist()}")
    manifest = json.loads(json_path.read_text())
    grid = GridSpec.from_json_dict(manifest["grid"])
    labels = [TissueParams(t1, t2) for t1, t2 in manifest["labels"]]
    expected = expand_grid(grid)
    if labels != expected:
        first = next((i for i, (a, b) in enumerate(zip(labels, expected)) if a != b),
                     min(len(labels), len(expected)))
        raise ValueError(
            f"{json_path}: labels differ from the expansion of the recorded grid "
            f"from row {first} ({len(labels)} labels, {len(expected)} grid pairs)")
    return Dictionary(
        atoms=atoms,
        labels=labels,
        schedule_digest=manifest["schedule_digest"],
        grid=grid,
    )
