"""Output checks: each compares a program output with a slow reference.

Every function returns True when the output is correct. The benchmark counts
each False as one failed operation and then exits non-zero.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from mrfmap.nn import checkpoint

# Score agreement between two float64 dot-product orders over unit vectors.
SCORE_TOL = 1e-12
# predict_single and predict_batch use different sigmoid formulas.
PREDICT_TOL = 1e-12


def atom_matches_oracle(atom: np.ndarray, oracle_signal: np.ndarray) -> bool:
    """A stored atom equals the normalized isochromat magnitude to float32 rounding.

    Atoms are quantized to float32 after normalization, so each entry may be
    off by half a float32 ulp of its value; one ulp is allowed, plus 1e-12
    for the EPG-versus-isochromat float64 difference.
    """
    ref = np.abs(oracle_signal)
    ref = ref / np.linalg.norm(ref)
    if atom.shape != ref.shape:
        return False
    return bool(np.all(np.abs(atom - ref) <= 2.0**-23 * np.abs(ref) + 1e-12))


def same_dictionary(a, b) -> bool:
    """Two dictionaries hold bit-identical atoms and equal labels."""
    return (a.atoms.shape == b.atoms.shape
            and a.atoms.tobytes() == b.atoms.tobytes()
            and a.labels == b.labels
            and a.schedule_digest == b.schedule_digest)


def naive_scores(atoms: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Float64 scores of one query, one atom at a time."""
    q = np.asarray(query, dtype=np.float64)
    q = q / np.sqrt(np.dot(q, q))
    return np.array([np.dot(atom, q) for atom in atoms])


def batch_match_ok(atoms: np.ndarray, query: np.ndarray,
                   index: int, score: float) -> tuple[bool, bool]:
    """Check one ``match_batch`` row against the naive float64 argmax.

    Returns (correct, exact): correct when the chosen atom's naive score is
    within SCORE_TOL of the naive maximum and of the returned score; exact
    when the chosen index is the naive argmax itself.
    """
    scores = naive_scores(atoms, query)
    best = int(np.argmax(scores))
    correct = (scores[index] >= scores[best] - SCORE_TOL
               and abs(scores[index] - score) <= SCORE_TOL)
    return bool(correct), index == best


def single_match_ok(single, batch) -> bool:
    """``match`` returns the same (label, score) as the matching batch row."""
    (label_s, score_s), (label_b, score_b) = single, batch
    return label_s == label_b and abs(score_s - score_b) <= SCORE_TOL


def predictions_agree(single: np.ndarray, batch_row: np.ndarray) -> bool:
    single, batch_row = np.asarray(single), np.asarray(batch_row)
    return (single.shape == batch_row.shape
            and bool(np.all(np.abs(single - batch_row) <= PREDICT_TOL)))


def finite_step(loss: float, grads: dict) -> bool:
    return bool(np.isfinite(loss)) and all(
        bool(np.all(np.isfinite(g))) for g in grads.values())


def checkpoint_resaves_identically(loaded, saved_bytes: bytes,
                                   path: Path) -> bool:
    """Saving a loaded checkpoint again reproduces the original file bytes."""
    checkpoint.save_checkpoint(loaded, path)
    return Path(path).read_bytes() == saved_bytes
