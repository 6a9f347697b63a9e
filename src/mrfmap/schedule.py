"""Excitation schedules for fingerprint simulation.

A schedule is the per-excitation list of RF flip angles, RF phases and
repetition times, plus the preparation settings (inversion pulse, inversion
delay, echo time). Schedules are persisted as a CSV file, angles in radians,
with an optional JSON sidecar holding the preparation settings; the SHA-256
digest of the canonical serialization identifies a schedule in
dictionary/dataset manifests.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SCHEDULE_CSV_HEADER = ["index", "flip_rad", "phase_rad", "tr_ms"]

DEFAULT_N_EXCITATIONS = 1750
DEFAULT_TR_MS = 4.3


@dataclass(frozen=True)
class SequenceSchedule:
    """Per-excitation RF/timing parameters driving the simulator."""

    flip_angles_rad: np.ndarray
    rf_phases_rad: np.ndarray
    tr_ms: np.ndarray
    te_ms: float = 0.0
    inversion_prep: bool = True
    inversion_delay_ms: float = 0.0

    def __post_init__(self):
        flip = np.ascontiguousarray(np.asarray(self.flip_angles_rad, dtype=np.float64))
        phase = np.ascontiguousarray(np.asarray(self.rf_phases_rad, dtype=np.float64))
        tr = np.ascontiguousarray(np.asarray(self.tr_ms, dtype=np.float64))
        object.__setattr__(self, "flip_angles_rad", flip)
        object.__setattr__(self, "rf_phases_rad", phase)
        object.__setattr__(self, "tr_ms", tr)
        n = flip.size
        if n < 1:
            raise ValueError("schedule must contain at least one excitation")
        if phase.size != n or tr.size != n:
            raise ValueError(
                f"schedule arrays must share one length, got "
                f"flip={n}, phase={phase.size}, tr={tr.size}"
            )
        # Comparisons with NaN are false, so non-finite values would pass the
        # range checks below and turn every later simulated sample into NaN.
        for name, values in (("flip angles", flip), ("RF phases", phase),
                             ("repetition times", tr),
                             ("te_ms", self.te_ms),
                             ("inversion_delay_ms", self.inversion_delay_ms)):
            if not np.all(np.isfinite(values)):
                raise ValueError(f"{name} must be finite")
        if np.any(flip < 0.0) or np.any(flip > math.pi):
            raise ValueError("flip angles must lie in [0, pi] radians")
        if np.any(tr <= 0.0):
            raise ValueError("repetition times must be positive")
        if self.te_ms < 0.0:
            raise ValueError("te_ms must be nonnegative")
        if self.te_ms >= float(tr.min()):
            raise ValueError(
                f"te_ms={self.te_ms} must be below the shortest TR ({tr.min()})"
            )
        if self.inversion_delay_ms < 0.0:
            raise ValueError("inversion_delay_ms must be nonnegative")

    @property
    def n_excitations(self) -> int:
        return self.flip_angles_rad.size

    def prep_settings(self) -> dict:
        return {
            "inversion_prep": bool(self.inversion_prep),
            "inversion_delay_ms": float(self.inversion_delay_ms),
            "te_ms": float(self.te_ms),
        }


def default_schedule(n_excitations: int = DEFAULT_N_EXCITATIONS,
                     tr_ms: float = DEFAULT_TR_MS) -> SequenceSchedule:
    """Built-in inversion-prepared schedule with sinusoidal flip-angle lobes.

    Flip angle of excitation i is (10 + 50*|sin(pi*i/250)|) degrees at
    constant phase 0 and constant TR. Users with a specific acquisition
    should load their own schedule from file instead.
    """
    i = np.arange(n_excitations, dtype=np.float64)
    flip_deg = 10.0 + 50.0 * np.abs(np.sin(math.pi * i / 250.0))
    return SequenceSchedule(
        flip_angles_rad=np.deg2rad(flip_deg),
        rf_phases_rad=np.zeros(n_excitations),
        tr_ms=np.full(n_excitations, float(tr_ms)),
    )


def constant_schedule(n_excitations: int, flip_deg: float,
                      tr_ms: float = DEFAULT_TR_MS, *,
                      inversion_prep: bool = True) -> SequenceSchedule:
    """Constant flip-angle schedule, mostly useful for tests and sanity runs."""
    return SequenceSchedule(
        flip_angles_rad=np.full(n_excitations, np.deg2rad(flip_deg)),
        rf_phases_rad=np.zeros(n_excitations),
        tr_ms=np.full(n_excitations, float(tr_ms)),
        inversion_prep=inversion_prep,
    )


def schedule_to_csv_bytes(schedule: SequenceSchedule) -> bytes:
    """Canonical CSV serialization (header ``index,flip_rad,phase_rad,tr_ms``).

    Values are written with ``repr``, which reads back as the same float, so
    a save -> load round trip returns the schedule bit for bit.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SCHEDULE_CSV_HEADER)
    columns = (schedule.flip_angles_rad, schedule.rf_phases_rad, schedule.tr_ms)
    for i, values in enumerate(zip(*(c.tolist() for c in columns))):
        writer.writerow([i, *map(repr, values)])
    return buf.getvalue().encode("utf-8")


def prep_sidecar_bytes(schedule: SequenceSchedule) -> bytes:
    return json.dumps(schedule.prep_settings(), sort_keys=True).encode("utf-8")


def schedule_digest(schedule: SequenceSchedule) -> str:
    """Hex SHA-256 of the canonical schedule serialization.

    Covers the CSV bytes and the preparation sidecar: TE and inversion
    settings change the simulated signal, so they belong in the identity.
    """
    h = hashlib.sha256()
    h.update(schedule_to_csv_bytes(schedule))
    h.update(prep_sidecar_bytes(schedule))
    return h.hexdigest()


def save_schedule(schedule: SequenceSchedule, csv_path: str | Path) -> None:
    """Write the schedule CSV and its ``<stem>.prep.json`` sidecar."""
    csv_path = Path(csv_path)
    csv_path.write_bytes(schedule_to_csv_bytes(schedule))
    sidecar = csv_path.with_suffix(".prep.json")
    sidecar.write_bytes(prep_sidecar_bytes(schedule))


def load_schedule(csv_path: str | Path) -> SequenceSchedule:
    """Load a schedule CSV; preparation settings come from the sidecar if present."""
    csv_path = Path(csv_path)
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if [c.strip() for c in header] != SCHEDULE_CSV_HEADER:
            raise ValueError(
                f"{csv_path}: expected header {','.join(SCHEDULE_CSV_HEADER)}, "
                f"got {','.join(header)}"
            )
        rows = [row for row in reader if row]
    if not rows:
        raise ValueError(f"{csv_path}: schedule has no excitations")
    flip = np.array([float(r[1]) for r in rows])
    phase = np.array([float(r[2]) for r in rows])
    tr = np.array([float(r[3]) for r in rows])

    prep = {"inversion_prep": True, "inversion_delay_ms": 0.0, "te_ms": 0.0}
    sidecar = csv_path.with_suffix(".prep.json")
    if sidecar.exists():
        prep.update(json.loads(sidecar.read_text()))
    return SequenceSchedule(
        flip_angles_rad=flip,
        rf_phases_rad=phase,
        tr_ms=tr,
        te_ms=float(prep["te_ms"]),
        inversion_prep=bool(prep["inversion_prep"]),
        inversion_delay_ms=float(prep["inversion_delay_ms"]),
    )
