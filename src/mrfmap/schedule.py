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
from contextlib import contextmanager
from dataclasses import dataclass, replace
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


def default_schedule(n_excitations: int = DEFAULT_N_EXCITATIONS) -> SequenceSchedule:
    """Built-in inversion-prepared schedule with sinusoidal flip-angle lobes.

    Flip angle of excitation i is (10 + 50*|sin(pi*i/250)|) degrees at
    constant phase 0 and a constant TR of ``DEFAULT_TR_MS``. Users with a
    specific acquisition should load their own schedule from file instead.
    """
    i = np.arange(n_excitations, dtype=np.float64)
    flip_deg = 10.0 + 50.0 * np.abs(np.sin(math.pi * i / 250.0))
    return SequenceSchedule(
        flip_angles_rad=np.deg2rad(flip_deg),
        rf_phases_rad=np.zeros(n_excitations),
        tr_ms=np.full(n_excitations, DEFAULT_TR_MS),
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


@contextmanager
def _naming(path: Path):
    """Start the message of a ValueError raised in the block with ``path``."""
    try:
        yield
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def load_schedule(csv_path: str | Path) -> SequenceSchedule:
    """Load a schedule CSV; preparation settings come from the sidecar if present.

    A row must hold its index (0, 1, 2, ... in order) and three numbers. A
    setting the sidecar omits keeps its ``SequenceSchedule`` default; an
    unknown key, an ``inversion_prep`` other than a JSON boolean and a time
    other than a JSON number are refused. Every ValueError starts with the
    path of the file at fault: the CSV for its text and the values it holds,
    the sidecar for its text and its settings (a TE not below the CSV's
    shortest TR included).
    """
    csv_path = Path(csv_path)
    with _naming(csv_path):  # a UTF-8 decoding error is a ValueError too
        text = csv_path.read_text(encoding="utf-8")
    values = []
    reader = csv.reader(io.StringIO(text))
    header = next(reader, [])
    if [c.strip() for c in header] != SCHEDULE_CSV_HEADER:
        raise ValueError(
            f"{csv_path}: expected header {','.join(SCHEDULE_CSV_HEADER)}, "
            f"got {','.join(header)}"
        )
    for row in filter(None, reader):
        where = f"{csv_path}, line {reader.line_num}"
        try:
            index, *fields = map(float, row)
        except ValueError:
            raise ValueError(f"{where}: non-numeric field in {row}") from None
        if len(fields) != 3 or index != len(values):
            raise ValueError(
                f"{where}: expected index {len(values)} and 3 values, got {row}")
        values.append(fields)
    if not values:
        raise ValueError(f"{csv_path}: schedule has no excitations")
    flip, phase, tr = np.array(values).T
    with _naming(csv_path):
        schedule = SequenceSchedule(flip, phase, tr)

    sidecar = csv_path.with_suffix(".prep.json")
    if not sidecar.exists():
        return schedule
    with _naming(sidecar):  # so is a JSON decoding error
        prep = json.loads(sidecar.read_text(encoding="utf-8"))
        if not isinstance(prep, dict):
            raise ValueError(f"expected a JSON object, got {type(prep).__name__}")
        unknown = sorted(set(prep) - {"inversion_prep", "inversion_delay_ms", "te_ms"})
        if unknown:
            raise ValueError(f"unknown preparation keys {unknown}")
        for key, value in prep.items():
            flag = key == "inversion_prep"
            if (type(value) is bool) != flag or not isinstance(value, (int, float)):
                raise ValueError(f"{key} must be a JSON "
                                 f"{'boolean' if flag else 'number'}, got {value!r}")
        return replace(schedule, **{
            key: value if key == "inversion_prep" else float(value)
            for key, value in prep.items()})
