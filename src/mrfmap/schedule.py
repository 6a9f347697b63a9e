"""Excitation schedules for fingerprint simulation.

A schedule is the per-excitation list of RF flip angles, RF phases and
repetition times, plus the preparation settings (inversion pulse, the delay
after it, echo time). Schedules are persisted as a CSV file, angles in
radians, with an optional JSON sidecar holding the preparation settings; the
SHA-256 digest of the canonical serialization identifies a schedule in
dictionary/dataset manifests, so a setting the simulator would ignore, such
as a delay without an inversion, is refused rather than recorded.
``SequenceSchedule`` owns every rule of a schedule; ``load_schedule`` only
parses and names the file at fault.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .files import json_object, naming, number, read_json, real_rows

SCHEDULE_CSV_HEADER = ["index", "flip_rad", "phase_rad", "tr_ms"]

DEFAULT_N_EXCITATIONS = 1750
DEFAULT_TR_MS = 4.3


@dataclass(frozen=True)
class SequenceSchedule:
    """Per-excitation RF/timing parameters driving the simulator.

    ``te_ms`` and ``inversion_delay_ms`` must be numbers that
    ``files.number`` takes (finite, not bools) and nonnegative, with TE
    below the shortest TR, and are stored as floats, -0.0 as 0.0;
    ``inversion_prep`` must be a bool, and without it the inversion delay
    must be 0, as there is no inversion to wait after. Any other value is a
    ValueError.
    The three per-excitation columns are stored as the constructor's own
    read-only float64 copies, so no write can move a schedule past its
    checks or its digest; ``dataclasses.replace`` makes a changed one. A
    flip angle of -0.0 is stored as 0.0 too, so a schedule that simulates
    alike gets one digest, but a phase keeps its sign.
    """

    flip_angles_rad: np.ndarray
    rf_phases_rad: np.ndarray
    tr_ms: np.ndarray
    te_ms: float = 0.0
    inversion_prep: bool = True
    inversion_delay_ms: float = 0.0

    def __post_init__(self):
        columns = (self.flip_angles_rad, self.rf_phases_rad, self.tr_ms)
        flip, phase, tr = map(np.shape, columns)
        if len(flip) != 1 or not flip == phase == tr:
            raise ValueError(f"schedule arrays must be 1-D of one length, got shapes "
                             f"flip={flip}, phase={phase}, tr={tr}")
        # One (N, 3) table, so that a NaN or inf names its excitation.
        # Comparisons with NaN are false, so non-finite values would pass the
        # range checks below and turn every later simulated sample into NaN.
        table = real_rows("schedule excitations", np.column_stack(columns), 3)
        if not len(table):
            raise ValueError("schedule has no excitations")
        # Adding 0.0 turns -0.0 into 0.0. A -0.0 phase changes the sign of
        # some zero samples, so the phases are kept as given.
        flip = table[:, 0] + 0.0
        phase, tr = map(np.ascontiguousarray, table.T[1:])
        for name, column in (("flip_angles_rad", flip), ("rf_phases_rad", phase),
                             ("tr_ms", tr)):
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        for name in ("te_ms", "inversion_delay_ms"):
            value = number(name, getattr(self, name))
            if value < 0.0:
                raise ValueError(f"{name} must be nonnegative")
            object.__setattr__(self, name, value + 0.0)
        if not isinstance(self.inversion_prep, bool):
            raise ValueError(f"inversion_prep must be a bool, got {self.inversion_prep!r}")
        if not self.inversion_prep and self.inversion_delay_ms:
            raise ValueError(f"inversion_delay_ms must be 0 without inversion_prep, "
                             f"got {self.inversion_delay_ms}")
        if np.any(flip < 0.0) or np.any(flip > math.pi):
            raise ValueError("flip angles must lie in [0, pi] radians")
        if np.any(tr <= 0.0):
            raise ValueError("repetition times must be positive")
        if self.te_ms >= float(tr.min()):
            raise ValueError(
                f"te_ms={self.te_ms} must be below the shortest TR ({tr.min()})"
            )

    @property
    def n_excitations(self) -> int:
        return self.flip_angles_rad.size

    def prep_settings(self) -> dict:
        return {"inversion_prep": self.inversion_prep,
                "inversion_delay_ms": self.inversion_delay_ms, "te_ms": self.te_ms}


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
    columns = (schedule.flip_angles_rad, schedule.rf_phases_rad, schedule.tr_ms)
    rows = [f"{i},{flip!r},{phase!r},{tr!r}\n" for i, (flip, phase, tr)
            in enumerate(zip(*(c.tolist() for c in columns)))]
    return "".join([",".join(SCHEDULE_CSV_HEADER) + "\n", *rows]).encode("utf-8")


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
    """Load a schedule CSV; preparation settings come from the sidecar if present.

    A row must hold its index (0, 1, 2, ... in order) and three numbers. The
    sidecar is a JSON object of ``prep_settings`` keys; a setting it omits
    keeps its ``SequenceSchedule`` default, and an unknown key is refused.
    Every other rule is the constructor's. Every ValueError starts with the
    path of the file at fault: the CSV for its text and the values it holds,
    the sidecar for its text and its settings (a TE not below the CSV's
    shortest TR included).
    """
    csv_path = Path(csv_path)
    with naming(csv_path):  # a UTF-8 decoding error is a ValueError too
        reader = csv.reader(io.StringIO(csv_path.read_text(encoding="utf-8")))
        header = next(reader, [])
        if [c.strip() for c in header] != SCHEDULE_CSV_HEADER:
            raise ValueError(f"expected header {','.join(SCHEDULE_CSV_HEADER)}, "
                             f"got {','.join(header)}")
        values = []
        for row in filter(None, reader):
            try:
                index, *fields = map(float, row)
            except ValueError:
                raise ValueError(f"line {reader.line_num}: non-numeric field in {row}") from None
            if len(fields) != 3 or index != len(values):
                raise ValueError(f"line {reader.line_num}: expected index {len(values)} "
                                 f"and 3 values, got {row}")
            values.append(fields)
        schedule = SequenceSchedule(*np.reshape(values, (-1, 3)).T)

    sidecar = csv_path.with_suffix(".prep.json")
    if not sidecar.exists():
        return schedule
    with naming(sidecar):
        return replace(schedule, **json_object("preparation", read_json(sidecar),
                                               allowed=schedule.prep_settings()))
