import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import constant_schedule
from mrfmap.schedule import (
    SequenceSchedule,
    default_schedule,
    load_schedule,
    save_schedule,
    schedule_digest,
)


def schedule_kwargs(n=5):
    return dict(flip_angles_rad=np.full(n, 0.3), rf_phases_rad=np.zeros(n),
                tr_ms=np.full(n, 4.3), te_ms=1.0, inversion_delay_ms=2.0)


@pytest.mark.parametrize("shapes", [(5, 5, 4), (5, 6, 5), ((2, 3), (2, 3), (2, 3)), ((), (), ())],
                         ids=["tr_short", "phase_long", "two_d", "zero_d"])
def test_arrays_not_1d_of_one_length_rejected(shapes):
    # (2, 3) arrays used to pass and fail later inside the simulator.
    kwargs = schedule_kwargs()
    for field, shape in zip(("flip_angles_rad", "rf_phases_rad", "tr_ms"), shapes):
        kwargs[field] = np.full(shape, kwargs[field].flat[0])
    with pytest.raises(ValueError, match=re.escape(
            "schedule arrays must be 1-D of one length, got shapes flip=")):
        SequenceSchedule(**kwargs)


@pytest.mark.parametrize("field, bad, message", [
    ("te_ms", 1 + 1j, "te_ms must be a number, got (1+1j)"),
    ("te_ms", "1.0", "te_ms must be a number, got '1.0'"),
    ("te_ms", None, "te_ms must be a number, got None"),
    ("te_ms", True, "te_ms must be a number, got True"),
    ("inversion_prep", "no", "inversion_prep must be a bool, got 'no'"),
    ("inversion_prep", 0, "inversion_prep must be a bool, got 0"),
    ("inversion_prep", None, "inversion_prep must be a bool, got None"),
    # schedule_kwargs' 2 ms inversion delay, with no inversion to wait
    # after: the simulator ignored it, but the digest recorded it.
    ("inversion_prep", False, "inversion_delay_ms must be 0 without inversion_prep, got 2.0"),
])
def test_constructor_refuses_what_load_refuses(field, bad, message):
    # The first three used to raise a bare TypeError; the last was made, and
    # the others were made and only the .prep.json reader refused them.
    kwargs = schedule_kwargs()
    kwargs[field] = bad
    with pytest.raises(ValueError, match=re.escape(message)):
        SequenceSchedule(**kwargs)


def test_scalar_settings_are_stored_as_floats():
    kwargs = schedule_kwargs()
    kwargs.update(te_ms=np.float32(1.5), inversion_delay_ms=2)
    schedule = SequenceSchedule(**kwargs)
    assert (type(schedule.te_ms), type(schedule.inversion_delay_ms)) == (float, float)
    assert schedule.prep_settings() == {"inversion_prep": True,
                                        "inversion_delay_ms": 2.0, "te_ms": 1.5}


@pytest.mark.parametrize("base, field, zero", [
    (default_schedule(50), "te_ms", 0.0),
    (default_schedule(30), "flip_angles_rad", np.zeros(30)),
    (default_schedule(30), "inversion_delay_ms", 0.0),
    (dataclasses.replace(default_schedule(30), inversion_prep=False), "inversion_delay_ms", 0.0),
], ids=["te", "flips", "delay", "delay_without_inversion"])
def test_negative_zero_settings_get_no_second_digest(base, field, zero):
    # Each used to be stored as -0.0, which gave a schedule that simulates
    # alike a second digest.
    negative = dataclasses.replace(base, **{field: -zero})
    assert schedule_digest(negative) == schedule_digest(dataclasses.replace(base, **{field: zero}))
    assert not np.signbit(getattr(negative, field)).any()


def test_negative_zero_phases_keep_their_sign():
    # A -0.0 phase changes the sign of some zero samples.
    schedule = dataclasses.replace(default_schedule(30), rf_phases_rad=np.full(30, -0.0))
    assert np.signbit(schedule.rf_phases_rad).all()


@pytest.mark.parametrize("field, index, value", [
    ("tr_ms", 5, -4.3), ("flip_angles_rad", 0, 7.0), ("rf_phases_rad", 1, 0.5)])
def test_arrays_cannot_change_after_the_check(field, index, value):
    # The constructor refuses a TR <= 0 and a flip above pi. Such writes used
    # to be taken afterwards: the simulator ran on them and the digest moved.
    schedule = default_schedule(10)
    digest = schedule_digest(schedule)
    with pytest.raises(ValueError, match="read-only"):
        getattr(schedule, field)[index] = value
    assert schedule_digest(schedule) == digest


def test_arrays_are_copies_of_the_callers():
    # Only the schedule's own copies turn read-only.
    kwargs = schedule_kwargs()
    schedule = SequenceSchedule(**kwargs)
    for field in ("flip_angles_rad", "rf_phases_rad", "tr_ms"):
        assert kwargs[field].flags.writeable
        assert not np.shares_memory(kwargs[field], getattr(schedule, field))


class TestNonFiniteRejected:
    @pytest.mark.parametrize("field", ["flip_angles_rad", "rf_phases_rad", "tr_ms"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_array_fields(self, field, bad):
        kwargs = schedule_kwargs()
        kwargs[field] = kwargs[field].copy()
        kwargs[field][2] = bad
        with pytest.raises(ValueError, match=re.escape(
                "schedule excitations holding NaN or inf at rows [2]")):
            SequenceSchedule(**kwargs)

    @pytest.mark.parametrize("field", ["flip_angles_rad", "rf_phases_rad", "tr_ms"])
    def test_complex_array_fields(self, field):
        # A float64 cast would keep the real part: a 0.1+0.2j flip became 0.1.
        kwargs = schedule_kwargs()
        kwargs[field] = kwargs[field] + 0.2j
        with pytest.raises(ValueError, match="complex schedule excitations"):
            SequenceSchedule(**kwargs)

    @pytest.mark.parametrize("field", ["te_ms", "inversion_delay_ms"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_scalar_fields(self, field, bad):
        kwargs = schedule_kwargs()
        kwargs[field] = bad
        with pytest.raises(ValueError, match=re.escape(f"{field} must be finite, got {bad}")):
            SequenceSchedule(**kwargs)

    def test_load_rejects_nan_tr(self, tmp_path):
        path = tmp_path / "sched.csv"
        save_schedule(constant_schedule(4, 30.0), path)
        lines = path.read_text().splitlines()
        fields = lines[2].split(",")
        fields[3] = "nan"
        lines[2] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: schedule excitations holding NaN or inf at rows [1]")):
            load_schedule(path)


class TestMalformedRows:
    @staticmethod
    def load_rows(tmp_path, *rows):
        path = tmp_path / "sched.csv"
        path.write_text("index,flip_rad,phase_rad,tr_ms\n" + "".join(
            f"{row}\n" for row in rows))
        return path

    def assert_rejected(self, path, line, message):
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: line {line}: "
                                             f"{message}"):
            load_schedule(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "sched.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="expected header"):
            load_schedule(path)

    def test_header_only(self, tmp_path):
        path = self.load_rows(tmp_path)
        with pytest.raises(ValueError, match=re.escape(f"{path}: schedule has no excitations")):
            load_schedule(path)

    @pytest.mark.parametrize("short_or_long", ["1,0.5,0.0", "1,0.5,0.0,4.3,9"])
    def test_row_with_other_than_four_fields(self, tmp_path, short_or_long):
        path = self.load_rows(tmp_path, "0,0.5,0.0,4.3", short_or_long)
        self.assert_rejected(path, 3, "expected index 1 and 3 values")

    def test_non_numeric_field(self, tmp_path):
        path = self.load_rows(tmp_path, "0,0.5,0.0,4.3", "1,0.5,zero,4.3")
        self.assert_rejected(path, 3, "non-numeric field")

    @pytest.mark.parametrize("rows, line, expected", [
        (("5,0.5,0.0,4.3", "2,0.5,0.0,4.3"), 2, 0),
        (("0,0.5,0.0,4.3", "2,0.5,0.0,4.3"), 3, 1),
        (("0,0.5,0.0,4.3", "0,0.5,0.0,4.3"), 3, 1),
    ], ids=["5-then-2", "0-then-2", "0-then-0"])
    def test_index_not_in_order(self, tmp_path, rows, line, expected):
        path = self.load_rows(tmp_path, *rows)
        self.assert_rejected(path, line, f"expected index {expected} and 3 values")


class TestRoundTrip:
    @pytest.mark.parametrize("n", [1, 7, 250, 1750])
    @settings(max_examples=10, deadline=None)
    @given(tr_ms=st.floats(min_value=0.5, max_value=50.0))
    def test_default_schedule_save_load(self, tmp_path_factory, n, tr_ms):
        schedule = dataclasses.replace(default_schedule(n), tr_ms=np.full(n, tr_ms))
        path = tmp_path_factory.mktemp("schedule") / "s.csv"
        save_schedule(schedule, path)
        loaded = load_schedule(path)
        assert loaded.tr_ms.tobytes() == schedule.tr_ms.tobytes()
        assert loaded.rf_phases_rad.tobytes() == schedule.rf_phases_rad.tobytes()
        assert loaded.flip_angles_rad.tobytes() == schedule.flip_angles_rad.tobytes()
        assert loaded.prep_settings() == schedule.prep_settings()
        assert schedule_digest(loaded) == schedule_digest(schedule)

    def test_random_angles_save_load(self, tmp_path):
        rng = np.random.default_rng(3)
        schedule = SequenceSchedule(
            flip_angles_rad=rng.uniform(0.0, np.pi, 500),
            rf_phases_rad=rng.uniform(-np.pi, np.pi, 500),
            tr_ms=rng.uniform(1.0, 20.0, 500), te_ms=0.5, inversion_delay_ms=7.0)
        save_schedule(schedule, tmp_path / "s.csv")
        loaded = load_schedule(tmp_path / "s.csv")
        for field in ("flip_angles_rad", "rf_phases_rad", "tr_ms"):
            assert getattr(loaded, field).tobytes() == getattr(schedule, field).tobytes()
        assert loaded.prep_settings() == schedule.prep_settings()
        assert schedule_digest(loaded) == schedule_digest(schedule)


PHASED = SequenceSchedule(
    flip_angles_rad=np.linspace(0.1, 1.2, 7), rf_phases_rad=np.pi * np.arange(7) / 3,
    tr_ms=np.array([4.3, 5.0, 6.25, 4.3, 12.0, 7.5, 4.3]), te_ms=1.5,
    inversion_prep=False)


# A digest names every dictionary built on its schedule, so its bytes may not
# change: these are the digests the csv.writer serialization gave.
@pytest.mark.parametrize("schedule, digest", [
    (default_schedule(1), "a426f8435aa0605b42a964333142d1358214ad4e3d969b7c2ed52df13200eea8"),
    (default_schedule(250), "190b1e7549b38a29c493c70c990c5cf3d41e5b1127dd66ba295721aff301cb6a"),
    (default_schedule(1750), "b968008fea5783045756b1f273ed65fed1bdbc0230e68e42d82aeb550790a48a"),
    (PHASED, "b7cc49b3c9ea617b66fb5fb4329502c5e7e1ff94508994c6641efe312a744599"),
], ids=["default_1", "default_250", "default_1750", "phased_no_prep"])
def test_schedule_digest_pinned(schedule, digest):
    assert schedule_digest(schedule) == digest


HEADER = b"index,flip_rad,phase_rad,tr_ms\n"
ROWS = b"0,0.5,0.0,4.3\n1,0.5,0.0,4.3\n"


@pytest.mark.parametrize("csv_bytes, sidecar, at_fault, message", [
    (HEADER + b"0,0.5,0.0,4.3\xff\n", None, "csv", "'utf-8' codec can't decode"),
    (HEADER + b"0,0.5,0.0,4.3\n1,nan,0.0,4.3\n", None, "csv",
     "schedule excitations holding NaN or inf at rows [1]"),
    (HEADER + b"0,4.0,0.0,4.3\n", None, "csv", "flip angles must lie in [0, pi] radians"),
    (HEADER + b"0,0.5,0.0,-1\n", None, "csv", "repetition times must be positive"),
    (HEADER + ROWS, b"{te_ms: 1.0}", "sidecar", "Expecting property name"),
    (HEADER + ROWS, b'{"te_ms": 1.0}\xff', "sidecar", "'utf-8' codec can't decode"),
    (HEADER + ROWS, b'{"te_ms": -1}', "sidecar", "te_ms must be nonnegative"),
    (HEADER + ROWS, b'{"te_ms": 5.0}', "sidecar",
     "te_ms=5.0 must be below the shortest TR (4.3)"),
    (HEADER + ROWS, b'{"inversion_prep": false, "inversion_delay_ms": 5.0}', "sidecar",
     "inversion_delay_ms must be 0 without inversion_prep, got 5.0"),
], ids=["csv_not_utf8", "nan_flip", "flip_above_pi", "negative_tr", "sidecar_not_json",
        "sidecar_not_utf8", "negative_te", "te_above_tr", "delay_without_inversion"])
def test_load_error_names_the_file_at_fault(tmp_path, csv_bytes, sidecar, at_fault,
                                            message):
    path = tmp_path / "s.csv"
    path.write_bytes(csv_bytes)
    if sidecar is not None:
        path.with_suffix(".prep.json").write_bytes(sidecar)
    faulty = path if at_fault == "csv" else path.with_suffix(".prep.json")
    with pytest.raises(ValueError) as err:
        load_schedule(path)
    assert str(err.value).startswith(f"{faulty}: {message}")


class TestPrepSidecar:
    @staticmethod
    def saved(tmp_path, sidecar):
        """A saved schedule whose ``.prep.json`` sidecar holds ``sidecar``."""
        path = tmp_path / "s.csv"
        save_schedule(constant_schedule(4, 30.0), path)
        if sidecar is None:
            path.with_suffix(".prep.json").unlink()
        else:
            path.with_suffix(".prep.json").write_text(json.dumps(sidecar))
        return path

    @pytest.mark.parametrize("sidecar", [None, {}], ids=["absent", "empty"])
    def test_omitted_keys_take_the_dataclass_defaults(self, tmp_path, sidecar):
        loaded = load_schedule(self.saved(tmp_path, sidecar))
        fresh = SequenceSchedule(loaded.flip_angles_rad, loaded.rf_phases_rad,
                                 loaded.tr_ms)
        assert loaded.prep_settings() == fresh.prep_settings()

    def test_partial_sidecar_keeps_other_defaults(self, tmp_path):
        loaded = load_schedule(self.saved(tmp_path, {"te_ms": 2}))
        assert loaded.prep_settings() == {"inversion_prep": True,
                                          "inversion_delay_ms": 0.0, "te_ms": 2.0}

    @pytest.mark.parametrize("sidecar, message", [
        ({"te": 2.0}, "unknown preparation keys ['te']"),
        ({"te_ms": 1.0, "inversion": False, "delay": 3.0},
         "unknown preparation keys ['delay', 'inversion']"),
        ({"inversion_prep": "false"}, "inversion_prep must be a bool, got 'false'"),
        ({"inversion_prep": 0}, "inversion_prep must be a bool, got 0"),
        ({"te_ms": None}, "te_ms must be a number, got None"),
        ({"inversion_delay_ms": "2.0"}, "inversion_delay_ms must be a number, got '2.0'"),
        ({"te_ms": True}, "te_ms must be a number, got True"),
        ([], "preparation must be a JSON object, got list"),
        # JSON reads this as an int, which float() cannot hold.
        ({"te_ms": 10**400}, "te_ms is too large for a float"),
    ], ids=["misspelled", "several_unknown", "string_bool", "int_bool", "null_time",
            "string_time", "bool_time", "not_object", "huge_time"])
    def test_malformed_sidecar_rejected(self, tmp_path, sidecar, message):
        path = self.saved(tmp_path, sidecar)
        with pytest.raises(ValueError, match=re.escape(
                f"{path.with_suffix('.prep.json')}: {message}")):
            load_schedule(path)
