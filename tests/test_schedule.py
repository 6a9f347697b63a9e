import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrfmap.schedule import (
    SequenceSchedule,
    constant_schedule,
    default_schedule,
    load_schedule,
    save_schedule,
    schedule_digest,
)


def schedule_kwargs(n=5):
    return dict(flip_angles_rad=np.full(n, 0.3), rf_phases_rad=np.zeros(n),
                tr_ms=np.full(n, 4.3), te_ms=1.0, inversion_delay_ms=2.0)


class TestNonFiniteRejected:
    @pytest.mark.parametrize("field", ["flip_angles_rad", "rf_phases_rad", "tr_ms"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_array_fields(self, field, bad):
        kwargs = schedule_kwargs()
        kwargs[field] = kwargs[field].copy()
        kwargs[field][2] = bad
        with pytest.raises(ValueError, match="finite"):
            SequenceSchedule(**kwargs)

    @pytest.mark.parametrize("field", ["te_ms", "inversion_delay_ms"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_scalar_fields(self, field, bad):
        kwargs = schedule_kwargs()
        kwargs[field] = bad
        with pytest.raises(ValueError, match="finite"):
            SequenceSchedule(**kwargs)

    def test_load_rejects_nan_tr(self, tmp_path):
        path = tmp_path / "sched.csv"
        save_schedule(constant_schedule(4, 30.0), path)
        lines = path.read_text().splitlines()
        fields = lines[2].split(",")
        fields[3] = "nan"
        lines[2] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="repetition times must be finite"):
            load_schedule(path)


class TestRoundTrip:
    @pytest.mark.parametrize("n", [1, 7, 250, 1750])
    @settings(max_examples=10, deadline=None)
    @given(tr_ms=st.floats(min_value=0.5, max_value=50.0))
    def test_default_schedule_save_load(self, tmp_path_factory, n, tr_ms):
        schedule = default_schedule(n, tr_ms=tr_ms)
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
