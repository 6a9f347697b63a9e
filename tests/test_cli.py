import json

import numpy as np
import pytest

from mrfmap.cli import main
from mrfmap.dictionary import GridSpec, build_dictionary, build_plan, load_dictionary
from mrfmap.schedule import (
    constant_schedule,
    default_schedule,
    save_schedule,
    schedule_digest,
)

GRID = {"t1_segments": [[300.0, 900.0, 300.0]], "t2_segments": [[40.0, 120.0, 40.0]]}


@pytest.fixture
def grid_json(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(GRID))
    return path


def run_build(capsys, argv):
    assert main(["build", *argv]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


def test_build_default_schedule(tmp_path, grid_json, capsys):
    report = run_build(capsys, [str(tmp_path / "d"), "--n", "40", "--grid", str(grid_json)])
    schedule = default_schedule(40)
    loaded = load_dictionary(tmp_path / "d")
    expected = build_dictionary(GridSpec.from_json_dict(GRID), schedule)
    assert loaded.atoms.tobytes() == expected.atoms.tobytes()
    assert loaded.labels == expected.labels
    assert report["atoms"] == 9 and report["n"] == 40
    assert report["workers"] == build_plan(9)[1]
    assert report["seconds"] > 0
    assert report["atoms_per_s"] == pytest.approx(9 / report["seconds"])
    assert report["schedule_digest"] == schedule_digest(schedule) == loaded.schedule_digest


def test_build_schedule_file(tmp_path, grid_json, capsys):
    schedule = constant_schedule(30, 25.0, inversion_prep=False)
    save_schedule(schedule, tmp_path / "s.csv")
    report = run_build(capsys, [str(tmp_path / "d"), "--schedule", str(tmp_path / "s.csv"),
                                "--grid", str(grid_json)])
    loaded = load_dictionary(tmp_path / "d")
    assert report["n"] == loaded.n_samples == 30
    assert report["schedule_digest"] == schedule_digest(schedule)
    expected = build_dictionary(GridSpec.from_json_dict(GRID), schedule)
    np.testing.assert_array_equal(loaded.atoms, expected.atoms)


def test_n_and_schedule_are_exclusive(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["build", str(tmp_path / "d"), "--n", "40", "--schedule", "s.csv"])
    assert "not allowed" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize("position", [0, 1, 2])
def test_nonfinite_grid_rejected(tmp_path, capsys, position, bad):
    segment = [300.0, 900.0, 300.0]
    segment[position] = bad
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({**GRID, "t1_segments": [segment]}))
    with pytest.raises(ValueError, match="segment values must be finite"):
        main(["build", str(tmp_path / "d"), "--n", "40", "--grid", str(grid)])
    assert not (tmp_path / "d.dict").exists()
    assert capsys.readouterr().out == ""
