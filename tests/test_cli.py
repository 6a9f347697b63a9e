import json

import numpy as np
import pytest

from conftest import constant_schedule
from mrfmap import cli
from mrfmap.cli import main
from mrfmap.dictionary import GridSpec, build_dictionary, load_dictionary
from mrfmap.epg import orders_kept
from mrfmap.schedule import default_schedule, save_schedule, schedule_digest

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
    assert list(report) == ["atoms", "n", "orders_kept", "seconds", "atoms_per_s",
                            "schedule_digest"]
    assert report["atoms"] == 9 and report["n"] == 40
    assert report["orders_kept"] == 1.0  # T2 >= 40 ms keeps all 40
    assert report["seconds"] > 0
    assert report["atoms_per_s"] == pytest.approx(9 / report["seconds"])
    assert report["schedule_digest"] == schedule_digest(schedule) == loaded.schedule_digest


def test_build_writes_out_dict_alone(tmp_path, grid_json, capsys):
    # A build used to write OUT.json beside OUT.dict.
    run_build(capsys, [str(tmp_path / "d"), "--n", "20", "--grid", str(grid_json)])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.dict", "grid.json"]


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


def test_build_reports_orders_kept(tmp_path, capsys):
    # T2 of 1 and 2 ms keep about 5 and 11 of 100 orders.
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"t1_segments": [[300.0, 900.0, 300.0]],
                                "t2_segments": [[1.0, 2.0, 1.0]]}))
    report = run_build(capsys, [str(tmp_path / "d"), "--n", "100", "--grid", str(grid)])
    labels = load_dictionary(tmp_path / "d").labels
    assert report["orders_kept"] == orders_kept(labels, default_schedule(100))
    assert 0.0 < report["orders_kept"] < 0.2


def build_error(capsys, argv):
    """Run ``mrfmap build`` on bad input; return its one stderr error line."""
    with pytest.raises(SystemExit) as exit_:
        main(["build", *argv])
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert lines[-1].startswith("mrfmap: error: ")
    assert "Traceback" not in captured.err
    return lines[-1]


def test_n_and_schedule_are_exclusive(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["build", str(tmp_path / "d"), "--n", "40", "--schedule", "s.csv"])
    assert "not allowed" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("position", [0, 1, 2])
def test_nonfinite_grid_rejected(tmp_path, capsys, position, bad):
    segment = [300.0, 900.0, 300.0]
    segment[position] = bad
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({**GRID, "t1_segments": [segment]}))
    error = build_error(capsys, [str(tmp_path / "d"), "--n", "40", "--grid", str(grid)])
    assert f"grid t1_segments value in segment {tuple(segment)} must be finite, got {bad}" in error
    assert not (tmp_path / "d.dict").exists()


@pytest.mark.parametrize("grid, message", [
    ({}, "grid lacks ['t1_segments', 't2_segments']"),
    ({"t1_segments": GRID["t1_segments"]}, "grid lacks ['t2_segments']"),
    ({**GRID, "t3_segments": []}, "unknown grid keys ['t3_segments']"),
    ([GRID], "grid must be a JSON object, got list"),
    ({**GRID, "t1_segments": 5}, "grid t1_segments must be a list of [start, stop, step] "
                                 "lists of numbers, got 5"),
    ({**GRID, "t2_segments": [[40.0, 120.0]]}, "grid t2_segments must be a list of"),
    ({**GRID, "t1_segments": [[None, 900.0, 300.0]]},
     "grid t1_segments value in segment (None, 900.0, 300.0) must be a number, got None"),
    ({**GRID, "t1_segments": [[True, 900.0, 300.0]]},
     "grid t1_segments value in segment (True, 900.0, 300.0) must be a number, got True"),
    (b'{"t1_segments": [[300, 900, 300]], t2_segments: []}',
     "Expecting property name enclosed in double quotes"),
    (b'{"t1_segments": [[300, 900, 300]]}\xff', "'utf-8' codec can't decode"),
    ({"t1_segments": [[10, 10, 1]], "t2_segments": [[100, 100, 1]]},
     "grid expansion produced no valid (T1, T2) pairs"),
    # NumPy refuses the 28.4 PiB of T1 values before allocating any of it.
    ({"t1_segments": [[1, 4000, 1e-12]], "t2_segments": [[5, 500, 5]]},
     "grid too fine to expand: Unable to allocate"),
    # Its step count is inf, which no integer holds.
    ({"t1_segments": [[0, 1e308, 1e-300]], "t2_segments": [[1, 1, 1]]},
     "grid too fine to expand: cannot convert float infinity to integer"),
    # Its 1e23 steps pass what NumPy's index type holds.
    ({"t1_segments": [[0, 1e20, 1e-3]], "t2_segments": [[1, 1, 1]]},
     "grid too fine to expand: "),
    # JSON reads this as an int, which float() cannot hold.
    ({**GRID, "t2_segments": [[40, 10**400, 40]]},
     f"grid t2_segments value in segment (40, {10**400}, 40) is too large for a float"),
    # Used to build T1 100-500 ms at T2 10 ms: expansion drops values <= 0.
    ({"t1_segments": [[-100, 500, 100]], "t2_segments": [[-20, 10, 10]]},
     "invalid segment (-100.0, 500.0, 100.0)"),
], ids=["empty", "missing_key", "unknown_key", "not_object", "segments_not_list",
        "short_segment", "null_value", "bool_value", "not_json", "not_utf8", "no_pairs",
        "too_fine", "inf_steps", "past_index", "huge_value", "negative_start"])
def test_malformed_grid_json_rejected(tmp_path, capsys, grid, message):
    """``grid`` is written as JSON, or as it is when given as bytes."""
    path = tmp_path / "grid.json"
    path.write_bytes(grid if isinstance(grid, bytes) else json.dumps(grid).encode())
    error = build_error(capsys, [str(tmp_path / "d"), "--n", "40", "--grid", str(path)])
    assert error.startswith(f"mrfmap: error: {path}: {message}")
    assert not (tmp_path / "d.dict").exists()


def test_missing_schedule_file(tmp_path, grid_json, capsys):
    missing = tmp_path / "absent.csv"
    error = build_error(capsys, [str(tmp_path / "d"), "--schedule", str(missing),
                                 "--grid", str(grid_json)])
    assert "No such file" in error and str(missing) in error
    assert not (tmp_path / "d.dict").exists()


def test_malformed_schedule_row(tmp_path, grid_json, capsys):
    schedule = tmp_path / "s.csv"
    save_schedule(constant_schedule(3, 25.0), schedule)
    lines = schedule.read_text().splitlines()
    lines[2] = lines[2].rsplit(",", 1)[0]
    schedule.write_text("\n".join(lines) + "\n")
    error = build_error(capsys, [str(tmp_path / "d"), "--schedule", str(schedule),
                                 "--grid", str(grid_json)])
    assert f"{schedule}: line 3: expected index 1 and 3 values" in error
    assert not (tmp_path / "d.dict").exists()


def test_malformed_schedule_sidecar(tmp_path, grid_json, capsys):
    schedule = tmp_path / "s.csv"
    save_schedule(constant_schedule(3, 25.0), schedule)
    sidecar = schedule.with_suffix(".prep.json")
    sidecar.write_text(json.dumps({"te": 2.0}))
    error = build_error(capsys, [str(tmp_path / "d"), "--schedule", str(schedule),
                                 "--grid", str(grid_json)])
    assert f"{sidecar}: unknown preparation keys ['te']" in error
    assert not (tmp_path / "d.dict").exists()


def test_no_excitations_rejected(tmp_path, grid_json, capsys):
    error = build_error(capsys, [str(tmp_path / "d"), "--n", "0", "--grid", str(grid_json)])
    assert error == "mrfmap: error: schedule has no excitations"
    assert not (tmp_path / "d.dict").exists()


def test_missing_output_directory_rejected_before_the_build(tmp_path, grid_json, capsys,
                                                            monkeypatch):
    # The whole dictionary used to be built, and then its write failed.
    monkeypatch.setattr(cli, "build_dictionary", None)  # a call raises TypeError
    missing = tmp_path / "absent"
    error = build_error(capsys, [str(missing / "d"), "--n", "40", "--grid", str(grid_json)])
    assert error == f"mrfmap: error: {missing}: no such directory"
    assert list(tmp_path.iterdir()) == [grid_json]
