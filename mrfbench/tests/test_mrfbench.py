"""Tests of the benchmark itself: output contract and the output checks.

    python3 -m pytest -q mrfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from mrfmap import dictionary, epg, schedule  # noqa: E402
from mrfmap.nn import checkpoint, models  # noqa: E402

from mrfbench import checks  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "mrfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
        if not trace:
            assert got["value"] > 0.0


def test_same_seed_gives_same_inputs():
    from mrfbench.workloads import SIZES, Train
    a = Train(5, SIZES["tiny"]["train"], ROOT)
    b = Train(5, SIZES["tiny"]["train"], ROOT)
    a.setup()
    b.setup()
    assert all(np.array_equal(x, y) for x, y in zip(a.batches, b.batches))
    assert a.config() == b.config()


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "mrfbench", tmp_path / "mrfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("map", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_failed_check_fails_the_run(monkeypatch, capsys):
    from mrfbench import run
    monkeypatch.setattr(checks, "same_dictionary", lambda a, b: False)
    code = run.main(["--workload", "dict-build", "--seed", "1", "--seconds", "0.2",
                     "--size", "tiny"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False and result["failed"] == 1


# ------------------------------------------------ each check rejects a bad output

def tiny_dictionary():
    sched = schedule.default_schedule(40)
    grid = dictionary.GridSpec(((300.0, 900.0, 600.0),), ((20.0, 80.0, 60.0),))
    return dictionary.build_dictionary(grid, sched), sched


def test_oracle_check_rejects_perturbed_atom():
    d, sched = tiny_dictionary()
    ref = epg.isochromat_oracle(d.labels[1], sched, sched.n_excitations + 1).samples
    assert checks.atom_matches_oracle(d.atoms[1], ref)
    bad = d.atoms[1].copy()
    bad[7] += 1e-6
    assert not checks.atom_matches_oracle(bad, ref)


def test_roundtrip_check_rejects_one_ulp(tmp_path):
    d, _ = tiny_dictionary()
    dictionary.save_dictionary(d, tmp_path / "d")
    loaded = dictionary.load_dictionary(tmp_path / "d")
    assert checks.same_dictionary(d, loaded)
    loaded.atoms[0, 3] = np.nextafter(loaded.atoms[0, 3], 2.0)
    assert not checks.same_dictionary(d, loaded)


def test_match_checks_reject_wrong_answers():
    rng = np.random.default_rng(0)
    atoms = np.abs(rng.standard_normal((20, 30)))
    atoms /= np.linalg.norm(atoms, axis=1, keepdims=True)
    query = atoms[4] + 0.01 * np.abs(rng.standard_normal(30))
    scores = checks.naive_scores(atoms, query)
    assert checks.batch_match_ok(atoms, query, 4, scores[4]) == (True, True)
    assert not checks.batch_match_ok(atoms, query, 5, scores[5])[0]
    assert not checks.batch_match_ok(atoms, query, 4, scores[4] + 1e-9)[0]
    assert checks.single_match_ok(("a", 0.5), ("a", 0.5))
    assert not checks.single_match_ok(("a", 0.5), ("b", 0.5))
    assert not checks.single_match_ok(("a", 0.5), ("a", 0.5 + 1e-9))


def test_prediction_check_rejects_perturbed_prediction():
    spec = models.ModelSpec(kind="rnn_regressor", input_len=12, hidden_dim=4)
    params = models.init_params(spec, 1)
    x = np.random.default_rng(1).random((3, 12))
    batch = models.predict_batch(spec, params, x)
    single = models.predict_single(spec, params, x[2])
    assert checks.predictions_agree(single, batch[2])
    assert not checks.predictions_agree(single + 1e-9, batch[2])


def test_finite_check_rejects_nan_and_inf():
    grads = {"w": np.ones(3)}
    assert checks.finite_step(0.5, grads)
    assert not checks.finite_step(float("inf"), grads)
    assert not checks.finite_step(0.5, {"w": np.array([1.0, np.nan, 0.0])})


def test_checkpoint_check_rejects_changed_parameter(tmp_path):
    spec = models.ModelSpec(kind="ann", input_len=10, ann_hidden=(4,))
    ckpt = checkpoint.ModelCheckpoint(spec, models.init_params(spec, 2),
                                      4000.0, 500.0, 2)
    path = checkpoint.save_checkpoint(ckpt, tmp_path / "a.ckpt")
    saved = path.read_bytes()
    loaded = checkpoint.load_checkpoint(path)
    assert checks.checkpoint_resaves_identically(loaded, saved, tmp_path / "b.ckpt")
    loaded.params["fc1.w"][0, 0] *= 1.5
    assert not checks.checkpoint_resaves_identically(loaded, saved,
                                                     tmp_path / "c.ckpt")
