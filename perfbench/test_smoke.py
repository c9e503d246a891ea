"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _declared(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def _units(metrics):
    return {name: unit for name, (_, unit) in metrics.items()}


def test_traced_run_is_exact_and_declared(tmp_path):
    reports = []
    for attempt in ("a", "b"):
        workdir = tmp_path / attempt
        workdir.mkdir()
        metrics, tally, report = run.run("roundtrip", 0, 0, True, workdir, count=1)
        assert tally.failures == []
        assert _units(metrics) == _declared("per_layer")
        reports.append((metrics, report))
    (first, first_report), (second, second_report) = reports
    assert first_report["result_digest"] == second_report["result_digest"]
    counts = [name for name, (_, unit) in first.items() if unit == "count"]
    assert counts and all(first[name] == second[name] for name in counts)
    assert first["linalg.rref.calls"][0] > 0
    assert first["algebra.mul.calls"][0] > 0


def test_untraced_run_declares_every_end_to_end_metric(tmp_path):
    metrics, tally, report = run.run("basescan", 0, 0, False, tmp_path, count=1)
    assert tally.failures == [] and report["fail_ratio"] == 0
    assert _units(metrics) == _declared("end_to_end")
    assert all(value > 0 for value, _ in metrics.values())


def test_a_wrong_answer_is_counted(tmp_path):
    jobs, _, _ = run.set_up("roundtrip", 0, tmp_path, count=1)
    fixture = next(job for job in jobs if job.name == "fixture-a")
    fixture.witness = [{"coeff": "2", "factors": [["base", "b3", 1]]}]
    (tmp_path / "fixture-b.json").write_text("not a model")
    tally = run.Tally()
    run.run_pass(jobs, tmp_path, tally)
    assert len(tally.failures) == 2
    assert "fixture-a/hopf" in tally.failures[0]
    assert "fixture-b/hopf: exit 4 without a result document" in tally.failures[1]


def test_command_prints_the_result_last():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "roundtrip",
         "--seed", "3", "--seconds", "0", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(_declared("end_to_end"))


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "roundtrip",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
