"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q bench/test_bench.py

They take about a minute: two short traced runs per workload.
"""

import hashlib
import json
import math
import shutil
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def _digest(directory: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    inputs.write_workload(workload, 5, tmp_path / "a")
    first = _digest(tmp_path / "a")
    shutil.rmtree(tmp_path / "a")
    inputs.write_workload(workload, 5, tmp_path / "a")
    assert _digest(tmp_path / "a") == first
    inputs.write_workload(workload, 6, tmp_path / "b")
    assert _digest(tmp_path / "b") != first


def test_tail_percentile_keeps_ten_tasks_beyond():
    for n in range(20, 2000):
        p = run.tail_percentile(n)
        assert n - math.ceil(p * n / 100) >= 10
        assert p == 99 or n - math.ceil((p + 1) * n / 100) < 10


def test_facet_test_on_a_square():
    square = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)),
              (Fraction(0), Fraction(1)), (Fraction(1), Fraction(1))]
    assert checks.is_facet(square, [0, 1], 2)
    assert checks.is_facet(square, [1, 3], 2)
    assert not checks.is_facet(square, [0, 3], 2)
    assert not checks.is_facet(square, [0], 2)


def test_host_speed_correction_scales_by_the_reference_around_each_task():
    ref = run.REFERENCE_S
    doc = {"latency_s": [1.0, 2.0], "reference_s": [ref, ref, 3 * ref],
           "layers": {"perm.indexed.ms": 10.0, "perm.indexed.calls": 4}}
    run.correct_for_host_speed(doc, 0.2)
    # Task 0 ran between two references at the reference speed, task 1
    # between one at that speed and one three times slower.
    assert doc["task_s"] == pytest.approx([1.0, 1.0])
    assert doc["wall_s"] == pytest.approx(2.0) and doc["raw_wall_s"] == 3.0
    assert doc["setup_s"] == pytest.approx(0.2)
    assert doc["layers"] == {"perm.indexed.ms": 10.0, "perm.indexed.calls": 4}


def test_checker_rejects_wrong_outcomes():
    task = {"id": "vsg3", "kind": "cli", "argv": ["verify-symmetry-group", "3"],
            "expect": {"rc": 0, "details": {"aut_order": 72}}}
    good = {"rc": 0, "stdout": json.dumps({"pass": True,
                                           "details": {"aut_order": 72}})}
    checker = checks.Checker()
    assert checker.check(task, good) is None
    assert checker.check(task, dict(good, rc=1)) is not None
    assert checker.check(task, dict(good, stdout=json.dumps(
        {"pass": True, "details": {"aut_order": 36}}))) is not None
    assert checker.check(task, dict(good, stdout="not json")) is not None
    assert checker.check(task, {"error": "Traceback\nValueError: x"}) is not None


def test_absent_function_is_reported_not_fatal(monkeypatch):
    package = types.ModuleType("fakepkg")
    perm = types.ModuleType("fakepkg.perm")
    exec("def indexed(x):\n    return x\n", perm.__dict__)
    perm.indexed.__module__ = "fakepkg.perm"
    monkeypatch.setitem(sys.modules, "fakepkg", package)
    monkeypatch.setitem(sys.modules, "fakepkg.perm", perm)
    tracer = spans.Tracer()
    tracer.install("fakepkg")
    try:
        assert perm.indexed(3) == 3
    finally:
        tracer.uninstall()
    layers = run.layer_metrics([{"wall_s": 1.0}],
                               [{"wall_s": 1.1, "layers": tracer.summary()}])
    assert layers["layers"]["perm.indexed.calls"] == 1
    assert "perm.closure.calls" in layers["absent"]
    assert layers["layers"]["perm.closure.calls"] == 0


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["per_layer"]] == list(run.LAYER_METRICS)
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in doc["per_layer"])
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in doc["workloads"]] == list(inputs.WORKLOADS)
    assert len(doc["per_layer"]) <= 128


def _run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_two_traced_runs_give_identical_counts(workload):
    results = []
    for _ in range(2):
        proc = _run(["--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", "1"])
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    first, second = results
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == set(run.LAYER_METRICS)
    exact = [m for m in run.LAYER_METRICS if run.is_exact(m)]
    assert {m: first["metrics"][m]["value"] for m in exact} == \
        {m: second["metrics"][m]["value"] for m in exact}
    assert any(first["metrics"][m]["value"] for m in exact)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _run(["--workload", "bn-symmetry", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
