"""Smoke tests of the benchmark itself, at tiny sizes:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_of_nested_calls():
    # bench [0,12] > outer [1,11] > inner [2,5] > leaf [3,4]; inner again [6,10]
    tracer = Tracer(clock=fake_clock([0, 1, 2, 3, 4, 5, 6, 10, 11, 12]))
    leaf = tracer.wrap("m.leaf", lambda: None)
    inner = tracer.wrap("m.inner", lambda deep: leaf() if deep else None)

    def outer_fn():
        inner(True)
        inner(False)

    outer = tracer.wrap("m.outer", outer_fn)
    with tracer.span("bench.train"):
        outer()
    self_s, total_s, calls = self_times(tracer.span_array(), len(tracer.names))
    got = {n: (self_s[i], total_s[i], calls[i]) for i, n in enumerate(tracer.names)}
    assert got["m.leaf"] == (1.0, 1.0, 1)
    assert got["m.inner"] == (6.0, 7.0, 2)      # (3 - 1) + 4
    assert got["m.outer"] == (3.0, 10.0, 1)     # 10 - 3 - 4
    assert got["bench.train"] == (2.0, 12.0, 1)


def test_self_times_of_span_array():
    spans = np.array([
        # name, start, end, parent
        [0, 0.0, 8.0, -1],
        [1, 1.0, 3.0, 0],
        [1, 4.0, 7.5, 0],
        [2, 5.0, 6.0, 2],
        [0, 9.0, 9.5, -1],
    ])
    self_s, total_s, calls = self_times(spans, 3)
    np.testing.assert_allclose(self_s, [8.0 - 5.5 + 0.5, 2.0 + 2.5, 1.0])
    np.testing.assert_allclose(total_s, [8.5, 5.5, 1.0])
    assert calls.tolist() == [2, 2, 1]


def test_wrappers_reach_every_lookup_and_come_off():
    from shm_fomo import anomaly_head, evaluation, trainer

    original_step = trainer.AdamW.step
    original_smooth = evaluation.median_smooth
    tracer = Tracer()
    patches = layers.install(tracer)
    try:
        assert evaluation.median_smooth is anomaly_head.median_smooth
        assert evaluation.median_smooth is not original_smooth
        assert trainer.AdamW.step is not original_step
        errors = np.array([1.0, 3.0, 2.0, 5.0])
        evaluation.evaluate_anomaly_detection(errors, errors > 2.5, 2.5, (1, 3))
    finally:
        patches.restore()
    assert evaluation.median_smooth is original_smooth
    assert anomaly_head.median_smooth is original_smooth
    assert trainer.AdamW.step is original_step
    metrics = layers.per_layer_metrics(tracer, ())
    assert metrics["anomaly_head.median_smooth.calls"] == 2
    assert metrics["anomaly_head.classify.calls"] == 2
    assert metrics["evaluation.evaluate_anomaly_detection.calls"] == 1


def test_calibrate_step_count_is_derived_or_flagged():
    from shm_fomo import anomaly_head

    train, calib = np.array([1.0, 1.2, 0.9]), np.array([1.0, 2.0, 1.5])
    cfg = anomaly_head.ThresholdConfig(step_fraction=0.05)
    tracer = Tracer()
    patches = layers.install(tracer)
    try:
        fine = anomaly_head.calibrate_threshold(train, calib)
        coarse = anomaly_head.calibrate_threshold(train, calib, cfg=cfg)
    finally:
        patches.restore()
    assert fine < coarse
    steps = tracer.counters["anomaly_head.calibrate_threshold.steps"]
    assert steps > 0 and steps == int(steps)
    assert tracer.counters.get(layers.CALIBRATE_UNEXPLAINED, 0) == 0

    # a threshold between two grid points cannot come from the search
    layers._observe_calibrate(tracer, (train, calib, cfg), {}, coarse * 1.01)
    assert tracer.counters[layers.CALIBRATE_UNEXPLAINED] == 1


def test_benchmark_json_lists_the_per_layer_metrics():
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert declared == layers.per_layer_units()
    modules = {name.split(".")[0] for name in declared}
    assert set(layers.MODULES) <= modules


def run_tiny(trace: int) -> tuple[str, list[dict]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    return proc.stdout, [json.loads(line) for line in lines[-2:]]


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_unit_and_direction(trace):
    stdout, results = run_tiny(trace)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in declared]
        for m in declared:
            got = result["metrics"][m["name"]]
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], (int, float))
            if not trace:
                assert got["value"] > 0
    for m in declared:
        rows = [line for line in stdout.splitlines()
                if f" {m['name']} " in line and f" {m['unit']} " in line
                and line.endswith(f"({m['better']} is better)")]
        assert len(rows) >= len(results), m["name"]


def test_traced_run_reproduces_quality_and_reports_overhead():
    run_tiny(1)
    for name in ("finetune", "monitor"):
        result = json.loads((HERE / "_work" / f"result-{name}-trace1.json").read_text())
        assert result["details"]["traced_quality_equal"] is True
        assert 0.5 < result["metrics"]["trace.coverage.frac"] <= 1.0
        assert result["metrics"]["trace.overhead.frac"] is not None
        for module in layers.MODULES:
            assert f"{module}.total.self_s" in result["metrics"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "finetune", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_a_raising_workload_counts_its_lost_operations(tmp_path, monkeypatch):
    import workloads

    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(workloads.Monitor, "round", broken)
    result = workloads.run_workload("monitor", 1, 0.0, False, workloads.TINY, tmp_path)
    lost = workloads.Monitor.round_ops(workloads.TINY)
    assert result["failed"] >= lost
    assert result["metrics"]["throughput"] is None

    monkeypatch.setattr(workloads.Finetune, "setup", broken)
    result = workloads.run_workload("finetune", 1, 0.0, False, workloads.TINY, tmp_path)
    assert result["failed"] == result["attempted"]
    assert result["failed"] == workloads.MIN_ROUNDS * workloads.Finetune.round_ops(
        workloads.TINY)
