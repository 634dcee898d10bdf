"""Smoke tests of the benchmark harness, at tiny sizes and without timing asserts.

Run from the root of the checkout with `python3 -m pytest bench`.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]
import run as bench_run  # noqa: E402
import workloads  # noqa: E402


def run_bench(workload, trace, seed=3, cwd=ROOT):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed), "--seconds", "0",
           "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def record(workload, trace, seed=3):
    path = bench_run.WORK / "results" / f"{workload}-seed{seed}-trace{trace}-smoke.json"
    return json.loads(path.read_text())


def test_spec_matches_harness():
    assert WORKLOADS == list(workloads.FULL) == list(workloads.SMOKE)
    assert workloads.E2E == [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == bench_run.PER_LAYER


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_its_end_to_end_metrics(workload):
    out = last_json(run_bench(workload, trace=0))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert list(out["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    proc = run_bench(workload, trace=1)
    out = last_json(proc)
    assert out["correct"] and out["failed"] == 0
    assert list(out["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for layer in bench_run.LAYERS:
        assert f"\n  {layer} " in proc.stdout  # a row of the per-layer table
    assert "tracing overhead" in proc.stdout
    spans = bench_run.WORK / "traces" / f"{workload}-seed3-trace1-smoke.spans.jsonl"
    assert spans.is_file() and spans.stat().st_size > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_rerun_with_one_seed_is_bitwise_identical(workload):
    last_json(run_bench(workload, trace=0, seed=11))
    first = record(workload, 0, seed=11)["digests"]
    last_json(run_bench(workload, trace=0, seed=11))
    assert first and record(workload, 0, seed=11)["digests"] == first


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for p in SPEC["paths"]:
        shutil.copytree(ROOT / p, tmp_path / p, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
