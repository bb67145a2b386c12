"""Self-test of the benchmark at tiny size.

    python3 -m pytest perfbench/tests -q

Every workload runs one round of small inputs.  The checks: each metric
of BENCHMARK.json is emitted with its unit, the exact counts repeat
across two traced runs, a wrong pinned digest is reported as a failed
op, and the benchmark refuses to run where it cannot measure honestly.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
    SPEC = json.load(handle)
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]

#: Counts the simulator must reproduce exactly from the same inputs.
EXACT = ("engine.events", "network.messages", "workloads.trace_ops")


def bench(workload, trace, *extra, cwd=ROOT, env=None):
    command = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
               "--seed", "0", "--seconds", "0", "--trace", str(trace), "--scale", "tiny", *extra]
    return subprocess.run(command, cwd=cwd, env=env, capture_output=True, text=True, timeout=600)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def units(section):
    return {entry["name"]: entry["unit"] for entry in SPEC[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted_with_units(workload):
    result = result_of(bench(workload, 0))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == units("end_to_end")
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_and_exact_counts_repeat(workload):
    first, second = (result_of(bench(workload, 1)) for _ in range(2))
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert {name: metric["unit"] for name, metric in result["metrics"].items()} == units("per_layer")
    for name in EXACT:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    hit_ratio = first["metrics"]["harness.cache_hit_ratio"]["value"]
    assert hit_ratio == (1.0 if workload == "paper-warm" else 0.0)
    if workload != "paper-warm":
        assert first["metrics"]["engine.events"]["value"] > 0


def test_wrong_pinned_digest_is_a_failed_op(tmp_path):
    result_of(bench("sim-private", 0))
    saved = os.path.join(BENCH, "_work", "results", "sim-private-tiny-seed0-trace0.json")
    with open(saved, "r", encoding="utf-8") as handle:
        records = json.load(handle)["digests"]["records"]
    pins = tmp_path / "pins.json"
    pins.write_text(json.dumps({"records": {sorted(records)[0]: "0" * 16}, "tables": {}}))
    proc = bench("sim-private", 0, "--pins", str(pins))
    result = result_of(proc)
    assert not result["correct"]
    assert result["failed"] == 1 and result["attempted"] == 4
    assert "MISMATCH records" in proc.stdout


def test_refuses_dsi_environment():
    proc = bench("sim-private", 0, env=dict(os.environ, DSI_MODE="relaxed"))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "DSI_MODE" in proc.stderr


def test_fails_without_system_under_test(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = bench("sim-private", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
