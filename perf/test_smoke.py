"""Smoke test for the benchmark: ``pytest perf`` (outside tier-1).

Runs every workload for one op (``--seconds 0``), untraced, and two of
them traced, checking that every declared metric is printed, that no op
failed, and that trace files are Chrome trace-event arrays.
"""

import json
import os
import subprocess
import sys

import pytest

PERF = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCH = json.load(_handle)


def run_benchmark(*args: str) -> tuple[str, dict]:
    proc = subprocess.run([sys.executable, os.path.join(PERF, "run.py"),
                           *args], cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    return "\n".join(lines[:-1]), json.loads(lines[-1])


@pytest.mark.parametrize("workload",
                         [entry["name"] for entry in BENCH["workloads"]])
def test_one_op_prints_every_metric(workload):
    table, result = run_benchmark("--workload", workload, "--seconds", "0")
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    names = [entry["name"] for entry in BENCH["end_to_end"]]
    assert list(result["metrics"]) == names
    for name in names:
        assert name in table
        assert result["metrics"][name]["value"] > 0


@pytest.mark.parametrize("workload", ["oneshot", "edit"])
def test_traced_one_op_writes_chrome_trace(workload, tmp_path):
    _, result = run_benchmark("--workload", workload, "--seconds", "0",
                              "--trace", "1", "--trace-dir", str(tmp_path))
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [entry["name"]
                                       for entry in BENCH["per_layer"]]
    assert result["metrics"]["engine.session.calls"]["value"] > 0
    with open(tmp_path / f"{workload}.trace.json") as handle:
        events = json.load(handle)
    assert isinstance(events, list) and events
    assert all(event["ph"] == "X" and event["dur"] >= 0 for event in events)
