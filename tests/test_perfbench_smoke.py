"""The benchmark runs each workload and ends its output with one result line.

A short run of perfbench/run.py per workload in BENCHMARK.json, untraced and
traced: exit 0, a last line of standard output that is strict JSON, no failed
operation and finite numeric metrics.
"""
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _reject_constant(name):
    raise ValueError(f"non-finite constant {name} in the result line")


def _result(workload, trace):
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
                           workload, "--seconds", "0.1", "--trace", trace],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_reject_constant)
    assert result["failed"] == 0, proc.stdout
    assert result["metrics"]
    for name, metric in result["metrics"].items():
        value = metric["value"]
        assert type(value) in (int, float) and math.isfinite(value), (name, value)
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_ends_with_a_result_line(workload):
    _result(workload, "0")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_benchmark_passes_its_checks(workload):
    # a traced run also checks that the wrapped session calls count every input frame
    # and that the spans leave at most 2% of the wall time unattributed; every workload's
    # sessions call FrameSimulator.frame, so its span must have timed some synthesis
    metrics = _result(workload, "1")["metrics"]
    assert metrics["channel.frame_s"]["value"] > 0, metrics
    assert metrics["channel.frames_per_busy_s"]["value"] > 0, metrics
