"""The benchmark's own checks, and the shape of its output, run end to end.

A benchmark run must end in exactly one result line that is strict JSON, so
nothing may write to the real stdout outside ``run_command``'s redirect
(at import, at exit, or through a stream bound at import time), and no metric
may be NaN or infinite.  A traced run must also find every name it traces: a
renamed or removed function shows as a null metric and in the ``report:``
line's ``absent`` list, and every per-layer name ``BENCHMARK.json`` declares
must be among the metrics.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(*args):
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in the result line")


def test_selftest_passes():
    lines = _run("bench/selftest.py").splitlines()
    assert lines and all(line.startswith("PASS") for line in lines)


@pytest.mark.parametrize("workload", ["perfect", "controls"])
def test_traced_run_ends_in_a_strict_json_result(workload):
    out = _run(
        "bench/run.py", "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1"
    )
    *_, report, last = out.splitlines()
    result = json.loads(last, parse_constant=_reject_constant)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    metrics = result["metrics"]
    for name, metric in metrics.items():
        value = metric["value"]
        assert type(value) in (int, float) and math.isfinite(value), (name, value)
    assert report.startswith("report: ")
    assert json.loads(report[len("report: ") :], parse_constant=_reject_constant)["absent"] == []
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    assert {m["name"] for m in declared} <= metrics.keys()
