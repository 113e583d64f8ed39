"""The benchmark's own checks, and the shape of its output, run end to end.

A benchmark run must end in exactly one result line that is strict JSON, so
nothing may write to the real stdout outside ``run_command``'s redirect
(at import, at exit, or through a stream bound at import time), and no metric
may be NaN or infinite.
"""

import json
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
    result = json.loads(out.splitlines()[-1], parse_constant=_reject_constant)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
