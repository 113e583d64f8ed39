"""Self-test of the benchmark's correctness gate.

    python3 bench/selftest.py

Runs three commands through the benchmark's own ``execute`` and ``summarize``:
one whose expected verdict is right, one whose expected verdict is
deliberately wrong, and one that runs past a tiny time limit.  The last two
must count as failed, so fail_frac must read 2/3.  It also checks that the
independent witness re-check rejects a tampered witness.  Exit status 0 when
every check holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import run as bench
import workloads


def main():
    run_command = bench.import_program()
    bench.WORK_ROOT.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=bench.WORK_ROOT) as tmp:
            small = Path(tmp) / "abelian2.alg"
            large = Path(tmp) / "abelian3.alg"
            small.write_text(workloads.abelian_text(2), encoding="utf-8")
            large.write_text(workloads.abelian_text(3), encoding="utf-8")
            admissible = workloads.expect_verdict(workloads.ADMISSIBLE)
            runs = [
                (workloads.Command("right", ["admissible", str(small)], admissible), 30.0),
                (workloads.Command("wrong", ["admissible", str(small)],
                                   workloads.expect_verdict("INADMISSIBLE")), 30.0),
                (workloads.Command("slow", ["admissible", str(large), "--mode", "module-only"],
                                   admissible), 0.05),
            ]
            outcomes = [bench.execute(cmd, run_command, limit) for cmd, limit in runs]
            summary = bench.summarize([bench.Pass(False, 0.0, outcomes)], None, [0.0], 0)

            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                run_command(["admissible", str(small)])
            witness = json.loads(out.getvalue())["report"]["witness"]
            tampered = {"products": {"e1,e2": "e1"}}
            checks = {
                "right verdict is ok": outcomes[0].status == "ok",
                "wrong expected verdict counts as failed": outcomes[1].status == "wrong",
                "time limit counts as failed": outcomes[2].status == "timeout",
                "fail_frac is 2/3": summary.reported["fail_frac"][0] == 2 / 3,
                "ok_frac is 1/3": summary.metrics["ok_frac"][0] == 1 / 3,
                "reported witness re-verifies": workloads.witness_holds(str(small), witness),
                "tampered witness is rejected": not workloads.witness_holds(str(small), tampered),
            }
    finally:
        with contextlib.suppress(OSError):
            bench.WORK_ROOT.rmdir()
    for name, ok in checks.items():
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    return 0 if all(checks.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
