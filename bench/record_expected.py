"""Write bench/expected.json: what the perfect workload's checks compare against.

Runs ``verify-theorem1`` and ``admissible --mode module-only`` on each of its
targets, and records the targets with their verdicts and stage_dims.  Re-run
it only when a change is meant to alter those results, and say so in the
change:

    python3 bench/record_expected.py
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

    def capture(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run_command(argv)
        if code != 0:
            raise SystemExit(f"omlie {' '.join(argv)} exited with {code}")
        return json.loads(out.getvalue()) if out.getvalue() else None

    targets = []
    bench.WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=bench.WORK_ROOT) as tmp:
        for idx, result in enumerate(capture(["verify-theorem1"])["report"]["results"]):
            path = Path(tmp) / f"target{idx}.alg"
            capture(workloads.emit_args(result["family"], result["field"], result["params"], path))
            doc = capture(["admissible", str(path), "--mode", "module-only"])
            targets.append({**result, "module_only_verdict": doc["verdict"]})
    with open(workloads.EXPECTED_FILE, "w", encoding="utf-8") as fh:
        json.dump({"theorem_targets": targets}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(targets)} targets to {workloads.EXPECTED_FILE}", file=sys.stderr)


if __name__ == "__main__":
    main()
