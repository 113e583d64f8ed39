"""omlie benchmark: a closed-loop, single-process driver.

One client runs one CLI command at a time, in process, through
``omlie.cli.run_command``; the next command starts when the previous one has
returned and its JSON report has been checked.  A pass is every command of the
workload once.  Passes repeat for ``--seconds`` (no pass starts that would
likely end after it), and every pass is timed next to a fixed stdlib Fraction
loop, ``host.calib_s``, which tells host drift from a program change and
rescales nothing.

    python3 bench/run.py --workload perfect --seed 1 --seconds 55 --trace 0

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of the traced
ones (see layertrace.py) plus ``trace.overhead_frac``.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.  The
line before it, ``report: {...}``, holds the run metadata, the sample counts,
fail_frac, unknown_frac, per-command medians and any failures.  README.md
documents the workloads and metrics.

Exit status: 0 after a run, 2 when the program's sources are not in the
checkout or its inputs cannot be generated.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import layertrace
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
SETUP_REPEATS = 7
HARD_LIMIT_S = 150.0  # no command runs past this point of the run
P90_MIN_BEYOND = 10  # a p90 is read as such only with this many samples above it


class ProgramMissing(Exception):
    pass


def import_program():
    """Import omlie from this checkout's src/, never from anywhere else."""
    if not (SRC / "omlie" / "__init__.py").is_file():
        raise ProgramMissing(f"no omlie package under {SRC}")
    sys.path.insert(0, str(SRC))
    import omlie.cli

    if Path(omlie.__file__).resolve().parent != (SRC / "omlie").resolve():
        raise ProgramMissing(f"omlie was imported from {omlie.__file__}, not from {SRC}")
    # Looked up on each call, so that a traced pass reaches the wrapped name.
    return lambda argv: omlie.cli.run_command(argv)


def generate_inputs(workload, seed, workdir, run_command):
    def quiet(argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return run_command(argv)

    return workload.build(seed, Path(workdir), quiet)


# ------------------------------------------------------------------ commands

class CommandTimeout(BaseException):
    """Raised by the interval timer inside a command that ran past its limit."""


def _on_alarm(signum, frame):
    raise CommandTimeout


@dataclass
class Outcome:
    label: str
    seconds: float
    status: str  # ok | wrong | exception | timeout
    reason: str = ""
    unknown: bool = False
    stages: list = field(default_factory=list)  # witness_search and groebner stages


def execute(command, run_command, limit_s, tracer=None):
    """Run one command in process under a time limit and check its report."""
    out, err = io.StringIO(), io.StringIO()
    status, reason, code = "ok", "", None
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    if tracer is not None:
        tracer.install()
    start = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit_s)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run_command(list(command.argv))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except CommandTimeout:
        status, reason = "timeout", f"no verdict within the {limit_s:.1f} s limit"
    except Exception as exc:  # the run goes on; the command counts as failed
        status, reason = "exception", f"{type(exc).__name__}: {exc}"
    finally:
        seconds = perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
        signal.signal(signal.SIGALRM, previous)
    outcome = Outcome(command.label, seconds, status, reason, unknown=code == 3)
    if status != "ok":
        return outcome
    text = out.getvalue()
    try:
        doc = json.loads(text) if text.strip() else None
    except json.JSONDecodeError:
        doc = None
    try:
        reason = command.check(code, doc)
        if doc is not None and isinstance(doc.get("report"), dict):
            outcome.stages = [
                st for st in doc["report"].get("certificate", [])
                if st.get("stage") in ("witness_search", "groebner")
            ]
    except Exception as exc:  # a report of unexpected shape is a wrong answer
        reason = f"report check raised {type(exc).__name__}: {exc}"
    if reason:
        outcome.status = "wrong"
        outcome.reason = reason + (f" [stderr: {err.getvalue().strip()[:200]}]" if err.getvalue() else "")
    return outcome


@dataclass
class Pass:
    traced: bool
    calib_s: float
    outcomes: list

    @property
    def seconds(self):
        return sum(o.seconds for o in self.outcomes)


def calibrate(iterations=5000):
    """A fixed stdlib Fraction loop: host speed, independent of the program."""
    start = perf_counter()
    total = 0
    for i in range(1, iterations):
        total += (Fraction(i, i + 1) * Fraction(i + 2, i + 3) + Fraction(1, i % 7 + 2)).numerator % 7
    return perf_counter() - start


def pin_quietest_cpu(cpus):
    """Pin this process to the allowed CPU on which a short stdlib probe runs
    fastest.  Each virtual CPU of a shared host slows down with its neighbours'
    load; choosing before each command measures the program, not them."""
    if len(cpus) < 2:
        return
    timings = []
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        timings.append((calibrate(800), cpu))
    os.sched_setaffinity(0, {min(timings)[1]})


def run_passes(commands, run_command, limit_s, seconds, trace, hard_deadline, setups):
    """Closed loop of passes for ``seconds``; with trace, every other pass is traced.

    The set-ups due are timed before each pass, and the rest after the last.
    A command that times out ends its pass; the hard deadline ends the run.
    """
    tracer = layertrace.Tracer() if trace else None
    cpus = sorted(os.sched_getaffinity(0))
    passes = []
    walls = []  # wall time of each pass, probes included
    start = perf_counter()
    while perf_counter() < hard_deadline:
        traced_count = sum(p.traced for p in passes)
        enough_kinds = not trace or 0 < traced_count < len(passes)
        # No pass starts that would likely end after ``seconds``.
        if passes and enough_kinds and perf_counter() - start + statistics.median(walls) > seconds:
            break
        setups.due((perf_counter() - start) / seconds)
        traced = trace and len(passes) % 2 == 1
        began = perf_counter()
        pin_quietest_cpu(cpus)
        current = Pass(traced, calibrate(), [])
        passes.append(current)
        for command in commands:
            pin_quietest_cpu(cpus)
            remaining = hard_deadline - perf_counter()
            if remaining <= 0:
                break
            outcome = execute(command, run_command, min(limit_s, remaining), tracer if traced else None)
            current.outcomes.append(outcome)
            if outcome.status == "timeout":
                break
        walls.append(perf_counter() - began)
    setups.due(1.0)
    return passes, tracer


# ------------------------------------------------------------------ statistics

def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class SetupTimer:
    """Wall times of fresh interpreters that import omlie and write the
    workload's inputs: interpreter start to the point the first command could
    run.  They are spread over the run, between passes, so that their median
    reads the host over the whole run rather than over its first seconds."""

    def __init__(self, args, repeats=SETUP_REPEATS):
        self.args = args
        self.repeats = repeats
        self.times = []
        self.cpus = sorted(os.sched_getaffinity(0))

    def due(self, fraction):
        """Run the set-ups due once ``fraction`` of the run has elapsed."""
        while len(self.times) < min(self.repeats, 1 + int(fraction * self.repeats)):
            self.times.append(self._once())

    def _once(self):
        workdir = tempfile.mkdtemp(dir=WORK_ROOT)
        try:
            pin_quietest_cpu(self.cpus)  # the child inherits the choice
            start = perf_counter()
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--setup-only", workdir,
                 "--workload", self.args.workload, "--seed", str(self.args.seed)],
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=60,
            )
            seconds = perf_counter() - start
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if proc.returncode != 0:
            raise ProgramMissing(f"set-up failed: {proc.stderr.strip()[-400:]}")
        return seconds


@dataclass
class Summary:
    attempted: int
    failed: int
    metrics: dict  # name -> (value, unit, note): the result line
    reported: dict  # name -> (value, unit, note): printed beside them, no bound
    samples: dict
    per_command: dict
    failures: list


def summarize(passes, tracer, setup_times, trace):
    outcomes = [o for p in passes for o in p.outcomes]
    attempted = len(outcomes)
    failed = sum(o.status != "ok" for o in outcomes)
    unknown = sum(o.unknown for o in outcomes)
    plain = [p for p in passes if not p.traced]
    cmd_times = [o.seconds for p in plain for o in p.outcomes]
    by_label = {}
    for o in (o for p in plain for o in p.outcomes):
        by_label.setdefault(o.label, []).append(o.seconds)
    p50_by_label = {label: statistics.median(times) for label, times in by_label.items()}
    best_by_label = {label: min(times) for label, times in by_label.items()}
    beyond = len(cmd_times) - math.ceil(0.9 * len(cmd_times))
    p90_note = f"n={len(cmd_times)}, {beyond} above" + (
        "" if beyond >= P90_MIN_BEYOND else f"; fewer than {P90_MIN_BEYOND}, indicative only")
    reported = {
        "pass_s.best": (sum(best_by_label.values()), "s",
                        f"sum over {len(best_by_label)} commands of each one's fastest "
                        f"of {len(plain)} passes"),
        "cmd_s.p50": (statistics.median(cmd_times), "s", f"n={len(cmd_times)} commands"),
        "cmd_s.p90": (nearest_rank(cmd_times, 0.9), "s", p90_note),
        "cmd_s.max_p50": (max(p50_by_label.values()), "s",
                          f"the slowest of {len(p50_by_label)} commands, by its median"),
        "fail_frac": (failed / attempted, "frac", f"{failed}/{attempted} commands"),
        "unknown_frac": (unknown / attempted, "frac", f"{unknown}/{attempted} commands"),
        "host.calib_s": (statistics.median(p.calib_s for p in passes), "s",
                         "stdlib Fraction loop, median over passes; rescales nothing"),
    }
    if trace:
        metrics = layer_metrics(passes, tracer)
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s",
                        f"median of {len(setup_times)} fresh set-ups"),
            "pass_s.p50": (statistics.median(p.seconds for p in plain), "s",
                           f"median of {len(plain)} passes"),
            "peak_rss_mb": (peak_rss_mb(), "MB", "driver process, getrusage"),
            "ok_frac": ((attempted - failed) / attempted, "frac", "1 - fail_frac"),
            "decided_frac": ((attempted - unknown) / attempted, "frac", "1 - unknown_frac"),
        }
    samples = {
        "setup_s": len(setup_times),
        "passes": len(plain),
        "traced_passes": len(passes) - len(plain),
        "commands_per_pass": len(p50_by_label),
        "cmd_s": len(cmd_times),
        "cmd_s.beyond_p90": beyond,
    }
    failures = [f"{o.label}: {o.status}: {o.reason}" for o in outcomes if o.status != "ok"]
    per_command = {"cmd_s.p50_by_command": p50_by_label, "cmd_s.best_by_command": best_by_label}
    return Summary(attempted, failed, metrics, reported, samples, per_command, failures)


def layer_metrics(passes, tracer):
    traced = [p for p in passes if p.traced]
    n = len(traced)
    stats = tracer.stats
    stages = [st for p in traced for o in p.outcomes for st in o.stages]
    searches = [st for st in stages if st["stage"] == "witness_search"]
    groebner = [st for st in stages if st["stage"] == "groebner"]

    def per_pass(name, key):
        stat = stats.get(name)
        if key in ("calls", "busy_s", "self_s"):
            return None if stat is None else getattr(stat, key) / n
        if stat is None or name in tracer.measure_failed:
            return None
        return stat.extra.get(key, 0) / n

    def ratio(name, num, den):
        stat = stats.get(name)
        if stat is None or name in tracer.measure_failed:
            return None
        return stat.extra.get(num, 0) / stat.extra[den] if stat.extra.get(den) else 0.0

    def frac(items, key):
        return sum(bool(st.get(key)) for st in items) / len(items) if items else 0.0

    untraced_s = statistics.median(p.seconds for p in passes if not p.traced)
    traced_s = statistics.median(p.seconds for p in traced)
    metrics = {}
    for name, unit in (
        ("fields.poly_gcd.calls", "count"), ("fields.poly_gcd.busy_s", "s"),
        ("fields.RatFunc.inverse.calls", "count"),
        ("linalg.Matrix.calls", "count"), ("linalg.Matrix.cells", "count"),
        ("linalg.rref.calls", "count"), ("linalg.rref.busy_s", "s"), ("linalg.rref.self_s", "s"),
        ("linalg.rref.cells", "count"),
        ("linalg.solve_affine.calls", "count"), ("linalg.solve_affine.busy_s", "s"),
        ("linalg.intersect.calls", "count"), ("linalg.intersect.busy_s", "s"),
        ("linalg.AffineSpace.restrict.calls", "count"), ("linalg.AffineSpace.restrict.busy_s", "s"),
        ("admissible.propagate.calls", "count"), ("admissible.propagate.busy_s", "s"),
        ("admissible.propagate.self_s", "s"),
        ("admissible.module_identity_residuals.calls", "count"),
        ("admissible.module_identity_residuals.busy_s", "s"),
        ("admissible.module_identity_residuals.residuals", "count"),
        ("admissible.verify_witness.calls", "count"), ("admissible.verify_witness.busy_s", "s"),
        ("algebra.check_omega_lie.busy_s", "s"), ("algebra.check_omega_lsa.busy_s", "s"),
        ("multipoly.buchberger.calls", "count"), ("multipoly.buchberger.busy_s", "s"),
        ("multipoly.buchberger.self_s", "s"),
        ("multipoly.normal_form.calls", "count"), ("multipoly.normal_form.busy_s", "s"),
        ("multipoly.interreduce.calls", "count"), ("multipoly.interreduce.busy_s", "s"),
        ("multipoly.MPoly.lead_monomial.calls", "count"),
        ("catalog.instantiate.busy_s", "s"), ("fileformat.parse_algebra_text.busy_s", "s"),
        ("cli.run_command.self_s", "s"),
    ):
        owner, key = name.rsplit(".", 1)
        metrics[name] = (per_pass(owner, key), unit)
    metrics["linalg.rref.nnz_frac"] = (ratio("linalg.rref", "nnz", "cells"), "frac")
    metrics["linalg.rref.rank_frac"] = (ratio("linalg.rref", "rank", "rows"), "frac")
    decider = stats.get(layertrace.DECIDER)
    metrics["admissible.search.busy_s"] = (None if decider is None else tracer.search_s / n, "s")
    metrics["admissible.search.found_frac"] = (frac(searches, "found"), "frac")
    metrics["multipoly.buchberger.spairs"] = (sum(st.get("spairs", 0) for st in groebner) / n, "count")
    metrics["multipoly.buchberger.cap_exceeded_frac"] = (frac(groebner, "cap_exceeded"), "frac")
    for layer, seconds in tracer.layer_self_s().items():
        metrics[f"{layer}.self_s"] = (seconds / n, "s")
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "frac")
    metrics["host.calib_s"] = (statistics.median(p.calib_s for p in passes), "s")
    notes = {"trace.overhead_frac": "traced pass_s.p50 / untraced pass_s.p50 - 1"}
    return {name: (value, unit, notes.get(name, "")) for name, (value, unit) in metrics.items()}


# ------------------------------------------------------------------ main

def parse_args(argv):
    parser = argparse.ArgumentParser(description="omlie benchmark driver")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _row(name, value, unit, note=""):
    shown = "absent" if value is None else f"{value:.6g}"
    return f"  {name:<48} {shown:>12} {unit:<6} {note}"


def print_result(args, summary, absent):
    print(f"omlie bench  workload={args.workload} seed={args.seed} trace={args.trace} "
          f"python={platform.python_version()} nproc={os.cpu_count()} commit={git_commit()}")
    for name, (value, unit, note) in summary.metrics.items():
        print(_row(name, value, unit, note))
    print("  reported beside them, with no bound:")
    for name, (value, unit, note) in summary.reported.items():
        print(_row(name, value, unit, note))
    for line in summary.failures[:20]:
        print(f"  FAILED {line}")
    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "run_seconds": args.seconds, "python": platform.python_version(),
        "nproc": os.cpu_count(), "commit": git_commit(),
        "command_limit_s": workloads.WORKLOADS[args.workload].limit_s,
        "samples": summary.samples,
        **{name: value for name, (value, _unit, _note) in summary.reported.items()},
        **summary.per_command,
        "failures": summary.failures, "absent": sorted(absent),
    }
    print("report: " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": summary.failed == 0,
        "attempted": summary.attempted,
        "failed": summary.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _note) in summary.metrics.items()
        },
    }))


def main(argv=None):
    started = perf_counter()
    args = parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    try:
        run_command = import_program()
        WORK_ROOT.mkdir(exist_ok=True)
        if args.setup_only:
            generate_inputs(workload, args.seed, args.setup_only, run_command)
            return 0
        setups = SetupTimer(args)
        setups.due(0.0)  # a program that cannot set up fails before any pass
        workdir = tempfile.mkdtemp(dir=WORK_ROOT)
        try:
            commands = generate_inputs(workload, args.seed, workdir, run_command)
            passes, tracer = run_passes(
                commands, run_command, workload.limit_s, args.seconds, args.trace,
                started + HARD_LIMIT_S, setups,
            )
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except (ProgramMissing, ImportError, RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()
    summary = summarize(passes, tracer, setups.times, args.trace)
    absent = set() if tracer is None else {
        name for name, (value, _unit, _note) in summary.metrics.items() if value is None
    } | tracer.absent | tracer.measure_failed
    print_result(args, summary, absent)
    return 0


if __name__ == "__main__":
    sys.exit(main())
