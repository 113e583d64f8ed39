"""The benchmark's workloads: inputs made from the seed, the commands of one
pass, and the check each command's report must pass.

Inputs are written as ``.alg`` files with the program's own ``catalog emit``
and ``commutator`` commands (abelian algebras are written directly), so the
timed commands see only files, as a user's would.  README.md says why each
workload was chosen.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

ADMISSIBLE = "ADMISSIBLE"
UNKNOWN = "UNKNOWN"
EXPECTED_FILE = Path(__file__).resolve().parent / "expected.json"


@dataclass
class Command:
    label: str
    argv: list
    # check(exit code, parsed JSON report or None) -> "" when correct, else the reason
    check: Callable[[int, dict | None], str]


@dataclass
class Workload:
    name: str
    limit_s: float  # per-command time limit; a command that hits it failed
    build: Callable  # build(seed, workdir, run) -> list[Command]


def random_fraction(rng):
    """The parameter distribution of the acceptance suite's positive controls."""
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


def load_expected():
    with open(EXPECTED_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def emit_args(family, field, params, out):
    argv = ["catalog", "emit", "--family", family, "--field", field, "--output", str(out)]
    for key, value in sorted(params.items()):
        argv += ["--param", f"{key}={value}"]
    return argv


def _generate(run, argv):
    code = run(argv)
    if code != 0:
        raise RuntimeError(f"input generation failed (exit {code}): omlie {' '.join(argv)}")


def abelian_text(dim):
    names = ", ".join(f"e{i + 1}" for i in range(dim))
    return f"kind = lie\nfield = Q\ndim = {dim}\nbasis = {names}\n"


def commutator_input(run, workdir, family, params, stem):
    lsa = workdir / f"{stem}.lsa.alg"
    lie = workdir / f"{stem}.alg"
    _generate(run, emit_args(family, "Q", params, lsa))
    _generate(run, ["commutator", str(lsa), "--output", str(lie)])
    return lie


def _verdict(doc):
    return None if doc is None else doc.get("verdict")


def expect_verdict(verdict, code=0):
    def check(exit_code, doc):
        if exit_code != code:
            return f"exit code {exit_code}, expected {code}"
        if _verdict(doc) != verdict:
            return f"verdict {_verdict(doc)}, expected {verdict}"
        return ""

    return check


# ---------------------------------------------------------------- perfect

THEOREM_FIELDS = ("family", "field", "params", "dim", "verdict", "stage_dims")


def build_perfect(seed, workdir, run):
    expected = load_expected()["theorem_targets"]
    rng = random.Random(seed)
    results = [{k: t[k] for k in THEOREM_FIELDS} for t in expected]

    def check_theorem(code, doc):
        if code != 0:
            return f"exit code {code}, expected 0"
        report = (doc or {}).get("report", {})
        if _verdict(doc) != "PASS" or report.get("all_inadmissible") is not True:
            return "verify-theorem1 did not certify all targets INADMISSIBLE"
        if report.get("results") != results:
            return "theorem results (verdicts or stage_dims) differ from expected.json"
        return ""

    commands = [Command("verify-theorem1", ["verify-theorem1"], check_theorem)]
    samples = []
    for idx, target in enumerate(expected):
        path = workdir / f"target{idx}.alg"
        _generate(run, emit_args(target["family"], target["field"], target["params"], path))
        tag = f"{target['family']}#{idx}"
        commands.append(
            Command(
                f"module-only {tag}",
                ["admissible", str(path), "--mode", "module-only"],
                expect_verdict(target["module_only_verdict"]),
            )
        )
        if target["field"] != "Q":
            values = [random_fraction(rng), random_fraction(rng)]
            argv = ["admissible", str(path)]
            for v in values:
                argv += ["--sample", f"alpha={v}"]
            samples.append(Command(f"sample {tag}", argv, _sample_check(target["verdict"])))
    return commands + samples


def _sample_check(generic):
    plain = expect_verdict(generic)

    def check(code, doc):
        reason = plain(code, doc)
        if reason:
            return reason
        rows = doc["report"].get("samples", [])
        if len(rows) != 2:
            return f"{len(rows)} sample rows, expected 2"
        for row in rows:
            if row.get("status") != "rejected" and row.get("matches") is not True:
                return f"sample alpha={row.get('alpha')} does not match the generic verdict"
        return ""

    return check


# ---------------------------------------------------------------- controls

@functools.lru_cache(maxsize=None)
def _load_lie(alg_path):
    from omlie.fileformat import parse_algebra_text

    text = Path(alg_path).read_text(encoding="utf-8")
    return text, parse_algebra_text(text)


def witness_holds(alg_path, witness):
    """Re-verify a reported product witness with ``verify_witness``, reading
    the product back from the report's text form."""
    from omlie.admissible import verify_witness
    from omlie.fileformat import parse_algebra_text

    text, L = _load_lie(alg_path)
    lines = [
        "kind = lsa",
        f"field = {L.field.name}",
        f"dim = {L.dim}",
        f"basis = {', '.join(L.basis_names)}",
        "[products]",
    ]
    lines += [f"{pair} = {value}" for pair, value in witness["products"].items()]
    omega = text.split("[omega]", 1)
    if len(omega) == 2:
        lines += ["[omega]", omega[1]]
    product = parse_algebra_text("\n".join(lines), check=False).product
    return verify_witness(L, product)


def _control_check(path, mode):
    plain = expect_verdict(ADMISSIBLE)

    def check(code, doc):
        reason = plain(code, doc)
        if reason or mode != "full":
            return reason
        witness = doc["report"].get("witness")
        if not witness:
            return "full-mode ADMISSIBLE verdict without a product witness"
        if not witness_holds(str(path), witness):
            return "reported witness fails the independent re-check"
        return ""

    return check


def _groebner_check(code, doc):
    if (code, _verdict(doc)) in ((0, ADMISSIBLE), (3, UNKNOWN)):
        return ""
    return f"exit code {code} with verdict {_verdict(doc)}; expected ADMISSIBLE or UNKNOWN"


# Settings that skip the rational-point search, so that the degree-capped
# Buchberger endgame decides.
NO_SEARCH = ["--witness-search-budget", "0", "--degree-cap"]


def build_controls(seed, workdir, run):
    rng = random.Random(seed)
    commands = []

    def add(stem, path, mode, cap=None):
        if cap is None:
            commands.append(Command(f"{stem} {mode}", ["admissible", str(path), "--mode", mode],
                                    _control_check(path, mode)))
        else:
            commands.append(Command(f"{stem} {mode} cap{cap}",
                                    ["admissible", str(path), "--mode", mode, *NO_SEARCH, str(cap)],
                                    _groebner_check))

    # LSA3-1 commutators reach the witness search with default settings; four
    # seeded triples, two in each mode, so that one seed's coefficient sizes
    # weigh less.  The first two are also decided with the search off, in the
    # other mode, at cap 3: every triple tried then ends UNKNOWN after 30
    # S-pairs in full mode and 20 in module-only mode.
    for k, mode in enumerate(("full", "module-only", "full", "module-only")):
        params = {p: str(random_fraction(rng)) for p in ("a1", "a2", "a3")}
        stem = f"LSA3-1-{k}"
        path = commutator_input(run, workdir, "LSA3-1", params, stem)
        add(stem, path, mode)
        if k < 2:
            add(stem, path, "module-only" if mode == "full" else "full", cap=3)
    # LSA3-2 commutators settle at the linear stage in milliseconds, so one
    # triple of that family suffices.
    params = {p: str(random_fraction(rng)) for p in ("a1", "a2", "a3")}
    path = commutator_input(run, workdir, "LSA3-2", params, "LSA3-2-0")
    for mode in ("full", "module-only"):
        add("LSA3-2-0", path, mode)
    # Abelian dim 2 reaches a Groebner basis at cap 6.  Abelian dim 3 runs
    # only in module-only mode, the slowest default-settings command (the
    # harvest rref): full mode would add about 1 s per pass, and the fewer
    # passes a run holds, the more each timing follows the host.
    for dim in (2, 3):
        path = workdir / f"abelian{dim}.alg"
        path.write_text(abelian_text(dim), encoding="utf-8")
    for mode in ("full", "module-only"):
        add("abelian2", workdir / "abelian2.alg", mode)
        add("abelian2", workdir / "abelian2.alg", mode, cap=6)
    add("abelian3", workdir / "abelian3.alg", "module-only")
    return commands


# Why each workload is here: README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("perfect", 30.0, build_perfect),
        Workload("controls", 60.0, build_controls),
    )
}
