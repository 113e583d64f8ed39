"""Golden certificates: ``admissible --format json`` reports compared with a
recorded copy, so that a refactor that claims to keep verdicts, certificates,
witnesses and annotations byte-identical is checked across commits, not only
across reruns of one commit.

The inputs are every ``verify-theorem1`` target, the commutators of LSA3-1 and
LSA3-2 at default parameters, and abelian dim 2 with the witness search off
(which reaches Buchberger), each in both decider modes.  ``timing_ms`` and
``input.path`` are dropped before comparing.

Re-record (only when a change of output is intended) with
``PYTHONPATH=src python tests/test_golden.py``.

The certificates do not cover ``--sample`` rows, which depend on the
denominators the generic run over Q(alpha) inverts; those trails are pinned
separately, in order, by ``test_denominator_trails_match_golden``.  Nor do
they reach a long Buchberger run: ``test_groebner_stage_matches_golden`` pins
the ``groebner`` stage of the LSA3-1 commutator with the search off.
"""

import io
import json
import os
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from omlie.admissible import FULL, MODULE_ONLY, decide_admissible
from omlie.algebra import commutator_algebra
from omlie.catalog import instantiate
from omlie.cli import run_command, theorem_targets
from omlie.fields import QALPHA, RatFunc, track_denominators

GOLDEN_PATH = Path(__file__).with_name("golden_certificates.json")
MODES = ("full", "module-only")


def _run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run_command(argv)
    return code, buf.getvalue()


def _generate(argv):
    code, _ = _run(argv)
    assert code == 0, argv


def _inputs():
    """(case stem, input file, extra admissible flags), files in the cwd."""
    out = []
    for name, params, field in theorem_targets():
        stem = f"{name}-alt" if params else name
        argv = ["catalog", "emit", "--family", name, "--field", field.name,
                "--output", f"{stem}.alg"]
        for k, v in sorted(params.items()):
            argv += ["--param", f"{k}={v}"]
        _generate(argv)
        out.append((stem, f"{stem}.alg", []))
    for family in ("LSA3-1", "LSA3-2"):
        _generate(["catalog", "emit", "--family", family, "--output", f"{family}.lsa.alg"])
        _generate(["commutator", f"{family}.lsa.alg", "--output", f"comm-{family}.alg"])
        out.append((f"comm-{family}", f"comm-{family}.alg", []))
    Path("abelian2.alg").write_text(
        "kind = lie\nfield = Q\ndim = 2\nbasis = e1, e2\n", encoding="utf-8"
    )
    out.append(("abelian2-budget0", "abelian2.alg", ["--witness-search-budget", "0"]))
    return out


def collect_reports(workdir):
    """Every golden case's report, keyed by case name, with the
    nondeterministic fields removed."""
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        reports = {}
        for stem, path, extra in _inputs():
            for mode in MODES:
                argv = ["admissible", path, "--mode", mode, "--format", "json", *extra]
                code, out = _run(argv)
                doc = json.loads(out)
                doc.pop("timing_ms")
                doc["input"].pop("path")
                reports[f"{stem} [{mode}]"] = {"exit_code": code, "document": doc}
        return reports
    finally:
        os.chdir(cwd)


def test_admissible_reports_match_golden(tmp_path):
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    reports = collect_reports(tmp_path)
    assert sorted(reports) == sorted(golden)
    for case, want in golden.items():
        got = reports[case]
        assert json.dumps(got, indent=2) == json.dumps(want, indent=2), case


# Ordered track_denominators trail of decide_admissible, per Q(alpha) target
# and mode, as monic polynomials in alpha.
GOLDEN_TRAILS = {
    ("A_alpha", FULL): [],
    ("A_alpha", MODULE_ONLY): [],
    ("C_alpha", FULL): ["alpha + 1", "alpha"],
    ("C_alpha", MODULE_ONLY): ["alpha + 1", "alpha"],
    ("G1_alpha", FULL): ["alpha", "alpha^2"],
    ("G1_alpha", MODULE_ONLY): ["alpha"],
    ("H1_alpha", FULL): ["alpha", "alpha^2"],
    ("H1_alpha", MODULE_ONLY): ["alpha"],
    ("Atilde_alpha", FULL): [],
    ("Atilde_alpha", MODULE_ONLY): [],
    ("Ctilde_alpha", FULL): ["alpha + 1", "alpha"],
    ("Ctilde_alpha", MODULE_ONLY): ["alpha + 1", "alpha"],
}


@pytest.mark.parametrize("name,mode", sorted(GOLDEN_TRAILS))
def test_denominator_trails_match_golden(name, mode):
    targets = [(n, p, f) for n, p, f in theorem_targets() if f is QALPHA]
    assert sorted({(n, m) for n, _, _ in targets for m in (FULL, MODULE_ONLY)}) == sorted(
        GOLDEN_TRAILS
    )
    (params,) = [p for n, p, _ in targets if n == name]
    L = instantiate(name, params, QALPHA)
    with track_denominators() as trail:
        decide_admissible(L, mode=mode)
    assert [QALPHA.format(RatFunc(pol)) for pol in trail] == GOLDEN_TRAILS[(name, mode)]


# The groebner certificate stage of the default-parameter LSA3-1 commutator
# with the witness search off, per (mode, degree cap).  Every run hits the cap,
# so the S-pair count records how far the Buchberger run got; module-only mode
# at cap 4 is left out for its run time.
GOLDEN_GROEBNER = {
    (FULL, 3): {"generators": 18, "spairs": 30, "max_degree": 3, "cap_exceeded": True},
    (FULL, 4): {"generators": 18, "spairs": 95, "max_degree": 4, "cap_exceeded": True},
    (MODULE_ONLY, 3): {"generators": 18, "spairs": 20, "max_degree": 3, "cap_exceeded": True},
}


@pytest.mark.parametrize("mode,cap", sorted(GOLDEN_GROEBNER))
def test_groebner_stage_matches_golden(mode, cap):
    L = commutator_algebra(instantiate("LSA3-1"))
    rep = decide_admissible(L, degree_cap=cap, mode=mode, witness_search_budget=0)
    (stage,) = [st for st in rep.certificate if st["stage"] == "groebner"]
    assert stage == {"stage": "groebner", "order": "degrevlex", **GOLDEN_GROEBNER[(mode, cap)]}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        data = collect_reports(tmp)
    GOLDEN_PATH.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(data)} cases to {GOLDEN_PATH}")
