"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import io
import json
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from omlie.admissible import (
    ADMISSIBLE,
    FULL,
    INADMISSIBLE,
    MODULE_ONLY,
    decide_admissible,
    operator_matrices,
    propagate,
    verify_witness,
)
from omlie.algebra import (
    check_module_identity,
    check_omega_lie,
    check_omega_lsa,
    commutator_algebra,
    is_perfect,
    specialize,
)
from omlie.catalog import instantiate, list_entries
from omlie.cli import run_command, theorem_targets
from omlie.fields import QALPHA, QQ
from omlie.fileformat import parse_algebra_text
from omlie.linalg import AffineSpace
from omlie.multipoly import MPoly, buchberger, contains_one, normal_form

from oracles import random_fraction, s_polynomial, scalar_matrix

SAMPLES = (Fraction(2), Fraction(-2), Fraction(1, 2))


def _parametric(entry):
    return any(s.name == "alpha" for s in entry.slots)


@pytest.fixture(scope="module")
def theorem_run():
    """Run verify-theorem1 once."""
    buf = io.StringIO()
    started = time.perf_counter()
    with redirect_stdout(buf):
        code = run_command(["verify-theorem1"])
    elapsed = time.perf_counter() - started
    doc = json.loads(buf.getvalue())
    return code, doc, elapsed


def test_a1_catalog_soundness():
    started = time.perf_counter()
    count = 0
    for entry in list_entries("lie"):
        if _parametric(entry):
            L = instantiate(entry.name, {}, QALPHA)
            assert check_omega_lie(L).ok, entry.name
            assert is_perfect(L), entry.name
            count += 1
            for a0 in SAMPLES:
                Ls = instantiate(entry.name, {"alpha": a0}, QQ)
                assert check_omega_lie(Ls).ok, (entry.name, a0)
                assert is_perfect(Ls), (entry.name, a0)
                count += 1
        else:
            L = instantiate(entry.name, {}, QQ)
            assert check_omega_lie(L).ok, entry.name
            assert is_perfect(L), entry.name
            count += 1
    elapsed = time.perf_counter() - started
    print(f"\nA1 PASS ({elapsed:.2f}s): {count} perfect-family instances "
          "pass the omega-Lie check and are perfect (generic and sampled alpha)")


def test_a2_theorem_reproduction(theorem_run):
    code, doc, elapsed = theorem_run
    assert code == 0
    rows = doc["report"]["results"]
    assert len(rows) == 12
    families = {r["family"] for r in rows}
    assert families == {
        "A_alpha", "B", "C_alpha",
        "G1_alpha", "H1_alpha", "Atilde_alpha", "Btilde", "Ctilde_alpha",
        "P1", "P2",
    }
    assert [r["family"] for r in rows].count("P1") == 2
    assert [r["family"] for r in rows].count("P2") == 2
    for r in rows:
        assert r["verdict"] == INADMISSIBLE, r
        assert r["verdict"] != "UNKNOWN"
    assert doc["report"]["degree_cap"] == 6
    assert doc["report"]["all_inadmissible"] is True
    print(f"\nA2 PASS ({elapsed:.2f}s): verify-theorem1 returned INADMISSIBLE "
          "for all 12 perfect-family runs at degree cap 6, no UNKNOWN")


def test_a3_pinned_operator_values():
    started = time.perf_counter()
    alpha = QALPHA.alpha

    def point_operators(name, field, dim):
        L = instantiate(name, {}, field)
        prop = propagate(L, MODULE_ONLY)
        assert prop.space.is_point and not prop.residuals, name
        mats = operator_matrices(L, prop.space.origin)
        return L, dict(zip(L.basis_names, mats))

    zero3a = scalar_matrix(QALPHA, 3, 0)
    _, ops = point_operators("A_alpha", QALPHA, 3)
    assert ops["x"] == zero3a
    assert ops["y"] == zero3a
    assert ops["z"] == scalar_matrix(QALPHA, 3, -1)

    _, ops = point_operators("C_alpha", QALPHA, 3)
    assert ops["x"] == scalar_matrix(QALPHA, 3, QALPHA.one + alpha)
    assert ops["y"] == zero3a
    assert ops["z"] == zero3a

    _, ops = point_operators("Btilde", QQ, 4)
    zero4 = scalar_matrix(QQ, 4, 0)
    assert ops["x"] == scalar_matrix(QQ, 4, 2)
    assert ops["y"] == zero4 and ops["z"] == zero4 and ops["e"] == zero4

    _, ops = point_operators("P2", QQ, 5)
    zero5 = scalar_matrix(QQ, 5, 0)
    assert ops["a"] == scalar_matrix(QQ, 5, 1)
    for name in ("f1", "f2", "x", "y"):
        assert ops[name] == zero5

    elapsed = time.perf_counter() - started
    print(f"\nA3 PASS ({elapsed:.2f}s): module-only fixed points equal the pinned "
          "operator tuples exactly (A_alpha, C_alpha, Btilde, P2)")


def test_a4_positive_controls():
    started = time.perf_counter()
    rng = random.Random(2024)
    decided = 0
    for name in ("LSA3-1", "LSA3-2"):
        reports = {}
        for _ in range(50):
            params = {k: random_fraction(rng) for k in ("a1", "a2", "a3")}
            A = instantiate(name, params, QQ)
            assert check_omega_lsa(A).ok
            assert check_module_identity(A).ok
            L = commutator_algebra(A)
            assert check_omega_lie(L).ok
            assert not is_perfect(L)
            key = L.bracket
            if key not in reports:
                reports[key] = decide_admissible(L)
                decided += 1
            rep = reports[key]
            assert rep.verdict == ADMISSIBLE
            assert rep.witness is not None
            assert verify_witness(L, rep.witness)
            # the witness algebra satisfies the operator identity as well
            from omlie.algebra import OmegaLsaAlgebra

            witness_algebra = OmegaLsaAlgebra(QQ, L.basis_names, rep.witness, L.omega)
            assert check_module_identity(witness_algebra).ok
    elapsed = time.perf_counter() - started
    print(f"\nA4 PASS ({elapsed:.2f}s): both families at 50 random parameter "
          f"triples pass all checks; commutators never perfect and admissible "
          f"with verified witnesses ({decided} distinct decider inputs)")


def test_a5_decider_self_consistency(theorem_run):
    started = time.perf_counter()
    _code, doc, _ = theorem_run

    # certificate stage dimensions are non-increasing on every theorem run
    for r in doc["report"]["results"]:
        dims = r["stage_dims"]
        assert all(a >= b for a, b in zip(dims, dims[1:])), r

    # full-mode solution set is contained in the module-only one
    for name in ("LSA3-1", "LSA3-2"):
        L = commutator_algebra(instantiate(name, {}, QQ))
        full = propagate(L, FULL)
        module = propagate(L, MODULE_ONLY)
        assert full.space.feasible and module.space.feasible
        assert AffineSpace.make(QQ, full.space.origin, module.space.basis) == module.space
        ext = AffineSpace.make(QQ, module.space.origin, module.space.basis + full.space.basis)
        assert ext == module.space

    # generic Q(alpha) verdicts equal the sampled-alpha verdicts
    for entry in list_entries("lie"):
        if not _parametric(entry):
            continue
        L = instantiate(entry.name, {}, QALPHA)
        generic = decide_admissible(L).verdict
        for a0 in SAMPLES:
            special = specialize(L, a0)
            assert decide_admissible(special).verdict == generic, (entry.name, a0)

    # byte-identical reports modulo the timing field
    def run_bytes(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            run_command(argv)
        out = json.loads(buf.getvalue())
        out.pop("timing_ms")
        return json.dumps(out)

    for argv in (["catalog", "list"], ["verify-theorem1"]):
        assert run_bytes(argv) == run_bytes(argv)

    elapsed = time.perf_counter() - started
    print(f"\nA5 PASS ({elapsed:.2f}s): monotone certificate dims, full-mode "
          "space contained in module-only space, generic verdicts match "
          "samples, reports byte-identical modulo timing")


def test_a6_groebner_unit_suite():
    started = time.perf_counter()

    def criterion(basis):
        basis = list(basis)
        for i in range(len(basis)):
            for j in range(i):
                assert not normal_form(s_polynomial(basis[i], basis[j]), basis)

    # the three pinned examples
    res = buchberger([MPoly(QQ, 1, {(1,): 1, (0,): -1}), MPoly(QQ, 1, {(1,): 1, (0,): -2})])
    assert contains_one(res) is True
    criterion(res.basis)

    quad = MPoly(QQ, 1, {(2,): 1, (0,): 1})
    res = buchberger([quad])
    assert contains_one(res) is False
    assert res.basis == (quad,)
    criterion(res.basis)

    res = buchberger([MPoly(QQ, 2, {(2, 0): 1, (0, 1): -1}), MPoly(QQ, 2, {(0, 2): 1, (1, 0): -1})])
    assert contains_one(res) is False
    assert not normal_form(MPoly(QQ, 2, {(4, 0): 1, (1, 0): -1}), list(res.basis))
    criterion(res.basis)

    # every basis the decider produces on the theorem targets, and on abelian
    # dim 2 with the witness search off, satisfies the criterion
    reports = [
        decide_admissible(instantiate(name, params, field))
        for name, params, field in theorem_targets()
    ]
    abelian2 = parse_algebra_text("kind = lie\nfield = Q\ndim = 2\nbasis = e1, e2\n")
    reports += [
        decide_admissible(abelian2, mode=mode, witness_search_budget=0)
        for mode in (FULL, MODULE_ONLY)
    ]
    checked = 0
    for rep in reports:
        if rep.groebner is None or rep.groebner.cap_exceeded:
            continue
        criterion(rep.groebner.basis)
        checked += 1
    assert checked >= 2

    elapsed = time.perf_counter() - started
    print(f"\nA6 PASS ({elapsed:.2f}s): pinned Buchberger examples verified; "
          f"Buchberger criterion holds on all {checked} bases the decider "
          "produced on the theorem targets (which resolve at linear stages) and "
          "on abelian dim 2 in both modes with the witness search off")
