import copy
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd

import pytest

from omlie import admissible
from omlie.admissible import (
    ADMISSIBLE,
    FULL,
    INADMISSIBLE,
    MODULE_ONLY,
    UNKNOWN,
    compatibility_constraints,
    decide_admissible,
    jacobi_consequence_constraints,
    module_identity_residuals,
    operator_matrices,
    product_tensor_at,
    propagate,
    verify_witness,
)
from omlie.algebra import (
    StructureTensor,
    basis_change,
    check_omega_lie,
    commutator_algebra,
    left_mult,
    lie_from_tables,
)
from omlie.catalog import ALTERNATE_PARAMS, instantiate
from omlie.cli import theorem_targets
from omlie.errors import AxiomCheckError
from omlie.fields import QALPHA, QQ
from omlie.linalg import AffineSpace, Matrix, eliminate, intersect, solve_affine
from omlie.multipoly import MPoly, Packing, _degrevlex_desc_key

from oracles import (
    branch_candidates_reference,
    eliminate_reference,
    harvest_reference,
    keyed_residuals_reference,
    primitive_rows,
    random_fraction,
    scalar_matrix,
)


def a_alpha(field=QALPHA, alpha=None):
    a = field.coerce(alpha) if alpha is not None else QALPHA.alpha
    return lie_from_tables(
        field,
        ("x", "y", "z"),
        {("x", "y"): {"x": 1}, ("x", "z"): {"x": 1, "y": 1}, ("y", "z"): {"z": 1, "x": a}},
        {("y", "z"): -1},
    )


def abelian(field, n, omega_pairs=None):
    names = tuple(f"b{i}" for i in range(n))
    return lie_from_tables(field, names, {}, omega_pairs or {})


def left_mult_point(A):
    """Flatten the left multiplications of an lsa into decider coordinates."""
    n = A.dim
    out = []
    for i in range(n):
        M = left_mult(A, i)
        for r in range(n):
            out.extend(M.rows[r])
    return tuple(out)


def satisfies(rows, point):
    """True iff the point satisfies every sparse row (right-hand side at
    column len(point))."""
    n = len(point)
    return all(
        sum((v * point[c] for c, v in row.items() if c != n), QQ.zero) == row.get(n, 0)
        for row in rows
    )


class TestCompatibilityConstraints:
    def test_abelian_system_is_homogeneous(self):
        L = abelian(QQ, 3)
        rows = compatibility_constraints(L)
        assert len(rows) == 9 and not any(27 in row for row in rows)

    def test_a_alpha_pair_xy_rhs(self):
        L = a_alpha(QQ, 2)
        rows = compatibility_constraints(L)
        # rows come in pair order (x,y), (x,z), (y,z); first three are the
        # (x,y) equations with right side [x,y] = x = (1,0,0)
        assert [row.get(27, QQ.zero) for row in rows[:3]] == [QQ.one, QQ.zero, QQ.zero]

    def test_left_mults_of_valid_lsa_satisfy_all_equations(self):
        A = instantiate("LSA3-2", {"a1": "2", "a2": "-1", "a3": "1/3"}, QQ)
        L = commutator_algebra(A)
        assert satisfies(compatibility_constraints(L), left_mult_point(A))


class TestJacobiConsequences:
    def test_a_alpha_forces_lx_zero(self):
        L = a_alpha()
        space = solve_affine(L.field, jacobi_consequence_constraints(L), 27)
        # every point has the x-operator block (first 9 coordinates) zero
        assert all(not v for v in space.origin[:9])
        assert all(c >= 9 for vec in space.basis for c in vec)
        assert space.dim == 18

    def test_c_alpha_forces_lx_scalar(self):
        L = instantiate("C_alpha", {}, QALPHA)
        space = solve_affine(L.field, jacobi_consequence_constraints(L), 27)
        expected = scalar_matrix(QALPHA, 3, QALPHA.one + QALPHA.alpha)
        assert operator_matrices(L, space.origin)[0] == expected
        assert all(c >= 9 for vec in space.basis for c in vec)

    def test_trivial_omega_imposes_nothing(self):
        L = abelian(QQ, 3)
        assert jacobi_consequence_constraints(L) == []

    def test_valid_lsa_left_mults_satisfy_consequences(self):
        A = instantiate("LSA3-1", {"a1": "1", "a2": "0", "a3": "-2"}, QQ)
        L = commutator_algebra(A)
        assert satisfies(jacobi_consequence_constraints(L), left_mult_point(A))


class TestModuleResiduals:
    def test_residuals_vanish_at_left_mult_point(self):
        A = instantiate("LSA3-2", {}, QQ)
        L = commutator_algebra(A)
        point = left_mult_point(A)
        space = AffineSpace.make(QQ, point, [])
        assert module_identity_residuals(L, space) == []

    def test_dim1_abelian_no_pairs(self):
        L = abelian(QQ, 1)
        space = solve_affine(QQ, [], 1)
        assert module_identity_residuals(L, space) == []


class TestPropagateFixedPoints:
    """Module-only fixed points pinned by the case analysis."""

    def expect_point(self, L, expected):
        prop = propagate(L, MODULE_ONLY)
        assert prop.space.is_point and not prop.residuals
        mats = operator_matrices(L, prop.space.origin)
        got = dict(zip(L.basis_names, mats))
        for name, mat in expected.items():
            assert got[name] == mat, f"l_{name} differs"
        return prop

    def test_a_alpha(self):
        L = a_alpha()
        zero3 = scalar_matrix(QALPHA, 3, 0)
        self.expect_point(L, {"x": zero3, "y": zero3, "z": scalar_matrix(QALPHA, 3, -1)})

    def test_c_alpha(self):
        L = instantiate("C_alpha", {}, QALPHA)
        zero3 = scalar_matrix(QALPHA, 3, 0)
        self.expect_point(
            L, {"x": scalar_matrix(QALPHA, 3, QALPHA.one + QALPHA.alpha), "y": zero3, "z": zero3}
        )

    def test_btilde(self):
        L = instantiate("Btilde", {}, QQ)
        zero4 = scalar_matrix(QQ, 4, 0)
        self.expect_point(L, {"x": scalar_matrix(QQ, 4, 2), "y": zero4, "z": zero4, "e": zero4})

    def test_p2_default(self):
        L = instantiate("P2", {}, QQ)
        zero5 = scalar_matrix(QQ, 5, 0)
        self.expect_point(
            L, {"f1": zero5, "f2": zero5, "x": zero5, "y": zero5, "a": scalar_matrix(QQ, 5, 1)}
        )


class TestDecide:
    def test_requires_valid_omega_lie(self):
        # A_alpha bracket table with the omega sign flipped fails the axiom
        bad = lie_from_tables(
            QQ,
            ("x", "y", "z"),
            {("x", "y"): {"x": 1}, ("x", "z"): {"x": 1, "y": 1}, ("y", "z"): {"z": 1, "x": 2}},
            {("y", "z"): 1},
            check=False,
        )
        assert not check_omega_lie(bad).ok
        with pytest.raises(AxiomCheckError):
            decide_admissible(bad)

    def test_abelian_zero_omega_admissible_with_zero_witness(self):
        L = abelian(QQ, 2)
        rep = decide_admissible(L)
        assert rep.verdict == ADMISSIBLE
        assert rep.witness == StructureTensor.zero(QQ, 2)
        assert verify_witness(L, rep.witness)

    @pytest.mark.parametrize(
        "name,field",
        [
            ("A_alpha", QALPHA),
            ("B", QQ),
            ("C_alpha", QALPHA),
            ("Btilde", QQ),
            ("G1_alpha", QALPHA),
        ],
    )
    def test_perfect_families_inadmissible(self, name, field):
        L = instantiate(name, {}, field)
        rep = decide_admissible(L)
        assert rep.verdict == INADMISSIBLE
        assert rep.witness is None
        assert rep.certificate[-1]["reason"] == "linear stage infeasible"

    @pytest.mark.parametrize("name", ["LSA3-1", "LSA3-2"])
    def test_lsa_commutators_admissible_with_witness(self, name):
        A = instantiate(name, {"a1": "1/2", "a2": "-1", "a3": "2"}, QQ)
        L = commutator_algebra(A)
        rep = decide_admissible(L)
        assert rep.verdict == ADMISSIBLE
        assert rep.witness is not None
        assert verify_witness(L, rep.witness)

    def test_verdicts_never_unknown_at_default_cap_for_catalog(self):
        for name, field in [("A_alpha", QALPHA), ("P1", QQ), ("P2", QQ)]:
            rep = decide_admissible(instantiate(name, {}, field))
            assert rep.verdict == INADMISSIBLE

    def test_unknown_when_cap_too_low(self):
        # disable the point search so the capped Groebner run is reached
        A = instantiate("LSA3-1", {}, QQ)
        L = commutator_algebra(A)
        rep = decide_admissible(L, degree_cap=1, witness_search_budget=0)
        assert rep.verdict == UNKNOWN
        assert rep.certificate[-1]["reason"].startswith("degree cap")

    def test_module_only_admissible_without_witness(self):
        A = instantiate("LSA3-1", {}, QQ)
        L = commutator_algebra(A)
        rep = decide_admissible(L, mode=MODULE_ONLY)
        assert rep.verdict == ADMISSIBLE and rep.witness is None
        assert any("module-only" in a for a in rep.annotations)

    def test_settings_echoed(self):
        rep = decide_admissible(abelian(QQ, 2), degree_cap=4)
        assert rep.settings == {"mode": "full", "degree_cap": 4}

    def test_deterministic_reports(self):
        A = instantiate("LSA3-1", {}, QQ)
        L = commutator_algebra(A)
        r1 = decide_admissible(L)
        r2 = decide_admissible(L)
        assert r1.certificate == r2.certificate
        assert r1.witness == r2.witness

    def test_alternate_p_instances_inadmissible(self):
        for name in ("P1", "P2"):
            L = instantiate(name, ALTERNATE_PARAMS[name], QQ)
            assert decide_admissible(L).verdict == INADMISSIBLE

    def test_dimension_six_extension_instances(self):
        p1 = instantiate("P1", {"dim_h1": 3, "a": "2", "h1": "h0+f1", "h2": "f3"}, QQ)
        p2 = instantiate(
            "P2",
            {"dim_h": 3, "h1": "f3", "h2": "f1", "h3": "f2+f3", "b1": "1/2", "b2": "1", "c1": "-3/2"},
            QQ,
        )
        for L in (p1, p2):
            assert L.dim == 6
            assert decide_admissible(L).verdict == INADMISSIBLE


class TestVerifyWitness:
    def test_own_product_is_a_witness(self):
        A = instantiate("LSA3-2", {"a1": "3", "a2": "1", "a3": "-1"}, QQ)
        L = commutator_algebra(A)
        assert verify_witness(L, A.product)

    def test_zero_product_for_abelian(self):
        L = abelian(QQ, 2)
        assert verify_witness(L, StructureTensor.zero(QQ, 2))

    def test_zero_product_fails_for_a_alpha(self):
        L = a_alpha(QQ, 2)
        assert not verify_witness(L, StructureTensor.zero(QQ, 3))

    def test_wrong_dimension_fails(self):
        L = a_alpha(QQ, 2)
        assert not verify_witness(L, StructureTensor.zero(QQ, 2))


class TestCertificateProperties:
    def test_stage_dims_non_increasing(self):
        cases = [
            instantiate("A_alpha", {}, QALPHA),
            instantiate("P2", {}, QQ),
            commutator_algebra(instantiate("LSA3-1", {}, QQ)),
            commutator_algebra(instantiate("LSA3-2", {}, QQ)),
            abelian(QQ, 3),
        ]
        for L in cases:
            for mode in (FULL, MODULE_ONLY):
                rep = decide_admissible(L, mode=mode)
                dims = rep.stage_dims()
                assert all(a >= b for a, b in zip(dims, dims[1:])), (L, mode, dims)

    def test_full_space_contained_in_module_only_space(self):
        cases = [
            commutator_algebra(instantiate("LSA3-1", {}, QQ)),
            commutator_algebra(instantiate("LSA3-2", {}, QQ)),
            abelian(QQ, 2),
            abelian(QQ, 2, {("b0", "b1"): 1}),
        ]
        for L in cases:
            full = propagate(L, FULL)
            module = propagate(L, MODULE_ONLY)
            if not full.space.feasible:
                continue
            assert module.space.feasible
            # the full space's origin and directions lie in the module-only space
            assert AffineSpace.make(QQ, full.space.origin, module.space.basis) == module.space
            ext = AffineSpace.make(QQ, module.space.origin, module.space.basis + full.space.basis)
            assert ext == module.space

    def test_generic_verdict_matches_samples(self):
        from omlie.algebra import specialize

        for name in ("A_alpha", "C_alpha", "G1_alpha", "Ctilde_alpha"):
            L = instantiate(name, {}, QALPHA)
            generic = decide_admissible(L).verdict
            for a0 in (Fraction(2), Fraction(-2), Fraction(1, 2)):
                special = specialize(L, a0)
                assert decide_admissible(special).verdict == generic


class TestTheoremOnRandomLsaParameters:
    def test_commutators_never_inadmissible(self):
        # a witness exists by construction, so INADMISSIBLE would be unsound
        rng = random.Random(83)
        for name in ("LSA3-1", "LSA3-2"):
            seen = set()
            for _ in range(6):
                params = {k: random_fraction(rng) for k in ("a1", "a2", "a3")}
                A = instantiate(name, params, QQ)
                L = commutator_algebra(A)
                seen.add(L.bracket)
                rep = decide_admissible(L)
                assert rep.verdict == ADMISSIBLE
            # the commutator bracket is parameter independent for both families
            assert len(seen) == 1


def _permuted_shear(field, n, rng):
    """A seeded permutation matrix times one shear e_j += c * e_i."""
    perm = rng.sample(range(n), n)
    i, j = rng.sample(range(n), 2)
    c = random_fraction(rng) or Fraction(1)
    shear = [[c if (r, k) == (i, j) else int(r == k) for k in range(n)] for r in range(n)]
    # the permutation matrix, 1 at (perm[k], k), moves row k of the shear to row perm[k]
    return Matrix(field, [shear[perm.index(r)] for r in range(n)])


def test_verdicts_survive_basis_change():
    cases = [instantiate(name, params, field) for name, params, field in theorem_targets()]
    cases += [
        commutator_algebra(instantiate("LSA3-1", {}, QQ)),
        commutator_algebra(instantiate("LSA3-2", {}, QQ)),
        abelian(QQ, 2),
    ]
    rng = random.Random(97)
    seen = set()
    for k, L in enumerate(cases):
        changed = basis_change(L, _permuted_shear(L.field, L.dim, rng))
        assert check_omega_lie(changed).ok
        for mode in (FULL, MODULE_ONLY):
            want = decide_admissible(L, mode=mode).verdict
            assert decide_admissible(changed, mode=mode).verdict == want, (k, mode)
            seen.add(want)
    assert seen == {ADMISSIBLE, INADMISSIBLE}


def test_product_tensor_round_trip():
    A = instantiate("LSA3-2", {"a1": "1", "a2": "2", "a3": "3"}, QQ)
    L = commutator_algebra(A)
    point = left_mult_point(A)
    assert product_tensor_at(L, point) == A.product


def _full_elimination(ring, rows, keep_from):
    """The whole elimination by the ``Fraction`` kernel, in place of the
    harvest's fraction-free one on integer rows: its rows before
    ``keep_from`` are an echelon form that with the rest spans the input, as
    ``eliminate`` returns them."""
    assert ring is None
    return eliminate(QQ, [{c: Fraction(v) for c, v in row.items()} for row in rows])


def _keyed(p):
    """An MPoly's terms keyed as the harvest keys them."""
    pack = Packing(p.nvars, 3).pack
    return {pack(m): c for m, c in p.terms.items()}


def _loop_harvest_reference(residuals, d, with_products):
    """The harvest the loop asks for, by the plain-loop oracle: the residuals'
    span, and only when it gives no row, with ``with_products``, the span with
    their multiples.  Returns (rows, whether the multiples were used)."""
    polys = admissible._as_mpolys(residuals, d, QQ)
    plain = harvest_reference(polys, d, QQ, False)
    if plain or not with_products:
        return plain, False
    return harvest_reference(polys, d, QQ, True), True


def test_harvest_matches_full_elimination(monkeypatch):
    # The harvest reduces only the echelon form of the quadratic block; its
    # rows must be those of the whole RREF whose pivot is a parameter.  Each
    # system is taken at the first harvest, at the fixed point and at the
    # fixed point with its first parameter pinned, as the search pins it.
    cases = [
        (commutator_algebra(instantiate(family, {}, QQ)), mode)
        for family in ("LSA3-1", "LSA3-2")
        for mode in (FULL, MODULE_ONLY)
    ] + [(abelian(QQ, 3), MODULE_ONLY)]
    harvested = used_products = 0
    for L, mode in cases:
        first = solve_affine(QQ, jacobi_consequence_constraints(L), L.dim**3)
        if mode == FULL:
            first = intersect(first, compatibility_constraints(L))
        fixed = propagate(L, mode).space
        pinned = fixed.restrict([{0: QQ.one, fixed.dim: QQ.one}])
        for space in (first, fixed, pinned):
            residuals = module_identity_residuals(L, space)
            for with_products in (False, True):
                got = admissible._harvest_linear(residuals, space.dim, QQ, with_products)
                with monkeypatch.context() as m:
                    m.setattr(admissible, "eliminate", _full_elimination)
                    want = admissible._harvest_linear(residuals, space.dim, QQ, with_products)
                assert got == want
                assert got == _loop_harvest_reference(residuals, space.dim, with_products)
                assert all(type(v) is Fraction for row in got[0] for v in row.values())
                harvested += len(got[0])
                used_products += got[1]
    assert harvested and used_products


def test_product_harvests_along_the_search_match_reference(monkeypatch):
    # Every product harvest the decider makes on its way, against the plain
    # loop that multiplies every residual.  The product elimination gets at
    # most the echelon basis of the residuals and its multiples by the d
    # parameters: rank * (d + 1) rows.  Over Q every elimination the harvest
    # makes is the fraction-free one, on integer rows.
    harvest, eliminate = admissible._harvest_linear, admissible.eliminate
    handed, calls = [], []

    def counting_eliminate(ring, rows, keep_from):
        assert ring is None and all(type(v) is int for row in rows for v in row.values())
        handed.append(len(rows))
        return eliminate(ring, rows, keep_from)

    def recording_harvest(residuals, d, field, with_products):
        handed.clear()
        got, used_products = harvest(residuals, d, field, with_products)
        if used_products:
            calls.append((residuals, d, got, handed[-1]))
        return got, used_products

    monkeypatch.setattr(admissible, "eliminate", counting_eliminate)
    monkeypatch.setattr(admissible, "_harvest_linear", recording_harvest)
    L = commutator_algebra(instantiate("LSA3-1", {}, QQ))
    for algebra, mode in ((L, FULL), (L, MODULE_ONLY), (abelian(QQ, 3), MODULE_ONLY)):
        assert decide_admissible(algebra, mode=mode).verdict == ADMISSIBLE
    monkeypatch.undo()
    assert calls
    for residuals, d, got, rows in calls:
        assert got == harvest_reference(admissible._as_mpolys(residuals, d, QQ), d, QQ, True)
        assert rows <= len(eliminate_reference(QQ, residuals)[1]) * (d + 1)
    assert sum(1 for _, _, got, _ in calls if got) >= 2


def test_deep_copied_algebra_decides_on_the_integer_kernel(monkeypatch):
    # The decider picks its Q paths by ``field is QQ``.  A deep copy keeps the
    # field itself, so the copy equals the algebra, decides with the same
    # report, and every harvest still eliminates integer rows.
    eliminate, rings = admissible.eliminate, []

    def recording_eliminate(ring, rows, keep_from):
        rings.append(ring)
        return eliminate(ring, rows, keep_from)

    monkeypatch.setattr(admissible, "eliminate", recording_eliminate)
    L = commutator_algebra(instantiate("LSA3-1", {}, QQ))
    for algebra, mode in ((L, FULL), (L, MODULE_ONLY), (abelian(QQ, 3), MODULE_ONLY)):
        copied = copy.deepcopy(algebra)
        assert copied.field is QQ and copied == algebra
        assert decide_admissible(copied, mode=mode) == decide_admissible(algebra, mode=mode)
    assert rings and all(ring is None for ring in rings)


def test_drop_lone_rows_runs_to_a_fixed_point():
    one = QQ.one
    # Columns 0-2 are degree >= 2 monomials, 3-4 parameters, 5 the constant.
    rows = [
        {0: one, 1: one},  # alone on column 0
        {1: one, 2: one, 3: one},  # alone on column 1 once the row above is gone
        {2: one, 3: one},
        {2: 2 * one, 4: one},  # alone on column 4, a parameter: kept
        {3: one, 5: one},  # alone on the constant column: kept
    ]
    assert admissible._drop_lone_rows(rows, 3) == rows[2:]
    # x^2 + 1 and x - y in (x, y): the multiples by y of both rows and by x of
    # x^2 + 1 hold y^2, x^2*y and x^3 alone; then x*(x - y) is alone on x*y,
    # then x^2 + 1 on x^2.  Only x - y is left, and x - y = 0 is the harvest.
    residuals = [MPoly(QQ, 2, {(2, 0): 1, (0, 0): 1}), MPoly(QQ, 2, {(1, 0): 1, (0, 1): -1})]
    got, _ = admissible._harvest_linear(primitive_rows(map(_keyed, residuals)), 2, QQ, True)
    assert got == harvest_reference(residuals, 2, QQ, True) == [{0: one, 1: -one}]
    # That span already holds x - y, so the harvest stops there without the
    # multiples.  The span of x^2 - x*y and x*y + 1 holds no linear row; of them and their multiples, x*(x^2 - x*y) holds x^3
    # alone and x^2 - x*y holds x^2 alone, then x*y + 1 is alone on x*y.
    # y*(x^2 - x*y) - x*(x*y + 1) + y*(x*y + 1) = y - x is left.
    residuals = [MPoly(QQ, 2, {(2, 0): 1, (1, 1): -1}), MPoly(QQ, 2, {(1, 1): 1, (0, 0): 1})]
    keyed = primitive_rows(map(_keyed, residuals))
    assert admissible._harvest_linear(keyed, 2, QQ, False) == ([], False)
    got = admissible._harvest_linear(keyed, 2, QQ, True)
    assert got == ([{0: one, 1: -one}], True)
    assert got[0] == harvest_reference(residuals, 2, QQ, True)


def test_monomial_keys_follow_the_harvest_column_order():
    # Every monomial of degree <= 3 in d parameters, packed as the residuals
    # and the harvest pack them: the keys are distinct, unpack to their
    # exponents, and ascend as the harvest's columns do: the degree >= 2
    # monomials in descending degrevlex, then x_0 .. x_{d-1}, then 1.  The
    # key of a product is the sum of its factors' keys, with unit[t] the key
    # of x_t and unit[d] that of 1, and the harvest's threshold unit[0] is
    # the least key of degree <= 1.
    for d in range(0, 9):
        packing = Packing(d, 3)
        unit = packing.units()
        monomials = [
            indices
            for degree in range(4)
            for indices in combinations_with_replacement(range(d), degree)
        ]
        exponent = {m: tuple(m.count(i) for i in range(d)) for m in monomials}
        high = sorted(
            (m for m in monomials if len(m) >= 2), key=lambda m: _degrevlex_desc_key(exponent[m])
        )
        columns = high + [(t,) for t in range(d)] + [()]
        keys = [packing.pack(exponent[m]) for m in columns]
        assert keys == sorted(set(keys))
        key_of = dict(zip(columns, keys))
        assert unit == [key_of[(t,)] for t in range(d)] + [key_of[()]]
        for m, key in zip(columns, keys):
            assert packing.unpack(key) == exponent[m]
            assert admissible._as_mpolys([{key: QQ.one}], d, QQ)[0].terms == {exponent[m]: QQ.one}
            if len(m) < 3:
                for u in range(d):
                    assert key + unit[u] == key_of[tuple(sorted(m + (u,)))]
        for p in range(d + 1):
            for q in range(d + 1):
                pair = tuple(sorted(t for t in (p, q) if t < d))
                assert unit[p] + unit[q] == key_of[pair]
        assert unit[0] == min(k for m, k in key_of.items() if len(m) < 2)


def test_branch_candidates_match_mpoly_reference(monkeypatch):
    # At every node of the rational-point search, the parameter and values
    # read off the packed residuals are those the MPoly version picks.  Inputs:
    # the LSA3-1 commutator at its default and at four seeded parameter
    # triples, and abelian dims 2 and 3, each in both modes; the abelian ones
    # in full mode reach univariate residuals.
    choose = admissible._branch_candidates
    nodes = []

    def recording(residuals, d, field):
        got = choose(residuals, d, field)
        nodes.append((got, admissible._as_mpolys(residuals, d, field), field))
        return got

    monkeypatch.setattr(admissible, "_branch_candidates", recording)
    rng = random.Random(14)
    triples = [{}] + [{p: str(random_fraction(rng)) for p in ("a1", "a2", "a3")} for _ in range(4)]
    inputs = [commutator_algebra(instantiate("LSA3-1", params, QQ)) for params in triples]
    for L in inputs + [abelian(QQ, 2), abelian(QQ, 3)]:
        for mode in (FULL, MODULE_ONLY):
            assert decide_admissible(L, mode=mode).verdict == ADMISSIBLE
    monkeypatch.undo()
    # Hand-made systems in 3 parameters: two univariate residuals after a
    # bivariate one (the first is taken); one without rational roots; none;
    # roots of equal absolute value; Q(alpha).
    for terms in (
        [
            {(1, 1, 0): 1, (0, 0, 0): 1},
            {(0, 0, 2): 1, (0, 0, 1): -1, (0, 0, 0): -2},
            {(2, 0, 0): 1, (0, 0, 0): -1},
        ],
        [{(1, 0, 1): 1}, {(0, 2, 0): 1, (0, 0, 0): -2}],
        [{(1, 1, 0): 1, (0, 0, 1): -1}],
        [{(2, 0, 0): 1, (0, 0, 0): -1}],
    ):
        polys = [MPoly(QQ, 3, t) for t in terms]
        nodes.append((choose([_keyed(p) for p in polys], 3, QQ), polys, QQ))
    polys = [MPoly(QALPHA, 3, {(0, 2, 0): QALPHA.one, (0, 0, 0): -QALPHA.one})]
    nodes.append((choose([_keyed(p) for p in polys], 3, QALPHA), polys, QALPHA))
    for got, polys, field in nodes:
        assert got == branch_candidates_reference(polys, field)
    # Both kinds of choice occur: a univariate residual's roots, and the
    # default list.
    defaults = [got[1] == list(admissible._DEFAULT_CANDIDATES) for got, _, _ in nodes]
    assert any(defaults) and not all(defaults)
    assert (2, [Fraction(-1), Fraction(2)]) in [got for got, _, _ in nodes]


def test_residuals_match_symbolic_matrix_products(monkeypatch):
    # The keyed residuals against the products of the operators' entries as
    # affine MPoly, in the same order: over Q exactly their primitive integer
    # associates, with int entries of content 1.  Spaces: every one the
    # propagation loop visits (the first, and the fixed point when feasible)
    # and the fixed point with its first parameter pinned; cases: the
    # positive controls and every theorem target, over Q and Q(alpha).
    # The LSA3 commutators' bracket does not depend on a1..a3, so the
    # fractional-parameter one is also moved to a basis built from them:
    # bracket denominators up to 60, omega denominators up to 10.
    a1, a2, a3 = Fraction(-7, 4), Fraction(5, 6), Fraction(3, 5)
    fractional = basis_change(
        commutator_algebra(instantiate("LSA3-1", {"a1": a1, "a2": a2, "a3": a3}, QQ)),
        Matrix(QQ, [[a1, 1, 0], [0, a2, 1], [1, 0, a3]]),
    )
    cases = [
        (L, mode)
        for L in [commutator_algebra(instantiate(f, {}, QQ)) for f in ("LSA3-1", "LSA3-2")]
        + [fractional]
        for mode in (FULL, MODULE_ONLY)
    ] + [(abelian(QQ, 3), MODULE_ONLY)]
    cases += [(instantiate(name, params, field), FULL) for name, params, field in theorem_targets()]
    build = admissible.module_identity_residuals
    compared = Counter()
    for k, (L, mode) in enumerate(cases):
        field = L.field
        spaces = []

        def recording_build(L, space):
            spaces.append(space)
            return build(L, space)

        with monkeypatch.context() as m:
            m.setattr(admissible, "module_identity_residuals", recording_build)
            fixed = propagate(L, mode).space
        if fixed.dim > 0:
            spaces.append(fixed.restrict([{0: field.one, fixed.dim: field.one}]))
        for space in spaces:
            got = module_identity_residuals(L, space)
            assert got == keyed_residuals_reference(L, space)
            if field is QQ:
                assert all(type(v) is int for p in got for v in p.values())
                assert all(gcd(*p.values()) == 1 for p in got)
            compared[k] += bool(got)
    assert all(compared[k] for k in range(len(cases)))
    assert {L.field for L, _ in cases} == {QQ, QALPHA}
