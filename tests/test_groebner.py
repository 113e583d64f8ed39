import random
from fractions import Fraction
from itertools import product as iproduct

import pytest

from omlie.fields import QALPHA, QQ, track_denominators
from omlie.multipoly import (
    MPoly,
    buchberger,
    contains_one,
    normal_form,
    s_polynomial,
)

from oracles import normal_form_reference, random_fraction


def mp(nvars, terms, field=QQ):
    return MPoly(field, nvars, terms)


def var(i, nvars, field=QQ):
    return MPoly.variable(field, nvars, i)


class TestArithmetic:
    def test_product_expansion(self):
        p0, p1 = var(0, 2), var(1, 2)
        one = MPoly.const(QQ, 2, 1)
        sq = (p0 + p1) * (p0 + p1)
        assert sq == mp(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
        assert (p0 + one) * (p0 - one) == mp(2, {(2, 0): 1, (0, 0): -1})

    def test_evaluate_and_substitute(self):
        p = mp(2, {(2, 0): 1, (0, 1): -3, (0, 0): 2})
        assert p.evaluate([Fraction(2), Fraction(1)]) == 4 - 3 + 2
        part = p.substitute({0: Fraction(2)})
        assert part == mp(2, {(0, 1): -3, (0, 0): 6})

    def test_degrevlex_lead_prefers_total_degree(self):
        # x1^2 beats x0 in degrevlex (it would lose in lex)
        p = mp(2, {(1, 0): 1, (0, 2): 1})
        assert p.lead_monomial() == (0, 2)


class TestNormalForm:
    def test_reduce_by_self(self):
        p = mp(2, {(1, 1): 1, (0, 0): 1})
        assert not normal_form(p, [p])

    def test_reduce_power_by_variable(self):
        p0 = var(0, 1)
        assert not normal_form(p0 * p0, [p0])

    def test_remainder_constant(self):
        p0, p1 = var(0, 2), var(1, 2)
        f = p0 * p1 + MPoly.const(QQ, 2, 1)
        assert normal_form(f, [p0]) == MPoly.const(QQ, 2, 1)

    def test_idempotent_random(self):
        rng = random.Random(3)
        for _ in range(20):
            nv = rng.randint(1, 3)
            def rand_poly():
                terms = {}
                for _ in range(rng.randint(1, 5)):
                    m = tuple(rng.randint(0, 2) for _ in range(nv))
                    terms[m] = random_fraction(rng, 3, 3)
                return mp(nv, terms)
            f = rand_poly()
            basis = [p for p in (rand_poly(), rand_poly()) if p]
            r = normal_form(f, basis)
            assert normal_form(r, basis) == r

    @pytest.mark.parametrize("field", [QQ, QALPHA], ids=["Q", "Qalpha"])
    def test_matches_reference_division(self, field):
        # Random divisor lists are not Groebner bases, so the remainder
        # depends on the division order: this pins "largest monomial first,
        # first divisor in list order", and over Q(alpha) the order in which
        # denominators are inverted.
        rng = random.Random(11)

        def coeff():
            r = field.coerce(random_fraction(rng, 3, 3))
            if field is QQ:
                return r
            a = field.alpha
            return (a * r + random_fraction(rng, 3, 3)) / (a + random_fraction(rng, 3, 3))

        def rand_poly(nv, nterms, maxexp):
            terms = {}
            for _ in range(nterms):
                terms[tuple(rng.randint(0, maxexp) for _ in range(nv))] = coeff()
            return mp(nv, terms, field)

        for _ in range(40):
            nv = rng.randint(1, 3)
            f = rand_poly(nv, rng.randint(0, 8), 3)
            basis = [rand_poly(nv, rng.randint(1, 3), 2) for _ in range(rng.randint(1, 4))]
            g = basis[0]
            if g:  # a divisor with the same lead, listed after the first
                basis.append(g.scale(2) + MPoly.const(field, nv, coeff()))
            basis.insert(rng.randint(0, len(basis)), MPoly.zero(field, nv))
            with track_denominators() as want_trail:
                want = normal_form_reference(f, basis)
            with track_denominators() as got_trail:
                got = normal_form(f, basis)
            assert got == want
            assert got_trail == want_trail
        assert not normal_form(MPoly.zero(field, 2), [mp(2, {(1, 0): 1}, field)])


def _staircase_count(basis, bound=8):
    """Monomials not divisible by any lead monomial (finite iff zero-dim)."""
    nv = basis[0].nvars
    leads = [g.lead_monomial() for g in basis]
    count = 0
    for m in iproduct(range(bound), repeat=nv):
        if not any(all(l[i] <= m[i] for i in range(nv)) for l in leads):
            count += 1
    return count


class TestBuchberger:
    def test_inconsistent_linear_system(self):
        one = MPoly.const(QQ, 1, 1)
        res = buchberger([var(0, 1) - one, var(0, 1) - one - one])
        assert contains_one(res) is True
        assert len(res.basis) == 1 and res.basis[0].degree() == 0

    def test_single_irreducible_quadratic(self):
        p = var(0, 1) * var(0, 1) + MPoly.const(QQ, 1, 1)
        res = buchberger([p])
        assert contains_one(res) is False
        assert res.basis == (p,)

    def test_two_quadrics_with_four_solutions_over_closure(self):
        # p0^2 = p1, p1^2 = p0; substitution gives p0^4 = p0 with 4 roots
        p0, p1 = var(0, 2), var(1, 2)
        f = p0 * p0 - p1
        g = p1 * p1 - p0
        res = buchberger([f, g])
        assert contains_one(res) is False
        # quotient dimension equals the solution count over the closure
        assert _staircase_count(res.basis) == 4
        # p0^4 - p0 lies in the ideal
        quartic = p0 * p0 * p0 * p0 - p0
        assert not normal_form(quartic, list(res.basis))
        # the two known rational solutions vanish on the basis
        for point in ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))):
            for b in res.basis:
                assert not b.evaluate(point)
        # generators reduce to zero and the Buchberger criterion holds
        for gen in (f, g):
            assert not normal_form(gen, list(res.basis))
        _assert_buchberger_criterion(res.basis)

    def test_cap_exceeded(self):
        p0, p1 = var(0, 2), var(1, 2)
        res = buchberger([p0 * p0 - p1, p1 * p1 - p0], degree_cap=1)
        assert res.cap_exceeded
        assert contains_one(res) is None

    def test_coprime_leads_do_not_trip_the_cap(self):
        # Each input is already a Groebner basis: its only pair has coprime
        # leads, so no S-polynomial needs reducing and the cap is not reached.
        p0, p1 = var(0, 2), var(1, 2)
        one = MPoly.const(QQ, 2, 1)
        quartics = [p0 * p0 * p0 * p0, p1 * p1 * p1 * p1]
        for gens, cap in ((quartics, 6), ([p0, p1 - one], 1)):
            res = buchberger(gens, degree_cap=cap)
            assert not res.cap_exceeded
            assert res.spairs_processed == 0
            assert set(res.basis) == set(gens)

    def test_determinism_and_canonical_basis(self):
        p0, p1, p2 = (var(i, 3) for i in range(3))
        gens = [p0 * p1 - p2, p1 * p2 - p0, p2 * p0 - p1]
        r1 = buchberger(gens)
        r2 = buchberger(gens)
        assert r1.basis == r2.basis
        # the reduced basis is canonical, so generator order cannot matter
        r3 = buchberger(list(reversed(gens)))
        assert r3.basis == r1.basis

    def test_rational_function_coefficients(self):
        a = QALPHA.alpha
        p0 = var(0, 1, field=QALPHA)
        f = p0.scale(a) - MPoly.const(QALPHA, 1, QALPHA.one)
        res = buchberger([f])
        assert len(res.basis) == 1
        lead = res.basis[0]
        assert lead.lead_coeff() == QALPHA.one
        assert lead.constant_term() == -(QALPHA.one / a)

    def test_zero_and_empty_inputs(self):
        assert buchberger([]).basis == ()
        assert buchberger([MPoly.zero(QQ, 2)]).basis == ()
        assert contains_one(buchberger([])) is False


def _assert_buchberger_criterion(basis):
    basis = list(basis)
    for i in range(len(basis)):
        for j in range(i):
            s = s_polynomial(basis[i], basis[j])
            assert not normal_form(s, basis)


def test_criterion_on_random_ideals():
    rng = random.Random(9)
    for _ in range(10):
        nv = rng.randint(1, 3)
        gens = []
        for _ in range(rng.randint(1, 3)):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                m = tuple(rng.randint(0, 2) for _ in range(nv))
                terms[m] = random_fraction(rng, 3, 3)
            gens.append(mp(nv, terms))
        gens = [g for g in gens if g]
        res = buchberger(gens, degree_cap=8)
        if res.cap_exceeded:
            continue
        _assert_buchberger_criterion(res.basis)
        for g in gens:
            assert not normal_form(g, list(res.basis))


def test_reduced_basis_matches_sympy_on_random_ideals():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(17)
    compared = 0
    for _ in range(40):
        nv = rng.randint(2, 3)
        # Generators vanishing at a common rational point span a proper ideal,
        # so most bases are larger than {1}.
        point = [random_fraction(rng, 3, 3) for _ in range(nv)]
        gens = []
        for _ in range(rng.randint(2, 3)):
            terms = {}
            for _ in range(rng.randint(2, 4)):
                terms[tuple(rng.randint(0, 2) for _ in range(nv))] = random_fraction(rng, 3, 3)
            g = mp(nv, terms)
            gens.append(g - MPoly.const(QQ, nv, g.evaluate(point)))
        gens = [g for g in gens if g]
        if not gens:
            continue
        res = buchberger(gens, degree_cap=6)
        if res.cap_exceeded:
            continue
        # sympy's grevlex on x0, x1, ... is degrevlex with x0 > x1 > ...
        xs = sympy.symbols(f"x0:{nv}")
        polys = [
            sympy.Poly.from_dict({m: sympy.Rational(str(c)) for m, c in g.terms.items()}, *xs)
            for g in gens
        ]
        theirs = sympy.groebner(polys, *xs, order="grevlex", domain="QQ")
        want = {
            mp(nv, {m: Fraction(str(c)) for m, c in p.terms()}).monic() for p in theirs.polys
        }
        assert set(res.basis) == want
        compared += 1
    assert compared >= 25
