import random
from fractions import Fraction
from itertools import product as iproduct
from math import gcd

import pytest

from omlie.admissible import (
    ADMISSIBLE,
    FULL,
    MODULE_ONLY,
    _as_mpolys,
    decide_admissible,
    propagate,
)
from omlie.algebra import commutator_algebra
from omlie.catalog import instantiate
from omlie.fields import QALPHA, QQ, track_denominators
from omlie.fileformat import parse_algebra_text
from omlie.multipoly import (
    MPoly,
    _degrevlex_desc_key,
    Packing,
    buchberger,
    contains_one,
    interreduce,
    normal_form,
)

from oracles import (
    buchberger_reference,
    const,
    constant_term,
    evaluate,
    monic,
    mp_add,
    normal_form_reference,
    random_fraction,
    s_polynomial,
    substitute,
    zero,
)


def mp(nvars, terms, field=QQ):
    return MPoly(field, nvars, terms)


class TestArithmetic:
    def test_evaluate_and_substitute(self):
        p = mp(2, {(2, 0): 1, (0, 1): -3, (0, 0): 2})
        assert evaluate(p, [Fraction(2), Fraction(1)]) == 4 - 3 + 2
        part = substitute(p, {0: Fraction(2)})
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
        assert not normal_form(mp(1, {(2,): 1}), [mp(1, {(1,): 1})])

    def test_remainder_constant(self):
        f = mp(2, {(1, 1): 1, (0, 0): 1})
        assert normal_form(f, [mp(2, {(1, 0): 1})]) == const(QQ, 2, 1)

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
                basis.append(mp_add(const(field, nv, coeff()), g, 2))
            basis.insert(rng.randint(0, len(basis)), zero(field, nv))
            with track_denominators() as want_trail:
                want = normal_form_reference(f, basis)
            with track_denominators() as got_trail:
                got = normal_form(f, basis)
            assert got == want
            assert got_trail == want_trail
        assert not normal_form(zero(field, 2), [mp(2, {(1, 0): 1}, field)])


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
        res = buchberger([mp(1, {(1,): 1, (0,): -1}), mp(1, {(1,): 1, (0,): -2})])
        assert contains_one(res) is True
        assert len(res.basis) == 1 and res.basis[0].degree() == 0

    def test_single_irreducible_quadratic(self):
        p = mp(1, {(2,): 1, (0,): 1})
        res = buchberger([p])
        assert contains_one(res) is False
        assert res.basis == (p,)

    def test_two_quadrics_with_four_solutions_over_closure(self):
        # p0^2 = p1, p1^2 = p0; substitution gives p0^4 = p0 with 4 roots
        f = mp(2, {(2, 0): 1, (0, 1): -1})
        g = mp(2, {(0, 2): 1, (1, 0): -1})
        res = buchberger([f, g])
        assert contains_one(res) is False
        # quotient dimension equals the solution count over the closure
        assert _staircase_count(res.basis) == 4
        # p0^4 - p0 lies in the ideal
        quartic = mp(2, {(4, 0): 1, (1, 0): -1})
        assert not normal_form(quartic, list(res.basis))
        # the two known rational solutions vanish on the basis
        for point in ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))):
            for b in res.basis:
                assert not evaluate(b, point)
        # generators reduce to zero and the Buchberger criterion holds
        for gen in (f, g):
            assert not normal_form(gen, list(res.basis))
        _assert_buchberger_criterion(res.basis)

    def test_cap_exceeded(self):
        res = buchberger([mp(2, {(2, 0): 1, (0, 1): -1}), mp(2, {(0, 2): 1, (1, 0): -1})], 1)
        assert res.cap_exceeded
        assert contains_one(res) is None

    def test_coprime_leads_do_not_trip_the_cap(self):
        # Each input is already a Groebner basis: its only pair has coprime
        # leads, so no S-polynomial needs reducing and the cap is not reached.
        quartics = [mp(2, {(4, 0): 1}), mp(2, {(0, 4): 1})]
        linear = [mp(2, {(1, 0): 1}), mp(2, {(0, 1): 1, (0, 0): -1})]
        for gens, cap in ((quartics, 6), (linear, 1)):
            res = buchberger(gens, degree_cap=cap)
            assert not res.cap_exceeded
            assert res.spairs_processed == 0
            assert set(res.basis) == set(gens)

    def test_determinism_and_canonical_basis(self):
        gens = [
            mp(3, {(1, 1, 0): 1, (0, 0, 1): -1}),
            mp(3, {(0, 1, 1): 1, (1, 0, 0): -1}),
            mp(3, {(1, 0, 1): 1, (0, 1, 0): -1}),
        ]
        r1 = buchberger(gens)
        r2 = buchberger(gens)
        assert r1.basis == r2.basis
        # the reduced basis is canonical, so generator order cannot matter
        r3 = buchberger(list(reversed(gens)))
        assert r3.basis == r1.basis

    def test_rational_function_coefficients(self):
        a = QALPHA.alpha
        res = buchberger([mp(1, {(1,): a, (0,): -1}, QALPHA)])
        assert len(res.basis) == 1
        lead = res.basis[0]
        assert lead.terms[lead.lead_monomial()] == QALPHA.one
        assert constant_term(lead) == -(QALPHA.one / a)

    def test_zero_and_empty_inputs(self):
        assert buchberger([]).basis == ()
        assert buchberger([zero(QQ, 2)]).basis == ()
        assert contains_one(buchberger([])) is False


def _assert_buchberger_criterion(basis):
    basis = list(basis)
    for i in range(len(basis)):
        for j in range(i):
            s = s_polynomial(basis[i], basis[j])
            assert not normal_form(s, basis)


def _criterion_ideals():
    """The generator lists ``test_criterion_on_random_ideals`` runs at cap 8."""
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
        yield [g for g in gens if g]


def _common_zero_ideals():
    """Nonempty generator lists vanishing at a common rational point, so that
    most bases are larger than {1}; the sympy comparison runs them at cap 6."""
    rng = random.Random(17)
    for _ in range(40):
        nv = rng.randint(2, 3)
        point = [random_fraction(rng, 3, 3) for _ in range(nv)]
        gens = []
        for _ in range(rng.randint(2, 3)):
            terms = {}
            for _ in range(rng.randint(2, 4)):
                terms[tuple(rng.randint(0, 2) for _ in range(nv))] = random_fraction(rng, 3, 3)
            g = mp(nv, terms)
            gens.append(mp_add(g, const(QQ, nv, evaluate(g, point)), -1))
        gens = [g for g in gens if g]
        if gens:
            yield gens


def test_criterion_on_random_ideals():
    for gens in _criterion_ideals():
        res = buchberger(gens, degree_cap=8)
        if res.cap_exceeded:
            continue
        _assert_buchberger_criterion(res.basis)
        for g in gens:
            assert not normal_form(g, list(res.basis))


def test_reduced_basis_matches_sympy_on_random_ideals():
    sympy = pytest.importorskip("sympy")
    compared = 0
    for gens in _common_zero_ideals():
        nv = gens[0].nvars
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
            monic(mp(nv, {m: Fraction(str(c)) for m, c in p.terms()})) for p in theirs.polys
        }
        assert set(res.basis) == want
        compared += 1
    assert compared >= 25


# ---------------------------------------------------------------------------
# The packed-monomial kernel against the exponent-tuple reference
# (oracles.buchberger_reference, oracles.normal_form_reference).


def _decider_residuals(alg, mode):
    prop = propagate(alg, mode)
    return _as_mpolys(prop.residuals, prop.space.dim, alg.field)


def _lsa31():
    return commutator_algebra(instantiate("LSA3-1"))


def _abelian2():
    return parse_algebra_text("kind = lie\nfield = Q\ndim = 2\nbasis = e1, e2\n")


@pytest.mark.parametrize("mode,cap", [(FULL, 3), (FULL, 4), (MODULE_ONLY, 3)])
def test_golden_groebner_inputs_match_reference(mode, cap):
    # The Buchberger runs behind test_golden's pinned groebner stages.
    gens = _decider_residuals(_lsa31(), mode)
    assert buchberger(gens, degree_cap=cap) == buchberger_reference(gens, degree_cap=cap)


def test_random_ideals_match_reference():
    for ideals, cap in ((_criterion_ideals(), 8), (_common_zero_ideals(), 6)):
        for gens in ideals:
            assert buchberger(gens, degree_cap=cap) == buchberger_reference(gens, degree_cap=cap)


@pytest.mark.parametrize("mode", [FULL, MODULE_ONLY])
def test_abelian2_matches_reference_at_any_cap(mode):
    gens = _decider_residuals(_abelian2(), mode)
    want = buchberger_reference(gens, degree_cap=6)
    assert not want.cap_exceeded
    assert buchberger(gens, degree_cap=6) == want
    # A cap far past any degree met only widens the packed fields.
    assert buchberger(gens, degree_cap=10**20) == buchberger_reference(gens, degree_cap=10**20)
    assert buchberger_reference(gens, degree_cap=10**20) == want
    reports = [
        decide_admissible(_abelian2(), degree_cap=cap, mode=mode, witness_search_budget=0)
        for cap in (6, 10**20)
    ]
    assert reports[0].certificate == reports[1].certificate


def _qalpha_ideals():
    a = QALPHA.alpha
    one = QALPHA.one

    def p(nvars, terms):
        return mp(nvars, terms, QALPHA)

    return [
        [p(1, {(1,): a, (0,): -one})],  # test_rational_function_coefficients
        [p(2, {(2, 0): one, (0, 1): -a}), p(2, {(0, 2): a, (1, 0): -(a + one)})],
        [
            p(2, {(1, 1): a + one, (0, 0): -one}),
            p(2, {(2, 0): a - 2, (0, 1): -one}),
            p(2, {(0, 2): one, (0, 0): -a}),
        ],
        [
            p(3, {(1, 1, 0): a, (0, 0, 1): -one}),
            p(3, {(0, 1, 1): one, (1, 0, 0): one - a}),
            p(3, {(1, 0, 1): a * a, (0, 1, 0): -one, (0, 0, 0): a / (a + 3)}),
        ],
    ]


def test_qalpha_ideals_match_reference_with_trails():
    recorded = 0
    for gens in _qalpha_ideals():
        for cap in (3, 6):
            with track_denominators() as want_trail:
                want = buchberger_reference(gens, degree_cap=cap)
            with track_denominators() as got_trail:
                got = buchberger(gens, degree_cap=cap)
            assert got == want
            assert got_trail == want_trail
            recorded += bool(want_trail)
    assert recorded >= 4


def test_normal_form_keeps_content():
    # Remainders whose coefficients share a factor other than 1, by divisors
    # whose leads are not 1: fraction-free steps scale them, and the scale
    # must be divided out again.
    cases = [
        ({(2, 0): 6, (0, 1): 4, (0, 0): 2}, [{(1, 0): 3, (0, 0): 2}]),
        ({(1, 1): Fraction(9, 4), (0, 2): -6}, [{(1, 0): 6, (0, 1): -4}, {(0, 2): 10, (0, 0): 15}]),
        ({(2, 1): Fraction(-5, 3)}, [{(1, 1): 7, (0, 0): -21}, {(1, 0): 2, (0, 1): 3}]),
    ]
    for f, basis in cases:
        f, basis = mp(2, f), [mp(2, g) for g in basis]
        got = normal_form(f, basis)
        assert got == normal_form_reference(f, basis)
        assert got and gcd(*(c.numerator for c in got.terms.values())) > 1


# Ideals whose Buchberger runs meet exponents next to the width boundaries:
# caps 7 -> 8 and 15 -> 16 add a bit to every packed field.
_BOUNDARY_IDEALS = [
    [mp(2, {(6, 0): 1, (0, 1): -1}), mp(2, {(3, 1): 1, (0, 0): -1})],
    [mp(2, {(6, 0): 1, (0, 1): -1}), mp(2, {(3, 1): 2, (1, 0): 1, (0, 0): -1})],
    [mp(2, {(7, 0): 1, (0, 2): -1}), mp(2, {(3, 1): 1, (0, 0): -1})],
    [mp(2, {(6, 1): 1, (0, 3): -2, (1, 0): 1}), mp(2, {(2, 2): 3, (1, 0): -1, (0, 0): 5})],
    [mp(2, {(15, 0): 1, (0, 2): -1}), mp(2, {(7, 1): 2, (0, 0): -3})],
    [mp(2, {(14, 1): 1, (0, 3): -2, (1, 0): 1}), mp(2, {(3, 2): 3, (1, 0): -1, (0, 0): 5})],
    [
        mp(3, {(5, 1, 0): 1, (0, 0, 2): -1}),
        mp(3, {(0, 4, 2): 2, (1, 0, 0): -1}),
        mp(3, {(0, 0, 3): 1, (0, 1, 0): -2}),
    ],
    [mp(2, {(1, 6): 1, (2, 0): -1}), mp(2, {(3, 3): 1, (0, 1): -1})],
]


@pytest.mark.parametrize("cap", [7, 8, 15, 16])
def test_width_boundaries_match_reference(cap):
    outcomes = set()
    for gens in _BOUNDARY_IDEALS:
        want = buchberger_reference(gens, degree_cap=cap)
        assert buchberger(gens, degree_cap=cap) == want
        outcomes.add(want.cap_exceeded)
        pad = (0,) * (gens[0].nvars - 2)
        f = mp(2 + len(pad), {(cap, 0) + pad: 3, (cap - 1, 1) + pad: -2, (1, cap - 2) + pad: 1})
        assert normal_form(f, gens) == normal_form_reference(f, gens)
    assert outcomes == {True, False}


@pytest.mark.parametrize("max_degree", [3, 7, 8, 15, 16])
def test_packing_arithmetic_order_and_divisibility(max_degree):
    packing = Packing(2, max_degree)
    monos = [(i, j) for i in range(max_degree + 1) for j in range(max_degree + 1 - i)]
    packed = {m: packing.pack(m) for m in monos}
    for m, v in packed.items():
        assert packing.unpack(v) == m and packing.degree(v) == sum(m)
    assert sorted(monos, key=packed.get) == sorted(monos, key=_degrevlex_desc_key)
    for u in monos:
        for v in monos:
            divides = u[0] <= v[0] and u[1] <= v[1]
            assert (not (packed[v] - packed[u]) & packing.guard) == divides
            assert packing.support([packed[u], packed[v]]) == [i for i in (0, 1) if u[i] or v[i]]
            if sum(u) + sum(v) <= max_degree:
                assert packed[u] + packed[v] == packed[(u[0] + v[0], u[1] + v[1])]


def test_mixed_variable_counts_are_rejected():
    # x0 + x1 in 2 variables divided by x2 in 3: packed for 2 variables, x2's
    # exponent would spill into the degree field and give a wrong remainder.
    f = mp(2, {(1, 0): 1, (0, 1): 1})
    g = mp(3, {(0, 0, 1): 1})
    for divide in (lambda: normal_form(f, [g]), lambda: normal_form(g, [f])):
        with pytest.raises(ValueError, match="variables"):
            divide()
    for gens in ([f, g], [g, f]):
        with pytest.raises(ValueError, match="variables"):
            interreduce(gens)
        with pytest.raises(ValueError, match="variables"):
            buchberger(gens, degree_cap=6)


def test_lsa31_full_mode_decided_at_cap_7():
    L = _lsa31()
    rep = decide_admissible(L, degree_cap=7, mode=FULL, witness_search_budget=0)
    assert rep.verdict == ADMISSIBLE
    (stage,) = [st for st in rep.certificate if st["stage"] == "groebner"]
    assert stage["spairs"] == 139 and stage["basis_size"] == 21 and stage["max_degree"] == 5
    assert not stage["cap_exceeded"] and stage["contains_one"] is False
    basis = list(rep.groebner.basis)
    for g in _decider_residuals(L, FULL):
        assert not normal_form_reference(g, basis)
