import copy
import pickle
import random
import time
from fractions import Fraction

import pytest
from oracles import poly_add, poly_divmod_reference, poly_mul

from omlie.exprs import MAX_ALPHA_DEGREE, MAX_SCALAR_BITS, ExprError, parse_combination
from omlie.fields import (
    Poly,
    QALPHA,
    QQ,
    RatFunc,
    evaluate_at,
    field_named,
    format_poly,
    poly_gcd,
    rational_roots,
    track_denominators,
)


def P(*coeffs):
    return Poly(coeffs)


ALPHA = QALPHA.alpha


class TestPolyGcd:
    def test_common_linear_factor(self):
        # alpha^2 - 1 and alpha - 1 share the root alpha = 1
        assert poly_gcd(P(-1, 0, 1), P(-1, 1)) == P(-1, 1)

    def test_gcd_with_zero_is_monic_normalization(self):
        assert poly_gcd(P(2, 4), Poly()) == P(1, 2).monic()
        assert poly_gcd(Poly(), P(0, 0, 3)) == P(0, 0, 1)
        assert poly_gcd(Poly(), Poly()) == Poly()

    def test_coprime_pair(self):
        # Euclid by hand: alpha^2 + 1 = (alpha + 1)(alpha - 1) + 2, so gcd = 1
        assert poly_gcd(P(1, 0, 1), P(1, 1)) == P(1)


class TestNormalization:
    def test_fraction_reduction(self):
        assert Fraction(2, 4) == Fraction(1, 2)

    def test_ratfunc_cancellation(self):
        x = RatFunc(P(-1, 0, 1), P(-1, 1))  # (alpha^2 - 1) / (alpha - 1)
        assert x == RatFunc(P(1, 1))
        assert x.num == P(1, 1) and x.den == P(1)

    def test_sign_normalization(self):
        assert Fraction(-1, -3) == Fraction(1, 3)
        y = RatFunc(P(1), P(0, -2))  # 1 / (-2 alpha): denominator made monic
        assert y.den == P(0, 1)
        assert y.num == P(Fraction(-1, 2))

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RatFunc(P(1), Poly())

    def test_equal_values_hash_equal(self):
        # a constant of Q(alpha) equals its int or Fraction, so it hashes alike
        for v in (0, 2, -7, 10**30, Fraction(3, 4), Fraction(-5, 2), Fraction(1, 10**30)):
            x = QALPHA.coerce(v)
            assert x == v and hash(x) == hash(v) == hash(Fraction(v))
        assert {2: "two"}.get(QALPHA.coerce(2)) == "two"
        assert {Fraction(1, 2): "half"}.get(QALPHA.one / 2) == "half"
        x = RatFunc(P(-1, 0, 1), P(-1, 1))
        assert hash(x) == hash(RatFunc(P(1, 1)))



def _random_scalar(rng, field):
    if field is QQ:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    num = P(*[Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, 3))])
    den = Poly()
    while not den:
        den = P(*[Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, 3))])
    return RatFunc(num, den)


@pytest.mark.parametrize("field", [QQ, QALPHA], ids=["Q", "Q(alpha)"])
def test_field_axioms_random(field):
    rng = random.Random(7)
    one, zero = field.one, field.zero
    for _ in range(150):
        a, b, c = (_random_scalar(rng, field) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a + zero == a and a * one == a
        assert a - a == zero
        if a:
            assert a * (one / a) == one


def test_embedding_homomorphism():
    # computing in Q(alpha) then evaluating equals computing in Q at alpha0
    rng = random.Random(13)
    for _ in range(60):
        a0 = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        xs = [_random_scalar(rng, QALPHA) for _ in range(3)]
        x, y, z = xs
        try:
            generic = (x + y) * z - x * y + (x - z) * (y + z)
            expected = generic.evaluate(a0)
            vals = [v.evaluate(a0) for v in xs]
        except ZeroDivisionError:
            continue  # a touched denominator vanishes at a0: sample not admissible
        u, v, w = vals
        assert (u + v) * w - u * v + (u - w) * (v + w) == expected


def test_evaluate_rejects_vanishing_denominator():
    x = RatFunc(P(1), P(-2, 1))  # 1 / (alpha - 2)
    assert x.evaluate(Fraction(3)) == 1
    with pytest.raises(ZeroDivisionError):
        x.evaluate(Fraction(2))
    assert evaluate_at(Fraction(5), Fraction(2)) == 5


def test_track_denominators_records_inversions():
    with track_denominators() as trail:
        x = RatFunc(P(-2, 1))  # alpha - 2
        _ = QALPHA.one / x
        _ = x / x  # same divisor, recorded once
    assert trail == [P(-2, 1)]
    # constants are not interesting
    with track_denominators() as trail:
        _ = QALPHA.one / QALPHA.coerce(7)
    assert trail == []


def test_nested_track_denominators_keep_the_outer_trail():
    # both trails are empty, hence equal, when the inner block exits
    with track_denominators() as outer:
        with track_denominators() as inner:
            pass
        _ = QALPHA.one / RatFunc(P(-2, 1))
    assert inner == [] and outer == [P(-2, 1)]


class TestScalarParsing:
    def test_literals(self):
        assert QQ.parse("-17") == Fraction(-17)
        assert QQ.parse("3/4") == Fraction(3, 4)
        assert QALPHA.parse("(alpha+1)/2") == RatFunc(P(Fraction(1, 2), Fraction(1, 2)))
        assert QALPHA.parse("alpha^2 - 1") == RatFunc(P(-1, 0, 1))
        assert QALPHA.parse("1/(alpha+1)") == RatFunc(P(1), P(1, 1))

    def test_alpha_not_available_over_q(self):
        with pytest.raises(ValueError):
            QQ.parse("alpha + 1")

    def test_format_parse_round_trip(self):
        rng = random.Random(23)
        for _ in range(80):
            x = _random_scalar(rng, QALPHA)
            assert QALPHA.parse(QALPHA.format(x)) == x
        for _ in range(40):
            q = _random_scalar(rng, QQ)
            assert QQ.parse(QQ.format(q)) == q

    def test_scalars_past_the_bounds_are_rejected_fast(self):
        # At each bound the value parses; one step past it, by a power, a
        # product, a quotient, a sum or a literal, it is an ExprError, and the
        # power is refused before it is computed.  Powers far past the bounds
        # run apart, under a memory cap, in tests/test_cli.py.
        assert MAX_ALPHA_DEGREE == 256 and MAX_SCALAR_BITS == 4096
        started = time.perf_counter()
        assert QALPHA.parse("alpha^256") == ALPHA**256
        assert QQ.parse("2^4095") == QQ.parse("(2^2048)*(2^2047)") == 2**4095
        assert QQ.parse("(1/2)^4095") == Fraction(1, 2**4095)
        assert QQ.parse("2^4094 + 2^4094") == QQ.parse(str(2**4095)) == 2**4095
        assert QQ.parse("1^99999999999") == QQ.one
        past = [
            (QALPHA, "alpha^257", "alpha-degree above 256"),
            (QALPHA, "alpha^200*alpha^57", "alpha-degree above 256"),
            (QALPHA, "1/alpha^200/alpha^57", "alpha-degree above 256"),
            (QALPHA, "1/(alpha^200+1) + 1/(alpha^57+1)", "alpha-degree above 256"),
            (QALPHA, "2^4096", "more than 4096 bits"),
            (QQ, "2^4096", "more than 4096 bits"),
            (QQ, "(1/2)^4096", "more than 4096 bits"),
            (QQ, "(2^2048)*(2^2048)", "more than 4096 bits"),
            (QQ, "(1/2^2048)/2^2048", "more than 4096 bits"),
            (QQ, "2^4095 + 2^4095", "more than 4096 bits"),
            (QQ, "-2^4095 - 2^4095", "more than 4096 bits"),
            (QQ, str(2**4096), "more than 4096 bits"),
        ]
        for field, text, message in past:
            with pytest.raises(ExprError, match=message):
                field.parse(text)
        for text in ("2^4095*x + 2^4095*x", "(2^2048*x)*2^2048", "x/2^2048/2^2048"):
            with pytest.raises(ExprError, match="more than 4096 bits"):
                parse_combination(text, QQ, ["x"])
        assert time.perf_counter() - started < 5

    def test_format_poly(self):
        assert format_poly(P(Fraction(1, 2), -2, 1)) == "alpha^2 - 2*alpha + 1/2"
        assert format_poly(Poly()) == "0"


def test_field_named():
    assert field_named("Q") is QQ
    assert field_named("Q(alpha)") is QALPHA
    with pytest.raises(ValueError):
        field_named("R")


@pytest.mark.parametrize("field", [QQ, QALPHA], ids=["Q", "Q(alpha)"])
def test_fields_stay_singletons_through_copy_and_pickle(field):
    assert copy.copy(field) is field
    assert copy.deepcopy(field) is field
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(field, protocol)) is field
    # inside a container too, with elements of the field
    box = pickle.loads(pickle.dumps([field, field.one, field.coerce(Fraction(-3, 7))]))
    assert box[0] is field and box[1:] == [field.one, field.coerce(Fraction(-3, 7))]


def test_poly_division_property():
    rng = random.Random(47)
    for _ in range(100):
        p = P(*[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rng.randint(1, 6))])
        d = Poly()
        while not d:
            d = P(*[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rng.randint(1, 4))])
        q, r = poly_divmod_reference(p, d)
        assert poly_add(poly_mul(q, d), r) == p
        assert r.degree < d.degree or not r


def test_rational_roots():
    # (2x - 1)(x + 3) x = 2x^3 + 5x^2 - 3x
    p = P(0, -3, 5, 2)
    assert rational_roots(p) == [Fraction(-3), Fraction(0), Fraction(1, 2)]
    assert rational_roots(P(1, 0, 1)) == []
