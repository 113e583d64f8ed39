"""Q(alpha) on integer polynomials against the Fraction-polynomial reference.

Random expression trees over alpha, ints and Fractions (30-digit ones
included) are evaluated twice: with ``fields.RatFunc`` and with
``oracles.RatFuncReference``, the arithmetic the package used before.  Both
must give the same element, the same printed form, the same values at
rationals, the same constant test and the same ``track_denominators`` trail.
"""

import random
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from oracles import Poly, RatFuncReference, poly_mul, ratfunc  # noqa: E402

from omlie.fields import (  # noqa: E402
    QALPHA,
    RatFunc,
    format_poly,
    format_ratfunc,
    track_denominators,
)

BIG = 10**30

ints = st.one_of(st.integers(-9, 9), st.integers(-BIG, BIG))
fractions = st.builds(Fraction, ints, st.one_of(st.integers(1, 9), st.integers(1, BIG)))
numbers = st.one_of(ints, fractions)
polys = st.tuples(st.just("poly"), st.lists(ints, min_size=1, max_size=4))
# a number leaf stays a plain int or Fraction, or is made an element first
leaves = st.one_of(
    st.just("alpha"), polys, st.one_of(numbers, numbers.map(lambda v: ("const", v)))
)

BINARY = ("+", "-", "*", "/")


def _binary(children):
    return st.tuples(st.sampled_from(BINARY), children, children)


# ``**`` takes a number, alpha or a small linear polynomial as its base, so
# that the reference's Euclidean gcds over Q stay fast.
linear = st.tuples(st.just("poly"), st.lists(st.integers(-3, 3), min_size=1, max_size=2))
powers = st.tuples(
    st.just("**"), st.one_of(st.just("alpha"), linear, numbers), st.integers(-3, 40)
)

trees = st.recursive(
    st.one_of(leaves, powers),
    lambda children: st.one_of(
        _binary(children), st.tuples(st.sampled_from(("neg", "inverse")), children)
    ),
    max_leaves=10,
)


class _Impl:
    def __init__(self, cls, make):
        self.cls = cls
        self.make = make  # numerator and denominator coefficients -> element
        self.alpha = make((0, 1))

    def element(self, v):
        return v if isinstance(v, self.cls) else self.make((v,))


NEW = _Impl(RatFunc, ratfunc)
OLD = _Impl(RatFuncReference, lambda num, den=(1,): RatFuncReference(Poly(num), Poly(den)))


def _apply(op, a, b):
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    return a / b


def _build(tree, impl):
    """The tree's value; ints and Fractions stay plain where the tree has them."""
    if tree == "alpha":
        return impl.alpha
    if isinstance(tree, (int, Fraction)):
        return tree
    op = tree[0]
    if op == "const":
        return impl.element(tree[1])
    if op == "poly":
        return impl.make(tree[1])
    if op == "neg":
        return -_build(tree[1], impl)
    if op == "inverse":
        return impl.element(_build(tree[1], impl)).inverse()
    if op == "**":
        return impl.element(_build(tree[1], impl)) ** tree[2]
    a, b = _build(tree[1], impl), _build(tree[2], impl)
    if not isinstance(a, impl.cls) and not isinstance(b, impl.cls):
        a = impl.element(a)  # two plain numbers would not reach Q(alpha)
    return _apply(op, a, b)


def _run(tree, impl):
    with track_denominators() as trail:
        try:
            value = impl.element(_build(tree, impl))
        except ZeroDivisionError:
            value = None
    return value, trail


def _format_reference(x):
    if x.den.coeffs == (1,):
        return format_poly(x.num.coeffs)
    return f"({format_poly(x.num.coeffs)})/({format_poly(x.den.coeffs)})"


def _monic_pair(x):
    """Numerator and denominator coefficients, the denominator made monic."""
    if isinstance(x, RatFuncReference):
        return x.num.coeffs, x.den.coeffs
    n, d = x._n, x._d
    return tuple(Fraction(c, d[-1]) for c in n), tuple(Fraction(c, d[-1]) for c in d)


def _evaluated(x, a0):
    try:
        return x.evaluate(a0)
    except ZeroDivisionError as exc:
        return str(exc)


@settings(
    max_examples=500,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(trees, st.lists(fractions, min_size=1, max_size=3))
def test_integer_ratfunc_matches_reference(tree, points):
    new, new_trail = _run(tree, NEW)
    old, old_trail = _run(tree, OLD)
    assert new_trail == old_trail
    assert (new is None) == (old is None)
    if new is None:
        return
    assert _monic_pair(new) == _monic_pair(old)
    assert format_ratfunc(new) == QALPHA.format(new) == _format_reference(old)
    assert new.is_constant() == old.is_constant()
    if new.is_constant():
        assert new.as_fraction() == old.as_fraction()
    for a0 in points + [Fraction(0), Fraction(-1)]:
        assert _evaluated(new, a0) == _evaluated(old, a0)


def test_shared_factors_cancel_as_in_reference():
    # Quotients of products of a few small factors share factors often, so
    # the cross-cancellation of products and the gcd of sums both do work.
    rng = random.Random(31)
    pool = [(-1, 1), (1, 1), (3, 2), (1, 0, 1), (-2, 0, 3), (5,), (Fraction(1, 6),)]

    def element(impl):
        num, den = Poly((1,)), Poly((1,))
        for _ in range(rng.randint(0, 3)):
            num = poly_mul(num, Poly(rng.choice(pool)))
        for _ in range(rng.randint(0, 3)):
            den = poly_mul(den, Poly(rng.choice(pool)))
        return impl.make(num.coeffs, den.coeffs)

    impls = (NEW, OLD)
    for _ in range(200):
        state = rng.getstate()
        results = []
        for impl in impls:
            rng.setstate(state)
            with track_denominators() as trail:
                acc = element(impl)
                for _ in range(4):
                    op = rng.choice(BINARY)
                    other = element(impl)
                    if op == "/" and not other:
                        continue
                    acc = _apply(op, acc, other)
            results.append((_monic_pair(acc), trail))
        assert results[0] == results[1]
