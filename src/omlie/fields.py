"""Exact scalar arithmetic for the two coefficient fields used everywhere else.

Scalars are either arbitrary-precision rationals (plain ``fractions.Fraction``)
or elements of Q(alpha), the field of rational functions in one formal
parameter over Q.  ``Poly`` is a dense univariate polynomial with Fraction
coefficients, index = degree, trailing coefficient nonzero.  ``RatFunc`` is a
reduced quotient of two ``Poly`` with monic denominator, so equal field
elements are representationally equal and ``==`` is cheap.

There is no floating point anywhere in this package.  Working in Q(alpha)
means "generic alpha": every nonzero rational function is invertible, which is
how side conditions like alpha not in {0, -1} are realised.  Inversions of
nonconstant elements can be recorded with :func:`track_denominators` so a
later specialisation alpha = a0 can be rejected when it lands on a root of a
polynomial that was divided by.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from math import gcd


class Poly:
    """Univariate polynomial over Q.  ``coeffs[k]`` is the degree-k coefficient."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def lc(self) -> Fraction:
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == Poly((other,)).coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        if not self or not other:
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        out = Poly((1,))
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __divmod__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly(), Poly(rem)
        quo = [Fraction(0)] * (dq + 1)
        olc = other.lc()
        for top in range(len(rem) - 1, len(other.coeffs) - 2, -1):
            c = rem[top]
            if not c:
                continue
            f = c / olc
            quo[top - other.degree] = f
            for k, oc in enumerate(other.coeffs):
                rem[top - other.degree + k] -= f * oc
        return Poly(quo), Poly(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if not self or self.lc() == 1:
            return self
        inv = 1 / self.lc()
        return Poly(tuple(c * inv for c in self.coeffs))

    def evaluate(self, x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self):
        return f"Poly({format_poly(self)!r})"


def _as_poly(v):
    if isinstance(v, Poly):
        return v
    if isinstance(v, (int, Fraction)):
        return Poly((v,))
    return None


POLY_ZERO = Poly()
POLY_ONE = Poly((1,))
POLY_ALPHA = Poly((0, 1))


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic gcd via the Euclidean algorithm; gcd(0, 0) = 0."""
    a, b = p, q
    while b:
        a, b = b, a % b
    return a.monic()


def rational_roots(p: Poly) -> list[Fraction]:
    """All rational roots of a nonzero polynomial, by the rational root test."""
    if not p:
        raise ValueError("the zero polynomial has every root")
    roots = set()
    coeffs = list(p.coeffs)
    if not coeffs[0]:
        roots.add(Fraction(0))
        while not coeffs[0]:
            coeffs.pop(0)
    if len(coeffs) == 1:
        return sorted(roots)
    den = 1
    for c in coeffs:
        d = c.denominator
        den = den * d // gcd(den, d)
    ints = [int(c * den) for c in coeffs]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    ints = [v // g for v in ints]
    for pn in _divisors(abs(ints[0])):
        for qn in _divisors(abs(ints[-1])):
            for cand in (Fraction(pn, qn), Fraction(-pn, qn)):
                if cand not in roots and not p.evaluate(cand):
                    roots.add(cand)
    return sorted(roots)


def _divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def format_poly(p: Poly, var: str = "alpha") -> str:
    if not p:
        return "0"
    parts = []
    for k in range(p.degree, -1, -1):
        c = p.coeffs[k]
        if not c:
            continue
        neg = c < 0
        mag = -c if neg else c
        if k == 0:
            body = str(mag)
        else:
            head = var if k == 1 else f"{var}^{k}"
            body = head if mag == 1 else f"{mag}*{head}"
        if not parts:
            parts.append(f"-{body}" if neg else body)
        else:
            parts.append(f" - {body}" if neg else f" + {body}")
    return "".join(parts)


_DENOM_TRAILS: list[list[Poly]] = []


@contextmanager
def track_denominators():
    """Collect the monic numerators of nonconstant elements inverted inside the block.

    A sampled alpha value that is a root of any collected polynomial must be
    rejected: the recorded computation divided by something that vanishes there.
    """
    trail: list[Poly] = []
    _DENOM_TRAILS.append(trail)
    try:
        yield trail
    finally:
        # by identity: nested trails can be equal lists
        _DENOM_TRAILS[:] = [t for t in _DENOM_TRAILS if t is not trail]


def _record_inversion(num: Poly):
    if num.degree >= 1 and _DENOM_TRAILS:
        m = num.monic()
        for trail in _DENOM_TRAILS:
            if m not in trail:
                trail.append(m)


class RatFunc:
    """Element of Q(alpha): reduced num/den with ``den`` monic and nonzero."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=POLY_ONE):
        num = _as_poly(num)
        den = _as_poly(den)
        if num is None or den is None:
            raise TypeError("RatFunc expects polynomial or rational arguments")
        if not den:
            raise ZeroDivisionError("zero denominator in Q(alpha)")
        if den.coeffs == POLY_ONE.coeffs:
            self.num, self.den = num, POLY_ONE
            return
        if not num:
            self.num, self.den = POLY_ZERO, POLY_ONE
            return
        g = poly_gcd(num, den)
        if g.degree >= 1:
            num, den = num // g, den // g
        lc = den.lc()
        if lc != 1:
            inv = 1 / lc
            num = num * inv
            den = den * inv
        self.num, self.den = num, den

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        other = _as_ratfunc(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num.coeffs, self.den.coeffs))

    def __add__(self, other):
        other = _as_ratfunc(other)
        if other is None:
            return NotImplemented
        if self.den is POLY_ONE and other.den is POLY_ONE:
            return RatFunc(self.num + other.num)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        out = RatFunc.__new__(RatFunc)
        out.num, out.den = -self.num, self.den
        return out

    def __sub__(self, other):
        other = _as_ratfunc(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_ratfunc(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _as_ratfunc(other)
        if other is None:
            return NotImplemented
        if self.den is POLY_ONE and other.den is POLY_ONE:
            return RatFunc(self.num * other.num)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "RatFunc":
        if not self.num:
            raise ZeroDivisionError("inverting zero in Q(alpha)")
        _record_inversion(self.num)
        return RatFunc(self.den, self.num)

    def __truediv__(self, other):
        other = _as_ratfunc(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _as_ratfunc(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return RatFunc(self.num ** n, self.den ** n)

    def is_constant(self) -> bool:
        return self.num.degree <= 0 and self.den.degree <= 0

    def as_fraction(self) -> Fraction:
        if self.num.degree > 0 or self.den.degree > 0:
            raise ValueError(f"{self!r} is not a constant")
        if not self.num:
            return Fraction(0)
        return self.num.coeffs[0] / self.den.coeffs[0]

    def evaluate(self, x: Fraction) -> Fraction:
        d = self.den.evaluate(x)
        if not d:
            raise ZeroDivisionError(f"denominator vanishes at alpha = {x}")
        return self.num.evaluate(x) / d

    def __repr__(self):
        return f"RatFunc({format_ratfunc(self)!r})"


def _as_ratfunc(v):
    if isinstance(v, RatFunc):
        return v
    if isinstance(v, (int, Fraction, Poly)):
        return RatFunc(_as_poly(v) if not isinstance(v, Poly) else v)
    return None


def format_ratfunc(x: RatFunc) -> str:
    if x.den == POLY_ONE:
        return format_poly(x.num)
    return f"({format_poly(x.num)})/({format_poly(x.den)})"


class Field:
    """Shared interface over the two scalar fields.

    Generic code only ever touches ``zero``, ``one``, ``coerce`` and the
    arithmetic operators of the elements themselves.
    """

    name: str = ""

    @property
    def zero(self):
        raise NotImplementedError

    @property
    def one(self):
        raise NotImplementedError

    def coerce(self, value):
        raise NotImplementedError

    def parse(self, text: str):
        from .exprs import parse_scalar

        return parse_scalar(text, self)

    def format(self, x) -> str:
        raise NotImplementedError

    def __repr__(self):
        return f"<field {self.name}>"


class _RationalField(Field):
    name = "Q"

    @property
    def zero(self):
        return _F0

    @property
    def one(self):
        return _F1

    def coerce(self, value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            return self.parse(value)
        if isinstance(value, RatFunc) and value.is_constant():
            return value.as_fraction()
        raise TypeError(f"cannot interpret {value!r} as a rational number")

    def format(self, x) -> str:
        return str(x)


class _FunctionField(Field):
    name = "Q(alpha)"

    @property
    def zero(self):
        return _R0

    @property
    def one(self):
        return _R1

    @property
    def alpha(self):
        return _RALPHA

    def coerce(self, value):
        if isinstance(value, RatFunc):
            return value
        if isinstance(value, (int, Fraction, Poly)):
            return RatFunc(value if isinstance(value, Poly) else Poly((value,)))
        if isinstance(value, str):
            return self.parse(value)
        raise TypeError(f"cannot interpret {value!r} as an element of Q(alpha)")

    def format(self, x) -> str:
        return format_ratfunc(x)


_F0 = Fraction(0)
_F1 = Fraction(1)
_R0 = RatFunc(POLY_ZERO)
_R1 = RatFunc(POLY_ONE)
_RALPHA = RatFunc(POLY_ALPHA)

QQ = _RationalField()
QALPHA = _FunctionField()
FIELDS = {QQ.name: QQ, QALPHA.name: QALPHA}


def field_named(name: str) -> Field:
    try:
        return FIELDS[name]
    except KeyError:
        raise ValueError(f"unknown field {name!r}; expected one of {sorted(FIELDS)}") from None


def evaluate_at(x, a0: Fraction) -> Fraction:
    """Specialise a scalar at alpha = a0.  Rationals pass through unchanged."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, RatFunc):
        return x.evaluate(a0)
    raise TypeError(f"not a field element: {x!r}")
