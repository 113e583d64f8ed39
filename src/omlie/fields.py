"""Exact scalar arithmetic for the two coefficient fields used everywhere else.

Scalars are either arbitrary-precision rationals (plain ``fractions.Fraction``)
or elements of Q(alpha), the field of rational functions in one formal
parameter over Q.  A polynomial in alpha has one format: a tuple of ints, the
coefficients from degree 0 up with no trailing zero, and ``()`` for zero.
``poly_gcd`` and ``rational_roots`` take it; ``format_poly`` prints any
sequence of rational coefficients.

``RatFunc`` holds an element as two such tuples, numerator and denominator,
in one canonical form: the two are coprime in Q[alpha], the gcd of all their
coefficients together is 1, the denominator's lead coefficient is positive,
and zero is ``((), (1,))``.  So equal field elements are representationally
equal and ``==`` is a tuple compare.  With constant denominators (the common
case) ``+`` and ``*`` are int convolutions plus one ``math.gcd``, as
``Fraction`` does for ints; otherwise products cross-cancel and sums reduce
by :func:`poly_gcd`, a primitive pseudo-remainder sequence (Knuth, TAOCP
vol. 2, 4.6.1) taken only between non-constant polynomials.

There is no floating point anywhere in this package.  Working in Q(alpha)
means "generic alpha": every nonzero rational function is invertible, which is
how side conditions like alpha not in {0, -1} are realised.  Inversions of
nonconstant elements can be recorded with :func:`track_denominators`, whose
trail holds each inverted numerator, made monic, as a ``RatFunc``, so a later
specialisation alpha = a0 can be rejected when it lands on a root of a
polynomial that was divided by.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from math import gcd


def _ip_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for k, c in enumerate(b):
        out[k] += c
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _ip_scale(a, c):
    return a if c == 1 else tuple([c * x for x in a])


def _ip_mul(a, b):
    if len(a) == 1:
        return _ip_scale(b, a[0])
    if len(b) == 1:
        return _ip_scale(a, b[0])
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


def _ip_pow(a, n):
    out = (1,)
    while n:
        if n & 1:
            out = _ip_mul(out, a)
        n >>= 1
        if n:
            a = _ip_mul(a, a)
    return out


def _ip_primitive(a):
    """``a`` divided by its content, lead coefficient made positive."""
    g = gcd(*a)
    if a[-1] < 0:
        g = -g
    return a if g == 1 else tuple([c // g for c in a])


def _ip_prem(a, b):
    """c * a mod b for some nonzero int c, with b non-constant."""
    r = list(a)
    lb = b[-1]
    top = len(b) - 1
    while len(r) > top:
        c = r[-1]
        g = gcd(c, lb)
        s, t = lb // g, c // g
        shift = len(r) - 1 - top
        if s != 1:
            r = [s * x for x in r]
        for k in range(top):
            r[shift + k] -= t * b[k]
        r.pop()
        while r and not r[-1]:
            r.pop()
    return tuple(r)


def poly_gcd(a, b):
    """gcd of two int polynomials (tuples from degree 0 up, no trailing zero):
    primitive, with positive lead coefficient, by the primitive PRS; gcd(0, 0) = ()."""
    if not b:
        return _ip_primitive(a) if a else ()
    if not a:
        return _ip_primitive(b)
    a, b = _ip_primitive(a), _ip_primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r = _ip_prem(a, b)
        if not r:
            return b
        a, b = b, _ip_primitive(r)
    return (1,)


def _ip_exquo(a, b):
    """The quotient a / b, known to be an integer polynomial."""
    r = list(a)
    lb = b[-1]
    top = len(b) - 1
    q = [0] * (len(a) - top)
    for i in range(len(q) - 1, -1, -1):
        f = r[i + top] // lb
        if f:
            q[i] = f
            for k in range(top):
                r[i + k] -= f * b[k]
    return tuple(q)


def rational_roots(a) -> list[Fraction]:
    """All rational roots, ascending, of a nonzero int polynomial (a tuple from
    degree 0 up, no trailing zero), by the rational root test."""
    if not a:
        raise ValueError("the zero polynomial has every root")
    a = _ip_primitive(a)
    low = next(k for k, c in enumerate(a) if c)
    roots = {Fraction(0)} if low else set()
    a = a[low:]
    if len(a) == 1:
        return sorted(roots)
    for pn in _divisors(abs(a[0])):
        for qn in _divisors(a[-1]):
            for cand in (Fraction(pn, qn), Fraction(-pn, qn)):
                if not _homogenised(a, cand.numerator, cand.denominator):
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


def format_poly(coeffs) -> str:
    """A sequence of rational coefficients, from degree 0 up, as a polynomial in alpha."""
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if not c:
            continue
        neg = c < 0
        mag = -c if neg else c
        if k == 0:
            body = str(mag)
        else:
            head = "alpha" if k == 1 else f"alpha^{k}"
            body = head if mag == 1 else f"{mag}*{head}"
        if not parts:
            parts.append(f"-{body}" if neg else body)
        else:
            parts.append(f" - {body}" if neg else f" + {body}")
    return "".join(parts) or "0"


_DENOM_TRAILS: list[list[RatFunc]] = []


@contextmanager
def track_denominators():
    """Collect the monic numerators of nonconstant elements inverted inside the
    block, each as a ``RatFunc`` with a constant denominator.

    A sampled alpha value that is a root of any collected polynomial must be
    rejected: the recorded computation divided by something that vanishes there.
    """
    trail: list[RatFunc] = []
    _DENOM_TRAILS.append(trail)
    try:
        yield trail
    finally:
        # by identity: nested trails can be equal lists
        _DENOM_TRAILS[:] = [t for t in _DENOM_TRAILS if t is not trail]


def _record_inversion(n):
    """Add the monic associate of the int polynomial ``n`` to every open trail."""
    m = _coprime_rf(n, (n[-1],))
    for trail in _DENOM_TRAILS:
        if m not in trail:
            trail.append(m)


def _rf(n, d):
    """A RatFunc from a numerator and denominator already in canonical form."""
    x = object.__new__(RatFunc)
    x._n = n
    x._d = d
    return x


def _coprime_rf(n, d):
    """A RatFunc from n / d, coprime in Q[alpha]: divide out the content, fix the sign."""
    if not n:
        return _R0
    g = gcd(*n, *d)
    if d[-1] < 0:
        g = -g
    if g != 1:
        n = tuple([c // g for c in n])
        d = tuple([c // g for c in d])
    return _rf(n, d)


def _reduced_rf(n, d):
    """A RatFunc from any n / d with d nonzero."""
    if len(n) > 1 and len(d) > 1:
        g = poly_gcd(n, d)
        if len(g) > 1:
            n, d = _ip_exquo(n, g), _ip_exquo(d, g)
    return _coprime_rf(n, d)


def _over_int(n, q):
    """n / q for an int q > 0; only an int can cancel, as q is a unit of Q[alpha]."""
    if not n:
        return _R0
    if q != 1:
        g = gcd(q, *n)
        if g != 1:
            return _rf(tuple([c // g for c in n]), (q // g,))
    return _rf(n, (q,))


def _sum(n1, d1, n2, d2):
    if len(d1) == 1 and len(d2) == 1:
        q1, q2 = d1[0], d2[0]
        return _over_int(_ip_add(_ip_scale(n1, q2), _ip_scale(n2, q1)), q1 * q2)
    n = _ip_add(_ip_mul(n1, d2), _ip_mul(n2, d1))
    d = _ip_mul(d1, d2)
    if len(d1) > 1 and len(d2) > 1:
        return _reduced_rf(n, d)
    # gcd(n, d) = gcd(n1 * d2, d1) = 1 when d2 is constant, and likewise for d1
    return _coprime_rf(n, d)


def _product(n1, d1, n2, d2):
    if not n1 or not n2:
        return _R0
    if len(d1) == 1 and len(d2) == 1:
        return _over_int(_ip_mul(n1, n2), d1[0] * d2[0])
    if len(n1) > 1 and len(d2) > 1:
        g = poly_gcd(n1, d2)
        if len(g) > 1:
            n1, d2 = _ip_exquo(n1, g), _ip_exquo(d2, g)
    if len(n2) > 1 and len(d1) > 1:
        g = poly_gcd(n2, d1)
        if len(g) > 1:
            n2, d1 = _ip_exquo(n2, g), _ip_exquo(d1, g)
    return _coprime_rf(_ip_mul(n1, n2), _ip_mul(d1, d2))


class RatFunc:
    """Element of Q(alpha), kept as a canonical pair of integer polynomials.

    Elements come from ``QALPHA`` (``coerce``, ``parse``, ``alpha``) and the
    arithmetic operators.
    """

    __slots__ = ("_n", "_d")

    def __bool__(self):
        return bool(self._n)

    def __eq__(self, other):
        if type(other) is not RatFunc:
            other = _as_ratfunc(other)
            if other is None:
                return NotImplemented
        return self._n == other._n and self._d == other._d

    def __hash__(self):
        # A constant hashes like the equal Fraction (and int), as == says.
        if len(self._d) == 1 and len(self._n) <= 1:
            return hash(Fraction(self._n[0], self._d[0])) if self._n else 0
        return hash((self._n, self._d))

    def __add__(self, other):
        if type(other) is not RatFunc:
            other = _as_ratfunc(other)
            if other is None:
                return NotImplemented
        return _sum(self._n, self._d, other._n, other._d)

    __radd__ = __add__

    def __neg__(self):
        return _rf(_ip_scale(self._n, -1), self._d)

    def __sub__(self, other):
        if type(other) is not RatFunc:
            other = _as_ratfunc(other)
            if other is None:
                return NotImplemented
        return _sum(self._n, self._d, _ip_scale(other._n, -1), other._d)

    def __rsub__(self, other):
        other = _as_ratfunc(other)
        if other is None:
            return NotImplemented
        return _sum(other._n, other._d, _ip_scale(self._n, -1), self._d)

    def __mul__(self, other):
        if type(other) is not RatFunc:
            other = _as_ratfunc(other)
            if other is None:
                return NotImplemented
        return _product(self._n, self._d, other._n, other._d)

    __rmul__ = __mul__

    def inverse(self) -> "RatFunc":
        n, d = self._n, self._d
        if not n:
            raise ZeroDivisionError("inverting zero in Q(alpha)")
        if len(n) > 1 and _DENOM_TRAILS:
            _record_inversion(n)
        if n[-1] < 0:
            return _rf(_ip_scale(d, -1), _ip_scale(n, -1))
        return _rf(d, n)

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
        # the powers of a canonical pair are again coprime with content 1
        return _rf(_ip_pow(self._n, n), _ip_pow(self._d, n))

    def is_constant(self) -> bool:
        return len(self._n) <= 1 and len(self._d) == 1

    def as_fraction(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"{self!r} is not a constant")
        return Fraction(self._n[0], self._d[0]) if self._n else Fraction(0)

    def evaluate(self, x: Fraction) -> Fraction:
        # p/q into both sides at once: n(p/q) / d(p/q) = hn / hd * q^(deg d - deg n)
        # with hn, hd the homogenised values.
        p, q = x.numerator, x.denominator
        hn, hd = _homogenised(self._n, p, q), _homogenised(self._d, p, q)
        if not hd:
            raise ZeroDivisionError(f"denominator vanishes at alpha = {x}")
        e = len(self._d) - len(self._n)
        if e >= 0:
            return Fraction(hn * q**e, hd)
        return Fraction(hn, hd * q**-e)

    def __repr__(self):
        return f"RatFunc({format_ratfunc(self)!r})"


def _size(x):
    """(alpha-degree, bits) of a scalar: the larger degree of its numerator and
    denominator, and the larger bit length of their sums of absolute
    coefficient values (of ``abs(numerator)`` and ``denominator`` for a
    ``Fraction``)."""
    if isinstance(x, RatFunc):
        parts = (x._n, x._d)
        return max(map(len, parts)) - 1, max(sum(map(abs, p)).bit_length() for p in parts)
    return 0, max(abs(x.numerator).bit_length(), x.denominator.bit_length())


def _homogenised(a, p, q):
    """Sum of a[k] p^k q^(deg a - k)."""
    acc, qk = 0, 1
    for c in reversed(a):
        acc = acc * p + c * qk
        qk *= q
    return acc


def _as_ratfunc(v):
    if isinstance(v, RatFunc):
        return v
    if isinstance(v, (int, Fraction)):
        return _rf((v.numerator,), (v.denominator,)) if v else _R0
    return None


def format_ratfunc(x: RatFunc) -> str:
    """The element with its denominator made monic; a constant one is left out."""
    lc = x._d[-1]
    num = format_poly([Fraction(c, lc) for c in x._n])
    if len(x._d) == 1:
        return num
    return f"({num})/({format_poly([Fraction(c, lc) for c in x._d])})"


class Field:
    """Shared interface over the two scalar fields.

    Generic code only ever touches ``zero``, ``one``, ``coerce`` and the
    arithmetic operators of the elements themselves.  Each field is one
    module-level instance, ``QQ`` or ``QALPHA``, which the decider tests by
    identity; copying or unpickling one gives that instance back.
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

    def __reduce__(self):
        return field_named, (self.name,)

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
        if isinstance(value, (int, Fraction)):
            return _as_ratfunc(value)
        if isinstance(value, str):
            return self.parse(value)
        raise TypeError(f"cannot interpret {value!r} as an element of Q(alpha)")

    def format(self, x) -> str:
        return format_ratfunc(x)


_F0 = Fraction(0)
_F1 = Fraction(1)
_R0 = _rf((), (1,))
_R1 = _rf((1,), (1,))
_RALPHA = _rf((0, 1), (1,))

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
