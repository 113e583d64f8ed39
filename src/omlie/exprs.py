"""Parser and formatter for the scalar / linear-combination expression grammar.

Scalar literals are integers, fractions ``p/q`` and polynomial expressions in
``alpha`` built from ``+ - * / ^`` and parentheses, e.g. ``(alpha+1)/2``.
Linear combinations extend the grammar with basis names as vector atoms:
``z + alpha*x``, ``2*e1 - 1/2*e2``.  Vectors may be added, negated and scaled
by scalars; products or quotients of two vectors are rejected.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .fields import Field, QALPHA, RatFunc, _size

# The largest alpha-degree and bit length (see fields._size) of a scalar the
# parser builds; a power is checked before it is computed, so an oversized one
# is an ExprError, not a run out of memory or time.
MAX_ALPHA_DEGREE = 256
MAX_SCALAR_BITS = 4096


class ExprError(ValueError):
    """Syntax or type error in an expression, with a character position."""

    def __init__(self, message: str, pos: int | None = None):
        self.pos = pos
        if pos is not None:
            message = f"{message} (column {pos + 1})"
        super().__init__(message)


_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^()])"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ExprError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent over (scalar | vector) values.

    A value is ``("s", elem)`` or ``("v", {basis_index: elem})``.
    """

    def __init__(self, text: str, field: Field, basis: dict[str, int]):
        self.text = text
        self.field = field
        self.basis = basis
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ExprError(f"expected {op!r}", pos)
        self.take()

    def parse(self):
        value = self.expr()
        kind, _, pos = self.peek()
        if kind != "end":
            raise ExprError("trailing input after expression", pos)
        return value

    def expr(self):
        value = self.term()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                value = self._combine(value, rhs, val, pos)
            else:
                return value

    def term(self):
        value = self.unary()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                rhs = self.unary()
                value = self._muldiv(value, rhs, val, pos)
            else:
                return value

    def unary(self):
        kind, val, pos = self.peek()
        if kind == "op" and val in "+-":
            self.take()
            inner = self.unary()
            if val == "-":
                return self._negate(inner)
            return inner
        return self.power()

    def power(self):
        base = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.take()
            ekind, eval_, epos = self.peek()
            if ekind != "num":
                raise ExprError("exponent must be a nonnegative integer literal", epos)
            self.take()
            n = int(eval_)
            if base[0] == "v":
                raise ExprError("cannot raise a basis combination to a power", pos)
            return ("s", self._bounded(base[1], pos, n) ** n)
        return base

    def atom(self):
        kind, val, pos = self.take()
        if kind == "num":
            return ("s", self._bounded(self.field.coerce(int(val)), pos))
        if kind == "name":
            if val == "alpha":
                if self.field is QALPHA:
                    return ("s", QALPHA.alpha)
                raise ExprError("'alpha' is only available over Q(alpha)", pos)
            if val in self.basis:
                return ("v", {self.basis[val]: self.field.one})
            known = ", ".join(sorted(self.basis)) or "none"
            raise ExprError(f"unknown name {val!r} (basis names: {known})", pos)
        if kind == "op" and val == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ExprError(f"unexpected token {val!r}", pos)

    def _bounded(self, x, pos, n=1):
        """x, once x**n is known to keep within the bounds: it has n times x's
        degree and, for x of b bits, at least n*(b-1)+1 bits, the fewest a
        power of a b-bit integer has."""
        degree, bits = _size(x)
        if n * degree > MAX_ALPHA_DEGREE:
            raise ExprError(f"scalar of alpha-degree above {MAX_ALPHA_DEGREE}", pos)
        if n * (bits - 1) + 1 > MAX_SCALAR_BITS:
            raise ExprError(f"scalar of more than {MAX_SCALAR_BITS} bits", pos)
        return x

    def _negate(self, value):
        if value[0] == "s":
            return ("s", -value[1])
        return ("v", {k: -c for k, c in value[1].items()})

    def _as_vector(self, value, pos):
        if value[0] == "v":
            return value[1]
        if not value[1]:
            return {}
        raise ExprError("cannot mix a nonzero scalar into a basis combination", pos)

    def _combine(self, a, b, op, pos):
        if a[0] == "s" and b[0] == "s":
            return ("s", self._bounded(a[1] + b[1] if op == "+" else a[1] - b[1], pos))
        va, vb = self._as_vector(a, pos), self._as_vector(b, pos)
        out = dict(va)
        for k, c in vb.items():
            c = c if op == "+" else -c
            acc = out.get(k)
            acc = c if acc is None else self._bounded(acc + c, pos)
            if acc:
                out[k] = acc
            else:
                out.pop(k, None)
        return ("v", out)

    def _muldiv(self, a, b, op, pos):
        if a[0] == "s" and b[0] == "s":
            if op == "*":
                return ("s", self._bounded(a[1] * b[1], pos))
            if not b[1]:
                raise ExprError("division by zero", pos)
            return ("s", self._bounded(a[1] / b[1], pos))
        if a[0] == "v" and b[0] == "v":
            raise ExprError("cannot multiply or divide two basis combinations", pos)
        if op == "/":
            if b[0] == "v":
                raise ExprError("cannot divide by a basis combination", pos)
            if not b[1]:
                raise ExprError("division by zero", pos)
            return ("v", {k: self._bounded(c / b[1], pos) for k, c in a[1].items()})
        scalar, vec = (a[1], b[1]) if a[0] == "s" else (b[1], a[1])
        if not scalar:
            return ("v", {})
        return ("v", {k: self._bounded(c * scalar, pos) for k, c in vec.items()})


def parse_scalar(text: str, field: Field):
    """Parse a scalar literal over the given field."""
    value = _Parser(text, field, {}).parse()
    return value[1]


def parse_combination(text: str, field: Field, basis_names) -> tuple:
    """Parse a linear combination of basis names into a dense coefficient tuple.

    A plain scalar 0 is accepted as the zero vector; any other scalar result is
    an error.
    """
    index = {name: i for i, name in enumerate(basis_names)}
    value = _Parser(text, field, index).parse()
    if value[0] == "s":
        if value[1]:
            raise ExprError("expected a combination of basis elements, got a scalar")
        return (field.zero,) * len(basis_names)
    vec = [field.zero] * len(basis_names)
    for k, c in value[1].items():
        vec[k] = c
    return tuple(vec)


_PLAIN_COEFF_RE = re.compile(r"\w+(\^\d+)?")


def _negated_constant(c):
    """Return abs value when ``c`` is a negative constant, else None."""
    if isinstance(c, Fraction):
        return -c if c < 0 else None
    if isinstance(c, RatFunc) and c.is_constant() and c.as_fraction() < 0:
        return -c
    return None


def format_combination(coeffs, names, field: Field) -> str:
    """Format a coefficient vector as a parseable linear combination."""
    parts = []
    for c, name in zip(coeffs, names):
        if not c:
            continue
        mag = _negated_constant(c)
        neg = mag is not None
        s = field.format(mag if neg else c)
        if s == "1":
            body = name
        elif _PLAIN_COEFF_RE.fullmatch(s):
            body = f"{s}*{name}"
        else:
            body = f"({s})*{name}"
        parts.append((neg, body))
    if not parts:
        return "0"
    neg, body = parts[0]
    out = [f"-{body}" if neg else body]
    for neg, body in parts[1:]:
        out.append(f" - {body}" if neg else f" + {body}")
    return "".join(out)
