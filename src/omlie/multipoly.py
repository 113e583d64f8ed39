"""Sparse multivariate polynomials over an exact field and a degree-capped
Buchberger algorithm with detection of 1 in the ideal.

Monomials are exponent tuples, compared in degrevlex order through one sort
key that lists them lead first.  Coefficients are field elements, so ideals
over Q(alpha) are handled by the same code path with exact rational-function
arithmetic.

Division (``normal_form``) reduces in one mutable term dict whose pending
monomials sit in a heap, largest first, and reads each divisor's lead once
per call; Buchberger keeps each basis element's (lead, lead coefficient,
terms) triple beside it and divides by those triples directly.  No step
rescans a whole polynomial to find its lead.

Selection strategy and all tie-breaks are deterministic (normal strategy:
lowest lcm degree first, ties by generator indices), so identical inputs
produce byte-identical bases.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from operator import add, sub

from .fields import Field


def _degrevlex_desc_key(m):
    """Sort key listing monomials in descending degrevlex order, so that
    ``min`` picks the lead and a heap pops the largest first."""
    return (-sum(m), m[::-1])


def _mono_mul(a, b):
    return tuple(map(add, a, b))


def _mono_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _mono_div(a, b):
    return tuple(map(sub, a, b))


def _mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def _mono_coprime(a, b):
    return not any(x and y for x, y in zip(a, b))


class MPoly:
    """Multivariate polynomial: {exponent tuple: nonzero coefficient}."""

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field: Field, nvars: int, terms=None):
        self.field = field
        self.nvars = nvars
        clean = {}
        for m, c in (terms or {}).items():
            c = field.coerce(c)
            if c:
                if len(m) != nvars:
                    raise ValueError("exponent tuple has wrong length")
                clean[tuple(m)] = c
        self.terms = clean

    @classmethod
    def zero(cls, field: Field, nvars: int) -> "MPoly":
        return cls(field, nvars, {})

    @classmethod
    def const(cls, field: Field, nvars: int, value) -> "MPoly":
        return cls(field, nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, field: Field, nvars: int, index: int) -> "MPoly":
        m = [0] * nvars
        m[index] = 1
        return cls(field, nvars, {tuple(m): field.one})

    def _like(self, terms) -> "MPoly":
        out = MPoly.__new__(MPoly)
        out.field, out.nvars = self.field, self.nvars
        out.terms = terms
        return out

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def degree(self) -> int:
        return max((sum(m) for m in self.terms), default=-1)

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            acc = out.get(m)
            acc = c if acc is None else acc + c
            if acc:
                out[m] = acc
            else:
                del out[m]
        return self._like(out)

    def __sub__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            acc = out.get(m)
            acc = -c if acc is None else acc - c
            if acc:
                out[m] = acc
            else:
                del out[m]
        return self._like(out)

    def __neg__(self):
        return self._like({m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, MPoly):
            return self.scale(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                c = c1 * c2
                acc = out.get(m)
                acc = c if acc is None else acc + c
                if acc:
                    out[m] = acc
                else:
                    del out[m]
        return self._like(out)

    def scale(self, c) -> "MPoly":
        c = self.field.coerce(c)
        if not c:
            return self._like({})
        return self._like({m: v * c for m, v in self.terms.items()})

    def times_term(self, coeff, mono) -> "MPoly":
        return self._like({_mono_mul(m, mono): c * coeff for m, c in self.terms.items()})

    def shift_by_var(self, index: int) -> "MPoly":
        """Multiply by the given variable."""
        out = {}
        for m, c in self.terms.items():
            mm = list(m)
            mm[index] += 1
            out[tuple(mm)] = c
        return self._like(out)

    def lead_monomial(self):
        return min(self.terms, key=_degrevlex_desc_key)

    def lead_coeff(self):
        return self.terms[self.lead_monomial()]

    def monic(self) -> "MPoly":
        lc = self.lead_coeff()
        if lc == self.field.one:
            return self
        inv = self.field.one / lc
        return self._like({m: c * inv for m, c in self.terms.items()})

    def constant_term(self):
        return self.terms.get((0,) * self.nvars, self.field.zero)

    def support_vars(self) -> set[int]:
        out = set()
        for m in self.terms:
            for i, e in enumerate(m):
                if e:
                    out.add(i)
        return out

    def substitute(self, assignment: dict) -> "MPoly":
        """Partially substitute values for variables; indices keep their slots."""
        if not assignment:
            return self
        out = {}
        for m, c in self.terms.items():
            factor = c
            mm = list(m)
            dead = False
            for idx, val in assignment.items():
                e = mm[idx]
                if e:
                    mm[idx] = 0
                    if not val:
                        dead = True
                        break
                    factor = factor * val ** e
            if dead:
                continue
            key = tuple(mm)
            acc = out.get(key)
            acc = factor if acc is None else acc + factor
            if acc:
                out[key] = acc
            else:
                del out[key]
        return self._like(out)

    def evaluate(self, values):
        return self.substitute(dict(enumerate(values))).constant_term()

    def format(self, names=None) -> str:
        if not self.terms:
            return "0"
        names = names or [f"p{i}" for i in range(self.nvars)]
        parts = []
        for m in sorted(self.terms, key=_degrevlex_desc_key):
            c = self.terms[m]
            factors = [
                names[i] if e == 1 else f"{names[i]}^{e}"
                for i, e in enumerate(m)
                if e
            ]
            body = "*".join(factors)
            cs = self.field.format(c)
            if not body:
                parts.append(cs)
            elif cs == "1":
                parts.append(body)
            else:
                parts.append(f"({cs})*{body}" if any(s in cs for s in "+-/ ") else f"{cs}*{body}")
        return " + ".join(parts)

    def __repr__(self):
        return f"MPoly({self.format()})"


def s_polynomial(f: MPoly, g: MPoly) -> MPoly:
    lf, lg = f.lead_monomial(), g.lead_monomial()
    lcm = _mono_lcm(lf, lg)
    one = f.field.one
    tf = f.times_term(one / f.terms[lf], _mono_div(lcm, lf))
    tg = g.times_term(one / g.terms[lg], _mono_div(lcm, lg))
    return tf - tg


def _divisor(g: MPoly):
    """The (lead monomial, lead coefficient, terms) triple division reads."""
    gm = g.lead_monomial()
    return gm, g.terms[gm], g.terms


def normal_form(f: MPoly, basis) -> MPoly:
    """Remainder of f on division by the basis: the largest pending monomial
    is reduced first, by the first divisor in list order whose lead divides it.
    """
    return _reduce(f, [_divisor(g) for g in basis if g])


def _reduce(f: MPoly, divisors) -> MPoly:
    """``normal_form`` over divisors given as ``_divisor`` triples, in order."""
    work = dict(f.terms)
    heap = [(_degrevlex_desc_key(m), m) for m in work]
    heapq.heapify(heap)
    rem = {}
    while heap:
        m = heapq.heappop(heap)[1]
        c = work.pop(m, None)
        if c is None:
            continue  # cancelled, or a stale duplicate heap entry
        for gm, glc, gterms in divisors:
            if _mono_divides(gm, m):
                q = c / glc
                shift = _mono_div(m, gm)
                for t, gc in gterms.items():
                    if t == gm:
                        continue  # cancels c exactly
                    t = _mono_mul(t, shift)
                    acc = work.get(t)
                    if acc is None:
                        work[t] = -(gc * q)
                        heapq.heappush(heap, (_degrevlex_desc_key(t), t))
                    else:
                        acc = acc - gc * q
                        if acc:
                            work[t] = acc
                        else:
                            del work[t]
                break
        else:
            rem[m] = c
    return f._like(rem)


def interreduce(polys) -> list[MPoly]:
    """Auto-reduce to a set with monic leads where no lead divides another term."""
    polys = [p.monic() for p in polys if p]
    changed = True
    while changed:
        changed = False
        out: list[MPoly] = []
        for i, p in enumerate(polys):
            others = out + polys[i + 1 :]
            r = normal_form(p, others) if others else p
            if r:
                r = r.monic()
                if r != p:
                    changed = True
                out.append(r)
            else:
                changed = True
        polys = out
    return sorted(polys, key=lambda p: _degrevlex_desc_key(p.lead_monomial()))


@dataclass(frozen=True)
class GroebnerResult:
    """Reduced basis or a cap-exceeded marker, plus run statistics."""

    basis: tuple | None
    cap_exceeded: bool
    spairs_processed: int
    max_degree: int


def buchberger(gens, degree_cap: int = 6) -> GroebnerResult:
    """Reduced Groebner basis of the ideal, or cap_exceeded.

    The cap bounds the total degree of every interreduced generator, of any
    lcm selected and of any new basis element; hitting it aborts with a marker
    rather than an answer.  Pairs with coprime leads are never selected: their
    S-polynomials reduce to zero.
    """
    G = interreduce(gens)
    spairs = 0
    maxdeg = max((p.degree() for p in G), default=0)
    if not G:
        return GroebnerResult((), False, spairs, maxdeg)
    if maxdeg > degree_cap:
        return GroebnerResult(None, True, spairs, maxdeg)
    divisors = [_divisor(p) for p in G]
    heap: list[tuple[int, int, int]] = []

    def add_pairs(k):
        lk = divisors[k][0]
        for t in range(k):
            lt = divisors[t][0]
            if not _mono_coprime(lt, lk):
                heapq.heappush(heap, (sum(_mono_lcm(lt, lk)), t, k))

    for k in range(len(G)):
        add_pairs(k)
    while heap:
        lcmdeg, i, j = heapq.heappop(heap)
        if lcmdeg > degree_cap:
            return GroebnerResult(None, True, spairs, maxdeg)
        spairs += 1
        h = _reduce(s_polynomial(G[i], G[j]), divisors)
        if not h:
            continue
        if h.degree() > degree_cap:
            return GroebnerResult(None, True, spairs, maxdeg)
        h = h.monic()
        maxdeg = max(maxdeg, h.degree())
        G.append(h)
        divisors.append(_divisor(h))
        add_pairs(len(G) - 1)
    return GroebnerResult(tuple(interreduce(G)), False, spairs, maxdeg)


def contains_one(result: GroebnerResult):
    """True when the reduced basis is {1}; None when the cap was exceeded."""
    if result.cap_exceeded:
        return None
    basis = result.basis
    return len(basis) == 1 and basis[0].degree() == 0
