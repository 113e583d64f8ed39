"""Sparse multivariate polynomials over an exact field and a degree-capped
Buchberger algorithm with detection of 1 in the ideal.

``MPoly`` keeps its terms as {exponent tuple: coefficient}.  It has no
arithmetic: it is only the exchange format into and out of ``normal_form``,
``interreduce`` and ``buchberger``.  Division and Buchberger, and the
decider's residuals and harvest in ``admissible``, work on packed monomials
(``Packing``; Monagan & Pearce 2007, "Polynomial division using dynamic
arrays, heaps, and packed exponent vectors"): a monomial is one int, holding
exponent i in a field of ``w`` bits at bit ``w*i`` and the total degree,
negated, above all of them.  ``w`` leaves one guard bit above the largest
degree the call can meet, so no field overflows and then
- multiplying monomials is adding ints;
- u divides v iff ``(v - u) & guard == 0``: a field of v below u's borrows
  into its own guard bit;
- ascending ints are descending degrevlex (higher degree first, then the
  smaller exponent of the last variable), so a heap of plain ints pops the
  largest monomial first and a polynomial's smallest key is its lead.

Over Q coefficients are ints and division is fraction-free: a term c*x^m is
reduced by g as f <- a*f - b*x^s*g, where b/a is c/lc(g) in lowest terms, so
the remainder comes out scaled by the product of the a's; basis elements are
kept primitive with a positive lead.  Over Q(alpha) the same loop divides
exactly (a = 1, b = c/lc(g)) and basis elements are kept monic, so the same
elements are inverted in the same order as by plain field division.

Selection strategy and all tie-breaks are deterministic (normal strategy:
lowest lcm degree first, ties by generator indices), so identical inputs
produce byte-identical bases.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .fields import QQ, Field


def _degrevlex_desc_key(m):
    """Sort key listing exponent tuples in descending degrevlex order."""
    return (-sum(m), m[::-1])


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

    def lead_monomial(self):
        return min(self.terms, key=_degrevlex_desc_key)

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


class Packing:
    """Packed monomials in ``nvars`` variables of total degree at most ``max_degree``."""

    __slots__ = ("nvars", "width", "top", "guard")

    def __init__(self, nvars: int, max_degree: int):
        w = max_degree.bit_length() + 1
        self.nvars, self.width, self.top = nvars, w, nvars * w
        self.guard = sum(1 << (w * i + w - 1) for i in range(nvars))

    def pack(self, exps) -> int:
        w = self.width
        m = -sum(exps) << self.top
        for i, e in enumerate(exps):
            m += e << (w * i)
        return m

    def unpack(self, m) -> tuple:
        w = self.width
        mask = (1 << (w - 1)) - 1
        return tuple((m >> (w * i)) & mask for i in range(self.nvars))

    def degree(self, m) -> int:
        return -(m >> self.top)

    def support(self, monomials) -> list[int]:
        """The variables with a nonzero exponent in some of the packed monomials."""
        fields = 0
        for m in monomials:
            fields |= m  # the negated degree sits above the fields: they OR alone
        w = self.width
        return [i for i in range(self.nvars) if fields >> (w * i) & ((1 << w) - 1)]

    def units(self) -> list[int]:
        """x_0, ..., x_{nvars-1} packed, then the constant 1 packed (as 0)."""
        w, one = self.width, -1 << self.top
        return [one + (1 << (w * i)) for i in range(self.nvars)] + [0]

    def pack_terms(self, p: MPoly):
        """p's terms on packed keys, lead first, with the factor they were scaled
        by: over Q the coefficients become ints, scaled by their denominators' lcm."""
        if p.nvars != self.nvars:
            raise ValueError(f"polynomial in {p.nvars} variables, expected {self.nvars}")
        pack = self.pack
        items = sorted((pack(m), c) for m, c in p.terms.items())
        if p.field is not QQ:
            return dict(items), 1
        den = lcm(*(c.denominator for _, c in items))
        return {m: c.numerator * (den // c.denominator) for m, c in items}, den

    def to_mpoly(self, element, field: Field) -> MPoly:
        """A basis element as a monic MPoly."""
        lead, lc, tail = element
        unpack = self.unpack
        if field is QQ:
            terms = {unpack(lead): Fraction(1)}
            terms.update((unpack(m), Fraction(c, lc)) for m, c in tail)
        else:
            terms = {unpack(lead): lc}
            terms.update((unpack(m), c) for m, c in tail)
        out = MPoly.__new__(MPoly)
        out.field, out.nvars, out.terms = field, self.nvars, terms
        return out


def _element(terms, field: Field):
    """Nonzero packed terms, listed lead first, as the (lead, lead coefficient,
    tail) triple division reads: primitive with a positive lead over Q, monic
    over Q(alpha)."""
    items = list(terms.items())
    lc = items[0][1]
    if field is QQ:
        k = gcd(*terms.values())
        if lc < 0:
            k = -k
        if k != 1:
            items = [(m, c // k) for m, c in items]
    elif lc != field.one:
        inv = field.one / lc
        items = [(m, c * inv) for m, c in items]
    lead, lc = items[0]
    return lead, lc, items[1:]


def _reduce(work, divisors, guard: int, field: Field):
    """Remainder of the packed terms ``work`` (consumed) on division by
    (lead, lead coefficient, tail) triples, and the factor it is scaled by.

    The largest pending monomial is reduced first, by the first divisor in
    list order whose lead divides it.  Over Q the step is fraction-free and
    the returned factor is the product of the a's; over Q(alpha) it is 1.
    The remainder is listed lead first.
    """
    fraction_free = field is QQ
    heap = list(work)
    heapq.heapify(heap)
    rem = {}
    scale = 1
    while heap:
        m = heapq.heappop(heap)
        c = work.pop(m, None)
        if c is None:
            continue  # cancelled, or a stale duplicate heap entry
        for gm, glc, gtail in divisors:
            shift = m - gm
            if shift & guard:
                continue
            if fraction_free:
                k = gcd(c, glc)
                a, b = glc // k, c // k
                if a != 1:
                    scale *= a
                    for t in work:
                        work[t] *= a
                    for t in rem:
                        rem[t] *= a
            else:
                b = c / glc
            for t, gc in gtail:
                t += shift
                acc = work.get(t)
                if acc is None:
                    work[t] = -(gc * b)
                    heapq.heappush(heap, t)
                else:
                    acc = acc - gc * b
                    if acc:
                        work[t] = acc
                    else:
                        del work[t]
            break
        else:
            rem[m] = c
    return rem, scale


def normal_form(f: MPoly, basis) -> MPoly:
    """Remainder of f on division by the basis: the largest pending monomial
    is reduced first, by the first divisor in list order whose lead divides it.
    """
    basis = [g for g in basis if g]
    if not f:
        return MPoly(f.field, f.nvars)
    packing = Packing(f.nvars, max(p.degree() for p in (f, *basis)))
    field = f.field
    divisors = []
    for g in basis:
        terms = packing.pack_terms(g)[0]
        if field is QQ:
            divisors.append(_element(terms, field))
        else:  # not made monic: a lead coefficient is inverted only if it is divided by
            items = list(terms.items())
            divisors.append((*items[0], items[1:]))
    work, den = packing.pack_terms(f)
    rem, scale = _reduce(work, divisors, packing.guard, field)
    unpack = packing.unpack
    if field is QQ:
        den *= scale
        return MPoly(field, f.nvars, {unpack(m): Fraction(c, den) for m, c in rem.items()})
    return MPoly(field, f.nvars, {unpack(m): c for m, c in rem.items()})


def interreduce(polys) -> list[MPoly]:
    """Auto-reduce to a set with monic leads where no lead divides another term."""
    polys = [p for p in polys if p]
    if not polys:
        return []
    field = polys[0].field
    packing = Packing(polys[0].nvars, max(p.degree() for p in polys))
    polys = [_element(packing.pack_terms(p)[0], field) for p in polys]
    changed = True
    while changed:
        changed = False
        out: list = []
        for i, p in enumerate(polys):
            others = out + polys[i + 1 :]
            r = p
            if others:
                lead, lc, tail = p
                work = dict(tail)
                work[lead] = lc
                rem = _reduce(work, others, packing.guard, field)[0]
                r = _element(rem, field) if rem else None
            if r:
                if r != p:
                    changed = True
                out.append(r)
            else:
                changed = True
        polys = out
    polys.sort(key=lambda p: p[0])
    return [packing.to_mpoly(p, field) for p in polys]


@dataclass(frozen=True)
class GroebnerResult:
    """Reduced basis or a cap-exceeded marker, plus run statistics."""

    basis: tuple | None
    cap_exceeded: bool
    spairs_processed: int
    max_degree: int


def _s_polynomial(f, g, lcm_mono: int, field: Field):
    """Packed S-polynomial of two ``_element`` triples, from their tails (the
    leads cancel).  Over Q(alpha) both are monic, so no cofactor is needed."""
    (lf, cf, tf), (lg, cg, tg) = f, g
    if field is QQ:
        k = gcd(cf, cg)
        af, ag = cg // k, cf // k
        tf = [(t, af * c) for t, c in tf]
        tg = [(t, ag * c) for t, c in tg]
    shift = lcm_mono - lf
    work = {t + shift: c for t, c in tf}
    shift = lcm_mono - lg
    for t, c in tg:
        t += shift
        acc = work.get(t)
        if acc is None:
            work[t] = -c
        else:
            acc = acc - c
            if acc:
                work[t] = acc
            else:
                del work[t]
    return work


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
    # Every monomial met has degree at most the cap: the S-polynomial of a
    # selected pair has its lcm's degree, and division only lowers monomials.
    field = G[0].field
    packing = Packing(G[0].nvars, degree_cap)
    guard = packing.guard
    basis = [_element(packing.pack_terms(p)[0], field) for p in G]
    leads = [packing.unpack(p[0]) for p in basis]
    heap: list[tuple[int, int, int]] = []

    def add_pairs(k):
        lk = leads[k]
        for t in range(k):
            lt = leads[t]
            if any(map(min, lt, lk)):  # leads not coprime
                heapq.heappush(heap, (sum(map(max, lt, lk)), t, k))

    for k in range(len(basis)):
        add_pairs(k)
    while heap:
        lcmdeg, i, j = heapq.heappop(heap)
        if lcmdeg > degree_cap:
            return GroebnerResult(None, True, spairs, maxdeg)
        spairs += 1
        lcm_mono = packing.pack(tuple(map(max, leads[i], leads[j])))
        h = _reduce(_s_polynomial(basis[i], basis[j], lcm_mono, field), basis, guard, field)[0]
        if not h:
            continue
        hdeg = packing.degree(next(iter(h)))
        if hdeg > degree_cap:
            return GroebnerResult(None, True, spairs, maxdeg)
        maxdeg = max(maxdeg, hdeg)
        basis.append(_element(h, field))
        leads.append(packing.unpack(basis[-1][0]))
        add_pairs(len(basis) - 1)
    G = [packing.to_mpoly(p, field) for p in basis]
    return GroebnerResult(tuple(interreduce(G)), False, spairs, maxdeg)


def contains_one(result: GroebnerResult):
    """True when the reduced basis is {1}; None when the cap was exceeded."""
    if result.cap_exceeded:
        return None
    basis = result.basis
    return len(basis) == 1 and basis[0].degree() == 0
