"""Independent brute-force oracles used by the tests.

These deliberately avoid the library's optimised code paths: identities are
expanded over ALL ordered basis triples straight from the tensors, so they
double-check the unordered-triple reductions inside the package.
"""

import heapq
from fractions import Fraction
from itertools import combinations, zip_longest
from itertools import product as iproduct
from math import gcd, inf, lcm
from operator import add, sub

from omlie.admissible import _DEFAULT_CANDIDATES
from omlie.fields import QQ, Poly, _record_inversion, rational_roots
from omlie.linalg import Matrix
from omlie.multipoly import GroebnerResult, MPoly, Packing


def _apply(tensor, u, v):
    n = tensor.dim
    zero = tensor.field.zero
    out = [zero] * n
    for i in range(n):
        if not u[i]:
            continue
        for j in range(n):
            if not v[j]:
                continue
            uv = u[i] * v[j]
            for k in range(n):
                c = tensor.coeffs[i][j][k]
                if c:
                    out[k] = out[k] + uv * c
    return tuple(out)


def _unit(field, n, i):
    return tuple(field.one if j == i else field.zero for j in range(n))


def lie_residuals_bruteforce(L):
    """Residual of the omega-Jacobi identity on every ordered triple."""
    n = L.dim
    field = L.field
    units = [_unit(field, n, i) for i in range(n)]
    br = L.bracket
    bad = []
    for x, y, z in iproduct(range(n), repeat=3):
        lhs = [field.zero] * n
        for (a, b, c) in ((x, y, z), (y, z, x), (z, x, y)):
            t = _apply(br, _apply(br, units[a], units[b]), units[c])
            for m, v in enumerate(t):
                lhs[m] = lhs[m] + v
        lhs[z] = lhs[z] - L.omega.entry(x, y)
        lhs[x] = lhs[x] - L.omega.entry(y, z)
        lhs[y] = lhs[y] - L.omega.entry(z, x)
        if any(lhs):
            bad.append(((x, y, z), tuple(lhs)))
    return bad


def lsa_residuals_bruteforce(A):
    """Residual of the left-symmetric identity on every ordered triple."""
    n = A.dim
    field = A.field
    units = [_unit(field, n, i) for i in range(n)]
    p = A.product
    bad = []
    for x, y, z in iproduct(range(n), repeat=3):
        ex, ey, ez = units[x], units[y], units[z]
        r = list(_apply(p, _apply(p, ex, ey), ez))
        for m, v in enumerate(_apply(p, ex, _apply(p, ey, ez))):
            r[m] = r[m] - v
        for m, v in enumerate(_apply(p, _apply(p, ey, ex), ez)):
            r[m] = r[m] - v
        for m, v in enumerate(_apply(p, ey, _apply(p, ex, ez))):
            r[m] = r[m] + v
        r[z] = r[z] - A.omega.entry(x, y)
        if any(r):
            bad.append(((x, y, z), tuple(r)))
    return bad


def scalar_matrix(field, n, s):
    """s times the n x n identity."""
    s = field.coerce(s)
    return Matrix(field, [[s if r == c else field.zero for c in range(n)] for r in range(n)])


def _matmul(a, b, zero):
    return [[sum((x * y for x, y in zip(row, col)), zero) for col in zip(*b)] for row in a]


def module_identity_reference(A):
    """The operator identity l_[ei,ej] - [l_i, l_j] - w(i,j) id by matrix
    arithmetic on plain lists, as ((i, j), residual rows) for each pair i < j
    where it is nonzero."""
    n, zero, c = A.dim, A.field.zero, A.product.coeffs
    ops = [[[c[i][j][k] for j in range(n)] for k in range(n)] for i in range(n)]
    out = []
    for i, j in combinations(range(n), 2):
        ij, ji = _matmul(ops[i], ops[j], zero), _matmul(ops[j], ops[i], zero)
        w = A.omega.entry(i, j)
        res = tuple(
            tuple(
                sum(((c[i][j][m] - c[j][i][m]) * ops[m][r][s] for m in range(n)), zero)
                - ij[r][s] + ji[r][s] - (w if r == s else zero)
                for s in range(n)
            )
            for r in range(n)
        )
        if any(map(any, res)):
            out.append(((i, j), res))
    return out


def random_fraction(rng, den_max=6, num_max=9):
    return Fraction(rng.randint(-num_max, num_max), rng.randint(1, den_max))


def _degrevlex_key(m):
    return (sum(m), tuple(-e for e in reversed(m)))


# ------------------------------------------------------------ MPoly helpers
# Constructors and evaluation on exponent-tuple MPoly that only tests use.


def zero(field, nvars):
    return MPoly(field, nvars, {})


def const(field, nvars, value):
    return MPoly(field, nvars, {(0,) * nvars: value})


def mp_add(p, q, c=1):
    """p + c*q."""
    out = dict(p.terms)
    for m, v in q.terms.items():
        out[m] = out[m] + c * v if m in out else c * v
    return MPoly(p.field, p.nvars, out)


def monic(p):
    lc = p.terms[p.lead_monomial()]
    if lc == p.field.one:
        return p
    inv = p.field.one / lc
    return MPoly(p.field, p.nvars, {m: c * inv for m, c in p.terms.items()})


def times_term(p, coeff, mono):
    terms = {tuple(map(add, m, mono)): c * coeff for m, c in p.terms.items()}
    return MPoly(p.field, p.nvars, terms)


def shift_by_var(p, index):
    """Multiply by the given variable."""
    out = {}
    for m, c in p.terms.items():
        mm = list(m)
        mm[index] += 1
        out[tuple(mm)] = c
    return MPoly(p.field, p.nvars, out)


def constant_term(p):
    return p.terms.get((0,) * p.nvars, p.field.zero)


def substitute(p, assignment):
    """Partially substitute values for variables; indices keep their slots."""
    if not assignment:
        return p
    out = {}
    for m, c in p.terms.items():
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
    return MPoly(p.field, p.nvars, out)


def evaluate(p, values):
    return constant_term(substitute(p, dict(enumerate(values))))


def _degrevlex_desc_key(m):
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


def s_polynomial(f, g):
    lf, lg = f.lead_monomial(), g.lead_monomial()
    lcm = _mono_lcm(lf, lg)
    one = f.field.one
    tf = times_term(f, one / f.terms[lf], _mono_div(lcm, lf))
    tg = times_term(g, one / g.terms[lg], _mono_div(lcm, lg))
    return mp_add(tf, tg, -1)


# ------------------------------------------------- Buchberger on exponent tuples
# The field-division Buchberger the package used before packed monomials,
# kept as the reference: exponent-tuple monomials, Fraction or RatFunc
# coefficients, divisors as (lead, lead coefficient, terms) triples.


def _divisor(g):
    """The (lead monomial, lead coefficient, terms) triple division reads."""
    gm = g.lead_monomial()
    return gm, g.terms[gm], g.terms


def _reduce_reference(f, divisors):
    """Division remainder over divisors given as ``_divisor`` triples, in order."""
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
    return MPoly(f.field, f.nvars, rem)


def interreduce_reference(polys):
    """Auto-reduce to a set with monic leads where no lead divides another term."""
    polys = [monic(p) for p in polys if p]
    changed = True
    while changed:
        changed = False
        out = []
        for i, p in enumerate(polys):
            others = out + polys[i + 1 :]
            r = _reduce_reference(p, [_divisor(g) for g in others if g]) if others else p
            if r:
                r = monic(r)
                if r != p:
                    changed = True
                out.append(r)
            else:
                changed = True
        polys = out
    return sorted(polys, key=lambda p: _degrevlex_desc_key(p.lead_monomial()))


def buchberger_reference(gens, degree_cap=6):
    """Reduced Groebner basis of the ideal, or cap_exceeded, with the same pair
    queue, divisor order, normal selection, coprime skip and cap checks as
    ``omlie.multipoly.buchberger``."""
    G = interreduce_reference(gens)
    spairs = 0
    maxdeg = max((p.degree() for p in G), default=0)
    if not G:
        return GroebnerResult((), False, spairs, maxdeg)
    if maxdeg > degree_cap:
        return GroebnerResult(None, True, spairs, maxdeg)
    divisors = [_divisor(p) for p in G]
    heap = []

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
        h = _reduce_reference(s_polynomial(G[i], G[j]), divisors)
        if not h:
            continue
        if h.degree() > degree_cap:
            return GroebnerResult(None, True, spairs, maxdeg)
        h = monic(h)
        maxdeg = max(maxdeg, h.degree())
        G.append(h)
        divisors.append(_divisor(h))
        add_pairs(len(G) - 1)
    return GroebnerResult(tuple(interreduce_reference(G)), False, spairs, maxdeg)


def normal_form_reference(f, basis):
    """Division remainder by the plain loop: find the largest monomial left
    by a full scan under a separately written degrevlex key, reduce it by the
    first divisor in list order whose lead divides it, and rebuild the working
    polynomial after each step."""
    rem = {}
    work = f
    while work:
        lm = max(work.terms, key=_degrevlex_key)
        lc = work.terms[lm]
        for g in basis:
            if not g:
                continue
            gm = max(g.terms, key=_degrevlex_key)
            if all(x <= y for x, y in zip(gm, lm)):
                shift = tuple(x - y for x, y in zip(lm, gm))
                work = mp_add(work, times_term(g, lc / g.terms[gm], shift), -1)
                break
        else:
            rem[lm] = lc
            work = MPoly(f.field, f.nvars, {m: c for m, c in work.terms.items() if m != lm})
    return MPoly(f.field, f.nvars, rem)


def eliminate_reference(field, rows):
    """Gauss-Jordan elimination of sparse ``{column: entry}`` rows by the plain
    loop: each pivot column is the smallest lead left, the pivot the first
    remaining row holding it, swapped into place, and every row is probed for
    the pivot column.  Returns (reduced nonzero rows, pivot columns)."""
    one = field.one
    rows = [{c: v for c, v in row.items() if v} for row in rows]
    lead = [min(row, default=inf) for row in rows]
    pivots = []
    for pr in range(len(rows)):
        pc = min(lead[pr:])
        if pc == inf:
            break
        pivot = lead.index(pc, pr)
        rows[pr], rows[pivot] = rows[pivot], rows[pr]
        lead[pr], lead[pivot] = lead[pivot], lead[pr]
        prow = rows[pr]
        pv = prow[pc]
        if pv != one:
            inv = one / pv
            for c in prow:
                prow[c] = prow[c] * inv
        for r, row in enumerate(rows):
            f = row.get(pc) if r != pr else None
            if f is None:
                continue
            for c, v in prow.items():
                x = row[c] - f * v if c in row else -(f * v)
                if x:
                    row[c] = x
                else:
                    del row[c]
            if r > pr:
                lead[r] = min(row, default=inf)
        pivots.append(pc)
    return rows[: len(pivots)], pivots


def primitive_rows(rows):
    """The primitive integer associate of each sparse row of rationals (or
    ints): the row times the lcm of its denominators, divided by the gcd of
    the products.  Zero entries are dropped."""
    out = []
    for row in rows:
        m = lcm(*(v.denominator for v in row.values()))
        ints = {c: v.numerator * (m // v.denominator) for c, v in row.items() if v}
        g = gcd(*ints.values())
        out.append({c: v // g for c, v in ints.items()} if g > 1 else ints)
    return out


def harvest_reference(residuals, d, field, with_products):
    """The linear-consequence harvest by the plain loop: every residual and,
    with products, every residual times every variable, eliminated whole by
    :func:`eliminate_reference` over the columns degree >= 2 monomials
    (descending degrevlex), parameters, constant.  Returns the rows whose pivot
    is a parameter or the constant, as sparse rows on the parameters with the
    right-hand side at column d."""
    polys = list(residuals)
    if with_products:
        for p in residuals:
            for t in range(d):
                polys.append(shift_by_var(p, t))
    high = sorted(
        {m for p in polys for m in p.terms if sum(m) >= 2}, key=_degrevlex_key, reverse=True
    )
    nhigh = len(high)
    col_of = {m: idx for idx, m in enumerate(high)}
    for t in range(d + 1):  # the parameters' columns, then the constant's at nhigh + d
        col_of[tuple(int(j == t) for j in range(d))] = nhigh + t
    rows, pivots = eliminate_reference(
        field, [{col_of[m]: c for m, c in p.terms.items()} for p in polys]
    )
    rows = [row for row, pc in zip(rows, pivots) if pc >= nhigh]
    # Shift to parameter columns; the constant column becomes the right-hand side.
    return [{c - nhigh: -v if c == nhigh + d else v for c, v in row.items()} for row in rows]


def branch_candidates_reference(residuals, field):
    """The search's branching choice on MPoly residuals, as the decider made
    it before the search ran on packed monomials: the first residual with one
    variable in its support pins that variable to its rational roots, by
    absolute value, positive first; otherwise parameter 0 over the default
    candidates."""
    if field is QQ:
        for p in residuals:
            support = {i for m in p.terms for i, e in enumerate(m) if e}
            if len(support) == 1:
                (var,) = support
                coeffs = {m[var]: c for m, c in p.terms.items()}
                poly = Poly([coeffs.get(k, Fraction(0)) for k in range(max(coeffs) + 1)])
                return var, sorted(rational_roots(poly), key=lambda r: (abs(r), r < 0))
    return 0, list(_DEFAULT_CANDIDATES)


def _var(n, i, r, c):
    return (i * n + r) * n + c


def _symbolic_operators(L, space):
    """The unknown matrices as affine polynomials in the space's parameters."""
    n = L.dim
    field = L.field
    d = space.dim
    const_mono = (0,) * d
    unit_monos = []
    for t in range(d):
        m = [0] * d
        m[t] = 1
        unit_monos.append(tuple(m))
    mats = []
    for i in range(n):
        rows = []
        for r in range(n):
            row = []
            for c in range(n):
                v = _var(n, i, r, c)
                terms = {}
                o = space.origin[v]
                if o:
                    terms[const_mono] = o
                for t in range(d):
                    b = space.basis[t].get(v)
                    if b:
                        terms[unit_monos[t]] = b
                row.append(MPoly(field, d, terms))
            rows.append(row)
        mats.append(rows)
    return mats


def _mpoly_matmul(a, b, field, d):
    n = len(a)
    out = []
    for r in range(n):
        row = []
        for c in range(n):
            acc = zero(field, d)
            for k in range(n):
                for m, v in b[k][c].terms.items():
                    acc = mp_add(acc, times_term(a[r][k], v, m))
            row.append(acc)
        out.append(row)
    return out


def residuals_reference(L, space):
    """Residuals of l_[ei,ej] - [l_i, l_j] - w(i,j) id on the space as MPoly,
    by symbolic matrix products of the operators' entries: pairs (i < j),
    then entries row-major, identically-zero entries dropped."""
    n = L.dim
    field = L.field
    d = space.dim
    mats = _symbolic_operators(L, space)
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            br = L.bracket.pair(i, j)
            comm = _mpoly_matmul(mats[i], mats[j], field, d)
            rev = _mpoly_matmul(mats[j], mats[i], field, d)
            wij = L.omega.entry(i, j)
            for r in range(n):
                for c in range(n):
                    acc = mp_add(rev[r][c], comm[r][c], -1)
                    for m, v in enumerate(br):
                        if v:
                            acc = mp_add(acc, mats[m][r][c], v)
                    if r == c and wij:
                        acc = mp_add(acc, const(field, d, wij), -1)
                    if acc:
                        out.append(acc)
    return out


def keyed_residuals_reference(L, space):
    """:func:`residuals_reference` in the format the decider builds: each
    residual a dict on the packed monomials of ``Packing(d, 3)``, and over Q
    its primitive integer associate."""
    pack = Packing(space.dim, 3).pack
    rows = [{pack(m): c for m, c in p.terms.items()} for p in residuals_reference(L, space)]
    return primitive_rows(rows) if L.field is QQ else rows


# ------------------------------------------------------- Q(alpha) on Fractions
# The field arithmetic the package used before integer polynomials, kept as
# the reference: Poly with Fraction coefficients, Euclid's gcd, a quotient
# reduced by it and scaled to a monic denominator.


def poly_add(p, q, c=1):
    """p + c*q."""
    return Poly([x + c * y for x, y in zip_longest(p.coeffs, q.coeffs, fillvalue=0)])


def poly_mul(p, q):
    out = [Fraction(0)] * (len(p.coeffs) + len(q.coeffs))
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return Poly(out)


def poly_divmod_reference(p, q):
    """Quotient and remainder of Poly division over Q."""
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p.coeffs)
    dq = len(rem) - len(q.coeffs)
    if dq < 0:
        return Poly(), Poly(rem)
    quo = [Fraction(0)] * (dq + 1)
    qlc = q.lc()
    for top in range(len(rem) - 1, len(q.coeffs) - 2, -1):
        c = rem[top]
        if not c:
            continue
        f = c / qlc
        quo[top - q.degree] = f
        for k, oc in enumerate(q.coeffs):
            rem[top - q.degree + k] -= f * oc
    return Poly(quo), Poly(rem)


def poly_gcd_reference(p, q):
    """Monic gcd via the Euclidean algorithm; gcd(0, 0) = 0."""
    a, b = p, q
    while b:
        a, b = b, poly_divmod_reference(a, b)[1]
    return a.monic()


_POLY_ONE = Poly((1,))


def _ref_poly(v):
    if isinstance(v, Poly):
        return v
    if isinstance(v, (int, Fraction)):
        return Poly((v,))
    return None


class RatFuncReference:
    """Element of Q(alpha): reduced num/den with ``den`` monic and nonzero."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=_POLY_ONE):
        num = _ref_poly(num)
        den = _ref_poly(den)
        if num is None or den is None:
            raise TypeError("RatFunc expects polynomial or rational arguments")
        if not den:
            raise ZeroDivisionError("zero denominator in Q(alpha)")
        if den.coeffs == _POLY_ONE.coeffs:
            self.num, self.den = num, _POLY_ONE
            return
        if not num:
            self.num, self.den = Poly(), _POLY_ONE
            return
        g = poly_gcd_reference(num, den)
        if g.degree >= 1:
            num = poly_divmod_reference(num, g)[0]
            den = poly_divmod_reference(den, g)[0]
        lc = den.lc()
        if lc != 1:
            num = Poly([c / lc for c in num.coeffs])
            den = Poly([c / lc for c in den.coeffs])
        self.num, self.den = num, den

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        other = _as_ratfunc_reference(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num.coeffs, self.den.coeffs))

    def __add__(self, other):
        other = _as_ratfunc_reference(other)
        if other is None:
            return NotImplemented
        if self.den is _POLY_ONE and other.den is _POLY_ONE:
            return RatFuncReference(poly_add(self.num, other.num))
        return RatFuncReference(
            poly_add(poly_mul(self.num, other.den), poly_mul(other.num, self.den)),
            poly_mul(self.den, other.den),
        )

    __radd__ = __add__

    def __neg__(self):
        out = RatFuncReference.__new__(RatFuncReference)
        out.num, out.den = poly_add(Poly(), self.num, -1), self.den
        return out

    def __sub__(self, other):
        other = _as_ratfunc_reference(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_ratfunc_reference(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _as_ratfunc_reference(other)
        if other is None:
            return NotImplemented
        if self.den is _POLY_ONE and other.den is _POLY_ONE:
            return RatFuncReference(poly_mul(self.num, other.num))
        return RatFuncReference(poly_mul(self.num, other.num), poly_mul(self.den, other.den))

    __rmul__ = __mul__

    def inverse(self):
        if not self.num:
            raise ZeroDivisionError("inverting zero in Q(alpha)")
        _record_inversion(self.num)
        return RatFuncReference(self.den, self.num)

    def __truediv__(self, other):
        other = _as_ratfunc_reference(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _as_ratfunc_reference(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        num = den = _POLY_ONE
        for _ in range(n):
            num, den = poly_mul(num, self.num), poly_mul(den, self.den)
        return RatFuncReference(num, den)

    def is_constant(self):
        return self.num.degree <= 0 and self.den.degree <= 0

    def as_fraction(self):
        if self.num.degree > 0 or self.den.degree > 0:
            raise ValueError(f"{self!r} is not a constant")
        if not self.num:
            return Fraction(0)
        return self.num.coeffs[0] / self.den.coeffs[0]

    def evaluate(self, x):
        d = self.den.evaluate(x)
        if not d:
            raise ZeroDivisionError(f"denominator vanishes at alpha = {x}")
        return self.num.evaluate(x) / d


def _as_ratfunc_reference(v):
    if isinstance(v, RatFuncReference):
        return v
    p = _ref_poly(v)
    return None if p is None else RatFuncReference(p)
