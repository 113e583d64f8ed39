"""Independent brute-force oracles used by the tests.

These deliberately avoid the library's optimised code paths: identities are
expanded over ALL ordered basis triples straight from the tensors, so they
double-check the unordered-triple reductions inside the package.
"""

from itertools import product as iproduct
from math import inf

from omlie.multipoly import MPoly


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


def random_fraction(rng, den_max=6, num_max=9):
    from fractions import Fraction

    return Fraction(rng.randint(-num_max, num_max), rng.randint(1, den_max))


def _degrevlex_key(m):
    return (sum(m), tuple(-e for e in reversed(m)))


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
                work = work - g.times_term(lc / g.terms[gm], shift)
                break
        else:
            rem[lm] = lc
            work = work._like({m: c for m, c in work.terms.items() if m != lm})
    return f._like(rem)


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
                polys.append(p.shift_by_var(t))
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
    zero = MPoly.zero(field, d)
    out = []
    for r in range(n):
        arow = a[r]
        row = []
        for c in range(n):
            acc = zero
            for k in range(n):
                x = arow[k]
                y = b[k][c]
                if x and y:
                    acc = acc + x * y
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
                    p = comm[r][c] - rev[r][c]
                    acc = -p
                    for m, v in enumerate(br):
                        if v:
                            acc = acc + mats[m][r][c].scale(v)
                    if r == c and wij:
                        acc = acc - MPoly.const(field, d, wij)
                    if acc:
                        out.append(acc)
    return out
