"""Decide whether an omega-Lie algebra carries a compatible left-symmetric product.

The unknowns are the n left-multiplication matrices of the would-be product,
flattened to n^3 coordinates.  The decision pipeline is

  1. linear stage: consequences of the module identity substituted into the
     matrix Jacobi identity (one matrix equation per basis triple), plus, in
     full mode, the compatibility equations forcing the product's commutator
     to reproduce the given bracket;
  2. propagation loop: the module-identity residuals on the current affine
     solution space are degree <= 2 polynomials in its free parameters,
     built straight from the space's nonzero affine coordinate forms as
     dicts on ``multipoly``'s packed monomials, whose ascending order is the
     elimination's column order (over Q on ints at one common scale, each
     residual divided by its content into the primitive integer row the
     harvest eliminates; over Q(alpha) on field elements); all degree <= 1
     members of their span are intersected back until a fixed point.  When
     the span holds none and there are at most ``PRODUCTS_DIM_LIMIT``
     parameters, it is enlarged by the multiples of the residuals by each
     parameter, taken as the multiples of the echelon rows the same
     elimination left (same span, fewer rows), with the rows that alone
     hold a degree >= 2 monomial left out (no degree <= 1 member can use
     them).  Over Q both eliminations are
     fraction-free on primitive integer rows, and only the degree <= 1 rows
     they keep become ``Fraction``s; over Q(alpha) they run in the field,
     whose inversions are the denominator trail;
  3. endgame for the strictly quadratic leftovers: a budgeted search for a
     rational point (pin a parameter, re-propagate, recurse) settles the
     satisfiable cases constructively; whatever it cannot settle goes to a
     degree-capped Buchberger run, where a basis containing 1 certifies
     infeasibility over the algebraic closure and any other basis certifies
     that solutions exist there.  The leftovers become ``MPoly`` only for
     that run.

Every step is deterministic, so certificates are byte-for-byte reproducible.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .algebra import (
    OmegaLieAlgebra,
    OmegaLsaAlgebra,
    StructureTensor,
    check_omega_lie,
    check_omega_lsa,
)
from .errors import AxiomCheckError
from .fields import QQ, rational_roots
from .linalg import (
    AffineSpace,
    Matrix,
    eliminate,
    intersect,
    solve_affine,
    unit_rows,
)
from .multipoly import GroebnerResult, MPoly, Packing, buchberger, contains_one

FULL = "full"
MODULE_ONLY = "module_only"

# Ceiling on the parameter count for the variable-multiple enlargement of the
# consequence search; beyond it only plain residual combinations are used.
PRODUCTS_DIM_LIMIT = 24

ADMISSIBLE = "ADMISSIBLE"
INADMISSIBLE = "INADMISSIBLE"
UNKNOWN = "UNKNOWN"


def _normalize_mode(mode: str) -> str:
    mode = mode.replace("-", "_")
    if mode not in (FULL, MODULE_ONLY):
        raise ValueError(f"unknown decider mode {mode!r}")
    return mode


def _var(n: int, i: int, r: int, c: int) -> int:
    """Flat index of entry (r, c) of the i-th unknown matrix."""
    return (i * n + r) * n + c


def compatibility_constraints(L: OmegaLieAlgebra) -> list[dict]:
    """Sparse rows over the n^3 coordinates, right-hand side at column n^3:
    M_i e_j - M_j e_i = [e_i, e_j] for all pairs i < j."""
    n = L.dim
    one = L.field.one
    N = n * n * n
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                row = {_var(n, i, k, j): one, _var(n, j, k, i): -one}
                rhs = L.bracket.entry(i, j, k)
                if rhs:
                    row[N] = rhs
                rows.append(row)
    return rows


def jacobi_consequence_constraints(L: OmegaLieAlgebra) -> list[dict]:
    """Per basis triple: the matrix equation l_w = s * id, as sparse rows over
    the n^3 coordinates with the right-hand side at column n^3.

    Substituting the module identity into the Jacobi identity of the unknown
    operators turns each triple (i, j, k) into a linear constraint with
    w = w(i,j) e_k + w(j,k) e_i + w(k,i) e_j and
    s = w([e_i,e_j], e_k) + w([e_j,e_k], e_i) + w([e_k,e_i], e_j).
    """
    n = L.dim
    field = L.field
    zero = field.zero
    N = n * n * n
    units = [
        tuple(field.one if m == t else zero for m in range(n)) for t in range(n)
    ]
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                w = [zero] * n
                w[k] = w[k] + L.omega.entry(i, j)
                w[i] = w[i] + L.omega.entry(j, k)
                w[j] = w[j] + L.omega.entry(k, i)
                s = (
                    L.omega.apply(L.bracket.pair(i, j), units[k])
                    + L.omega.apply(L.bracket.pair(j, k), units[i])
                    + L.omega.apply(L.bracket.pair(k, i), units[j])
                )
                if not any(w) and not s:
                    continue
                for r in range(n):
                    for c in range(n):
                        row = {_var(n, m, r, c): wm for m, wm in enumerate(w) if wm}
                        if r == c and s:
                            row[N] = s
                        rows.append(row)
    return rows


def module_identity_residuals(L: OmegaLieAlgebra, space: AffineSpace) -> list[dict]:
    """Residuals of l_[ei,ej] - [l_i, l_j] - w(i,j) id on the space.

    Each residual is a polynomial of degree <= 2 in the space's d free
    parameters, given as a dict ``{monomial: nonzero coefficient}`` on the
    monomials of ``Packing(d, 3)``, so ascending keys are descending degrevlex,
    the harvest's column order (see :func:`_harvest_linear`).  Over Q the
    coefficients are ints: each residual is its primitive integer associate
    (content 1, the same signs), the row the harvest eliminates.
    Identically-zero entries are dropped.  Ordering is pairs (i < j) then
    entries row-major, so the system is deterministic.

    Each ambient coordinate is an affine form in the parameters, read off the
    sparse basis rows and the origin's nonzero entries.  Row r of
    X_j X_i - X_i X_j is built by walking only the nonzero forms X[r][k] and,
    for each, only the nonzero forms of row k, so the work is the products
    made, not n^5 loop steps.  Over Q that loop runs on ints: the forms are
    scaled by D, the lcm of the space's denominators, and the bracket and
    omega entries by E, the lcm of theirs, every term is accumulated at
    D*D*E, and each residual is divided by the gcd of its coefficients.
    Over Q(alpha) the same loop runs on field elements at scale 1.
    """
    n = L.dim
    d = space.dim
    unit = Packing(d, 3).units()
    one_key = unit[d]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    brackets = [[(m, v) for m, v in enumerate(L.bracket.pair(i, j)) if v] for i, j in pairs]
    omegas = [L.omega.entry(i, j) for i, j in pairs]
    # The affine form of each ambient coordinate: (packed x_t, entry) pairs,
    # with the packed 1 for the origin's entry.
    forms = [[] for _ in range(n**3)]
    for t, row in enumerate(space.basis):
        x = unit[t]
        for v, b in row.items():
            forms[v].append((x, b))
    for v, o in enumerate(space.origin):
        if o:
            forms[v].append((one_key, o))
    integral = L.field is QQ
    if integral:
        D = lcm(*(b.denominator for f in forms for _, b in f))
        E = lcm(*(v.denominator for br in brackets for _, v in br), *(w.denominator for w in omegas))

        def lift(v, s):  # v * s as an int; s is a multiple of v's denominator
            return v.numerator * (s // v.denominator)

    else:
        D = E = 1

        def lift(v, s):
            return v

    # Row r of each matrix as its nonzero (column, form) pairs: at D as a
    # right factor, at D*E as a left factor, tagged 0 when negated (the left
    # factor of X_i X_j) and 1 when not (of X_j X_i).
    right = [[[] for _ in range(n)] for _ in range(n)]
    left = [[[] for _ in range(n)] for _ in range(n)]
    neg = [[[] for _ in range(n)] for _ in range(n)]
    for v, f in enumerate(forms):
        if f:
            i, rc = divmod(v, n * n)
            r, c = divmod(rc, n)
            f = [(p, lift(a, D)) for p, a in f]
            right[i][r].append((c, f))
            if E != 1:
                f = [(p, a * E) for p, a in f]
            left[i][r].append((c, 1, f))
            neg[i][r].append((c, 0, [(p, -a) for p, a in f]))
    out = []
    for (i, j), br, w in zip(pairs, brackets, omegas):
        br = [(m, lift(v, D * E)) for m, v in br]
        w = lift(w, D * D * E)
        for r in range(n):
            accs = [{} for _ in range(n)]  # row r, one dict per column
            # -(X_i X_j)[r] + (X_j X_i)[r], summed by k, X_i X_j's term first
            # ((k, tag) is unique, so sorting never compares the forms).
            for k, tag, x in sorted(neg[i][r] + left[j][r]):
                y = right[i][k] if tag else right[j][k]
                for p, a in x:
                    for c, f in y:
                        acc = accs[c]
                        for q, b in f:
                            key = p + q
                            ab = a * b
                            acc[key] = acc[key] + ab if key in acc else ab
            for m, v in br:
                for c, f in right[m][r]:
                    acc = accs[c]
                    for key, a in f:
                        acc[key] = acc[key] + v * a if key in acc else v * a
            if w:
                acc = accs[r]
                acc[one_key] = acc[one_key] - w if one_key in acc else -w
            for acc in accs:
                residual = {key: v for key, v in acc.items() if v}
                if residual:
                    g = gcd(*residual.values()) if integral else 1
                    out.append({key: v // g for key, v in residual.items()} if g > 1 else residual)
    return out


def _drop_lone_rows(rows, nhigh):
    """Drop every row that alone holds some column below ``nhigh``, then do so
    again on the rows left, until none is dropped: a combination with no entry
    below ``nhigh`` cannot use such a row."""
    while True:
        count = Counter(c for row in rows for c in row if c < nhigh)
        kept = [row for row in rows if all(count[c] > 1 for c in row if c < nhigh)]
        if len(kept) == len(rows):
            return rows
        rows = kept


def _harvest_linear(residuals, d, field, with_products):
    """All degree <= 1 rows in the span of the residuals, as sparse linear
    equations on the parameters with the right-hand side at column d: the
    rows of the RREF whose pivot is not a monomial of degree >= 2.  Returns
    (rows, whether the multiples were used).

    The residuals are keyed as in :func:`module_identity_residuals`, and the
    keys are the columns.  Ascending packed monomials are descending
    degrevlex (see :mod:`omlie.multipoly`): degree 3, then degree 2, then
    x_0 .. x_{d-1}, then 1.  So the elimination pivots on the degree >= 2
    monomials first and never needs the keys sorted, and a row of the RREF is
    degree <= 1 iff its pivot is at least the packed x_0.

    The residuals are eliminated once.  With ``with_products`` and no
    degree <= 1 row in the plain span, the span is enlarged by the multiples
    of the residuals by each parameter, taken as the multiples of the
    echelon rows that elimination set aside: they span what the residuals
    span, so their multiples span the same space, and the degree <= 1 rows
    are the same.  Multiplying by x_u adds its packed monomial to every key.
    Then every row that alone holds some degree >= 2 monomial is dropped,
    over and over until none is left: a combination free of degree >= 2
    terms cannot use such a row, so the harvest stays the same.  A
    degree <= 1 column never drops a row, since those entries are what the
    harvest keeps.

    Over Q the residuals arrive as primitive integer rows, both
    eliminations run fraction-free on them, and only the degree <= 1 rows
    are divided by their pivot entries into ``Fraction``s
    (:func:`omlie.linalg.unit_rows`).
    Every integer row is a nonzero multiple of the row the ``Fraction``
    kernel would hold, so the pivots, the dropped rows and the result are
    the same; most harvests find no row, and then no ``Fraction`` is made.
    Over Q(alpha) both run in the field: its pivot inversions are the
    denominator trail that ``--sample`` reads.
    """
    unit = Packing(d, 3).units()
    lin, one_key = unit[0], unit[d]
    ring = None if field is QQ else field  # None: fraction-free on integer rows
    rows, pivots = eliminate(ring, residuals, lin)
    used_products = with_products and (not pivots or pivots[-1] < lin)
    if used_products:
        params = unit[:d]
        rows += [{c + x: v for c, v in row.items()} for row in rows for x in params]
        rows, pivots = eliminate(ring, _drop_lone_rows(rows, lin), lin)
    first = bisect_left(pivots, lin)
    linear = rows[first:]
    if ring is None:
        linear = unit_rows(linear, pivots[first:])
    # Packed monomials to parameter columns; the constant becomes the
    # right-hand side.
    param = {x: t for t, x in enumerate(unit)}
    return [
        {param[c]: -v if c == one_key else v for c, v in row.items()} for row in linear
    ], used_products


def _as_mpolys(residuals, d, field):
    """Keyed residuals as MPoly, for Buchberger."""
    unpack = Packing(d, 3).unpack
    return [MPoly(field, d, {unpack(m): v for m, v in p.items()}) for p in residuals]


@dataclass
class PropagationResult:
    """The final space, the leftover residuals keyed as in
    :func:`module_identity_residuals` on its parameters, and the stage trace."""

    space: AffineSpace
    residuals: list
    trace: list


def _consequence_fixed_point(L, space, trace=None):
    """Iterate residual computation and linear-consequence intersection.

    Returns (space, residuals) where residuals is empty when the space became
    infeasible or satisfies the identities outright; otherwise it holds the
    strictly quadratic leftovers at the fixed point, keyed as in
    :func:`module_identity_residuals` on the returned space's parameters.
    """
    field = L.field
    iteration = 0
    residuals: list[dict] = []
    while space.feasible:
        residuals = module_identity_residuals(L, space)
        if not residuals:
            break
        rows, used_products = _harvest_linear(
            residuals, space.dim, field, 0 < space.dim <= PRODUCTS_DIM_LIMIT
        )
        if not rows:
            break
        space = space.restrict(rows)
        iteration += 1
        if trace is not None:
            trace.append(
                {
                    "stage": "linear_consequences",
                    "iteration": iteration,
                    "new_forms": len(rows),
                    "used_products": used_products,
                    "dim": space.dim,
                }
            )
        residuals = []
    return space, residuals


def propagate(L: OmegaLieAlgebra, mode: str = FULL) -> PropagationResult:
    """Run the linear stages and the consequence loop to a fixed point.

    Returns the final affine space over the n^3 matrix coordinates, the
    residual polynomials that remain (empty when the space either collapsed,
    became infeasible, or satisfies the identities outright) and the stage
    trace with solution-space dimensions.
    """
    mode = _normalize_mode(mode)
    trace: list[dict] = []
    space = solve_affine(L.field, jacobi_consequence_constraints(L), L.dim**3)
    trace.append({"stage": "jacobi_consequences", "dim": space.dim})
    if mode == FULL and space.feasible:
        space = intersect(space, compatibility_constraints(L))
        trace.append({"stage": "commutator_compatibility", "dim": space.dim})
    space, residuals = _consequence_fixed_point(L, space, trace)
    final = {"stage": "fixed_point", "dim": space.dim, "quadratic_residuals": len(residuals)}
    if space.is_point:
        final["operators"] = operator_summaries(L, space.origin)
    trace.append(final)
    return PropagationResult(space, residuals, trace)


def product_tensor_at(L: OmegaLieAlgebra, point) -> StructureTensor:
    """Read the product tensor off a point of the solution space."""
    n = L.dim
    return StructureTensor(
        L.field,
        [
            [[point[_var(n, i, k, j)] for k in range(n)] for j in range(n)]
            for i in range(n)
        ],
    )


def operator_matrices(L: OmegaLieAlgebra, point) -> list[Matrix]:
    n = L.dim
    return [
        Matrix(L.field, [[point[_var(n, i, r, c)] for c in range(n)] for r in range(n)])
        for i in range(n)
    ]


def operator_summaries(L: OmegaLieAlgebra, point) -> dict:
    """Human-readable pinned operator values, keyed by basis name."""
    out = {}
    for name, M in zip(L.basis_names, operator_matrices(L, point)):
        s = M.scalar_identity_multiple()
        if s is not None:
            if not s:
                out[name] = "0"
            elif s == L.field.one:
                out[name] = "id"
            else:
                out[name] = f"({L.field.format(s)})*id"
        else:
            out[name] = [[L.field.format(v) for v in row] for row in M.rows]
    return out


def verify_witness(L: OmegaLieAlgebra, product: StructureTensor) -> bool:
    """True iff the product satisfies the left-symmetric identity with L's
    omega and its commutator reproduces L's bracket exactly."""
    if product.dim != L.dim:
        return False
    candidate = OmegaLsaAlgebra(L.field, L.basis_names, product, L.omega)
    if not check_omega_lsa(candidate).ok:
        return False
    return product.antisymmetrized() == L.bracket


_DEFAULT_CANDIDATES = (
    Fraction(0),
    Fraction(1),
    Fraction(-1),
    Fraction(2),
    Fraction(-2),
    Fraction(1, 2),
)


def _branch_candidates(residuals, d, field):
    """Pick the parameter to pin next and the values to try.

    A residual that became univariate pins its variable to the exact rational
    roots; otherwise the first parameter is tried over a small default list.
    """
    if field is QQ:
        packing = Packing(d, 3)
        for p in residuals:
            support = packing.support(p)
            if len(support) == 1:
                (var,) = support
                coeffs = {packing.degree(m): c for m, c in p.items()}
                roots = rational_roots(tuple([coeffs.get(k, 0) for k in range(max(coeffs) + 1)]))
                return var, sorted(roots, key=lambda r: (abs(r), r < 0))
    return 0, list(_DEFAULT_CANDIDATES)


def _find_rational_point(L, prop: PropagationResult, budget: int):
    """Best-effort rational solution of the leftover quadratic system.

    Depth-first search: pin one free parameter to a candidate value, rerun the
    linear-consequence propagation on the restricted space and recurse.  Each
    pin strictly shrinks the space, and infeasible branches are cut by the
    propagation itself, so the search is small in practice.
    """
    field = L.field
    state = [budget]

    def search(space, residuals):
        if not space.feasible:
            return None
        if not residuals:
            return space.origin
        if state[0] <= 0:
            return None
        state[0] -= 1
        var, cands = _branch_candidates(residuals, space.dim, field)
        for val in cands:
            sub = space.restrict([{var: field.one, space.dim: field.coerce(val)}])
            sub, res = _consequence_fixed_point(L, sub)
            out = search(sub, res)
            if out is not None:
                return out
        return None

    return search(prop.space, prop.residuals)


@dataclass
class AdmissibilityReport:
    """Decision outcome with a reproducible certificate trace; ``groebner`` is
    the Buchberger run behind the verdict, or None when Buchberger did not run."""

    verdict: str
    witness: StructureTensor | None
    certificate: list
    settings: dict
    annotations: list
    groebner: GroebnerResult | None

    def stage_dims(self) -> list[int]:
        return [st["dim"] for st in self.certificate if "dim" in st]


def decide_admissible(
    L: OmegaLieAlgebra,
    degree_cap: int = 6,
    mode: str = FULL,
    witness_search_budget: int = 400,
) -> AdmissibilityReport:
    """Decide existence of a compatible product, with certificate.

    INADMISSIBLE certificates end in an infeasible linear stage or a Groebner
    basis containing 1; ADMISSIBLE reports carry a verified witness whenever a
    rational point was found.  UNKNOWN is returned only when the degree cap
    was hit.  ``witness_search_budget`` bounds the guided point search that
    runs before the Groebner gate (0 disables it).
    """
    mode = _normalize_mode(mode)
    precheck = check_omega_lie(L)
    if not precheck.ok:
        raise AxiomCheckError(
            "input is not an omega-Lie algebra: " + precheck.describe(L.basis_names),
            precheck,
        )
    prop = propagate(L, mode)
    settings = {"mode": mode, "degree_cap": degree_cap}
    annotations: list[str] = []
    cert = list(prop.trace)

    def report(verdict, witness, reason, groebner=None):
        if verdict == ADMISSIBLE and mode == MODULE_ONLY:
            annotations.append(
                "module-only mode decides the operator identities; no product witness is implied"
            )
        cert.append({"stage": "conclusion", "verdict": verdict, "reason": reason})
        return AdmissibilityReport(verdict, witness, cert, settings, annotations, groebner)

    def solved(point, module_reason, witness_reason):
        if mode == MODULE_ONLY:
            return report(ADMISSIBLE, None, module_reason)
        witness = product_tensor_at(L, point)
        if not verify_witness(L, witness):
            raise AssertionError("internal error: witness failed re-verification")
        return report(ADMISSIBLE, witness, witness_reason)

    if not prop.space.feasible:
        return report(INADMISSIBLE, None, "linear stage infeasible")
    if not prop.residuals:
        return solved(
            prop.space.origin,
            "operator system solvable",
            "witness read off the solution-space origin",
        )
    point = _find_rational_point(L, prop, budget=witness_search_budget)
    cert.append({"stage": "witness_search", "found": point is not None})
    if point is not None:
        return solved(
            point,
            "rational solution of the operator system found",
            "rational witness found by guided search",
        )
    gens = _as_mpolys(prop.residuals, prop.space.dim, L.field)
    gres = buchberger(gens, degree_cap=degree_cap)
    stage = {
        "stage": "groebner",
        "order": "degrevlex",
        "generators": len(prop.residuals),
        "spairs": gres.spairs_processed,
        "max_degree": gres.max_degree,
        "cap_exceeded": gres.cap_exceeded,
    }
    if not gres.cap_exceeded:
        stage["basis_size"] = len(gres.basis)
        stage["contains_one"] = contains_one(gres)
    cert.append(stage)
    if gres.cap_exceeded:
        return report(UNKNOWN, None, f"degree cap {degree_cap} exceeded", gres)
    if contains_one(gres):
        return report(INADMISSIBLE, None, "1 lies in the residual ideal", gres)
    if mode == FULL:
        annotations.append("solutions exist over the algebraic closure; no rational witness found")
    return report(ADMISSIBLE, None, "residual system solvable over the closure", gres)
