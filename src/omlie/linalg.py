"""Exact linear algebra over either scalar field.

Linear systems have one format: a list of sparse rows ``{column: entry}`` over
n unknowns, with the right-hand side at column n; entries are field elements
and zeros may be left out.  :func:`solve_affine`, :func:`intersect` and
:meth:`AffineSpace.restrict` take it, and :class:`AffineSpace` keeps its basis
in it.  Every elimination is
:func:`eliminate`: Gauss-Jordan on such rows, pivoting left to right on the
first remaining row (exact arithmetic needs no magnitude pivoting).  It keeps
an index from each column to the rows holding it, so a pivot touches only the
rows it reduces; with ``keep_from`` it never back-substitutes into the rows
whose pivot lies before that column, and returns those forward-reduced
only.  The same loop runs fraction-free on integer rows (no field).  The
admissibility decider's linear-consequence harvest over Q uses it: its
residuals are built as primitive integer rows, it eliminates those, and it
reads only the rows it keeps back as ``Fraction``s with :func:`unit_rows`.
It eliminates hundreds of rows and keeps few or none, so int updates with
content removal cost less there than a ``Fraction`` per entry.  The linear
stage stays on the field kernel: its constraint rows are sparse with entries
+-1, where the integer kernel measured slower.  So does Q(alpha), whose pivot
inversions are the denominator trail.
The dense :class:`Matrix` holds the n x n operators: it compares,
applies itself to a vector and recognises a multiple of the identity, with no
matrix arithmetic; ``rref`` and ``invert`` (behind ``algebra.basis_change``)
are its views of the same routine.  Affine spaces are kept in a canonical
form (basis rows in RREF, origin reduced against them) so that equal solution
sets compare equal syntactically; the propagation loop in the admissibility
decider relies on that for fixed-point detection.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf

from .fields import Field


class Matrix:
    """Immutable dense matrix with entries in one field."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field: Field, rows, ncols: int | None = None):
        self.field = field
        coerced = tuple(tuple(field.coerce(v) for v in row) for row in rows)
        self.rows = coerced
        self.nrows = len(coerced)
        if coerced:
            widths = {len(r) for r in coerced}
            if len(widths) != 1:
                raise ValueError("ragged rows")
            self.ncols = widths.pop()
            if ncols is not None and ncols != self.ncols:
                raise ValueError("ncols does not match row length")
        else:
            if ncols is None:
                raise ValueError("empty matrix needs an explicit column count")
            self.ncols = ncols

    def column(self, c: int) -> tuple:
        return tuple(row[c] for row in self.rows)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.nrows, self.ncols) == (other.nrows, other.ncols) and self.rows == other.rows

    def __hash__(self):
        return hash((self.nrows, self.ncols, self.rows))

    def apply(self, vec) -> tuple:
        zero = self.field.zero
        out = []
        for row in self.rows:
            acc = zero
            for a, v in zip(row, vec):
                if a and v:
                    acc = acc + a * v
            out.append(acc)
        return tuple(out)

    def scalar_identity_multiple(self):
        """Return s when the matrix equals s * identity, else None."""
        if self.nrows != self.ncols or self.nrows == 0:
            return None
        s = self.rows[0][0]
        for i in range(self.nrows):
            for j in range(self.ncols):
                v = self.rows[i][j]
                if i == j:
                    if v != s:
                        return None
                elif v:
                    return None
        return s

    def __repr__(self):
        body = "; ".join(
            " ".join(self.field.format(v) for v in row) for row in self.rows
        )
        return f"Matrix[{self.nrows}x{self.ncols}]({body})"


def eliminate(field: Field | None, rows, keep_from: float = -inf):
    """Gauss-Jordan elimination of sparse rows, each a ``{column: entry}`` dict.

    Returns (reduced nonzero rows, pivot columns) in pivot order; the rows are
    those of the RREF.  Columns are taken left to right and each pivots on the
    first remaining row holding it, the pivot row swapping places with the
    first remaining row.  Over Q(alpha) that order fixes which entries get
    inverted, and with them the denominators that
    :func:`omlie.fields.track_denominators` records for rejecting sampled
    alpha values.  An index from each column to the positions of the rows
    holding it is kept as entries appear and cancel, so each pivot visits
    only the rows it reduces.

    With ``keep_from`` given (packed monomial columns are negative, so the
    default is none) a pivot column below ``keep_from`` reduces only the rows
    after it, and its row is set aside: no later pivot is
    back-substituted into it.  The rows come back in pivot order as before,
    those with a pivot below ``keep_from`` first, forward-reduced only (an
    echelon form with unit pivots, zero in every earlier pivot column), then
    the rows whose pivot is at least ``keep_from``: the RREF of the part of
    the span with no entry below ``keep_from``.  All of them together span the
    input.  Pivots, inversions and the rows from ``keep_from`` on are those of
    the full elimination.  Zero entries in the input are ignored; the input
    rows are not modified.

    With ``field`` None the entries are ints and the elimination is
    fraction-free (Bareiss 1968, with content removal): no pivot row is
    scaled, and a row holding f in the pivot column of a row with pivot entry
    pv becomes (pv/g)·row - (f/g)·(pivot row), g = gcd(pv, f), then is
    divided by the gcd of its entries.  Each row is then a nonzero multiple
    of the row the field kernel holds at the same step, so the pivots, the
    zero patterns and, through :func:`unit_rows`, the returned rows are the
    same, except that a pivot entry need not be 1.
    """
    one = field.one if field is not None else 1
    rows = [{c: v for c, v in row.items() if v} for row in rows]
    lead = [min(row, default=inf) for row in rows]
    holders = {}  # column -> positions of the live rows holding it
    for r, row in enumerate(rows):
        for c in row:
            if c in holders:
                holders[c].add(r)
            else:
                holders[c] = {r}
    pivots = []
    for pr in range(len(rows)):
        pc = min(lead[pr:])
        if pc == inf:
            break
        pivot = lead.index(pc, pr)
        if pivot != pr:
            a, b = rows[pr], rows[pivot]
            for c in a.keys() ^ b.keys():  # held by one of the two: move it
                holders[c] ^= {pr, pivot}
            rows[pr], rows[pivot] = b, a
            lead[pr], lead[pivot] = lead[pivot], lead[pr]
        prow = rows[pr]
        pv = prow[pc]
        if field is not None and pv != one:
            inv = one / pv
            for c in prow:
                prow[c] = prow[c] * inv
        targets = holders.pop(pc)
        targets.discard(pr)
        if pc < keep_from:  # set aside: nothing reduces this row again
            for c in prow:
                if c != pc:
                    holders[c].remove(pr)
        rest = [(c, v) for c, v in prow.items() if c != pc]
        for r in targets:
            row = rows[r]
            f = row.pop(pc)
            if field is None:  # row <- (pv/g)·row - (f/g)·prow
                g = gcd(pv, f)
                s, f = pv // g, f // g
                if s < 0:
                    s, f = -s, -f
                if s != 1:
                    for c in row:
                        row[c] *= s
            for c, v in rest:
                if c in row:
                    x = row[c] - f * v
                    if x:
                        row[c] = x
                    else:
                        del row[c]
                        holders[c].remove(r)
                else:
                    row[c] = -(f * v)
                    holders[c].add(r)
            if field is None:
                g = gcd(*row.values())
                if g > 1:
                    for c in row:
                        row[c] //= g
            if r > pr:
                lead[r] = min(row, default=inf)
        pivots.append(pc)
    return rows[: len(pivots)], pivots


def unit_rows(rows, pivots) -> list[dict]:
    """Integer rows from :func:`eliminate` with no field, each divided by its
    entry in its pivot column: the ``Fraction`` rows the field kernel returns
    over Q."""
    return [{c: Fraction(v, row[pc]) for c, v in row.items()} for row, pc in zip(rows, pivots)]


def _sparse(field: Field, vec) -> dict:
    """Nonzero entries of a dense vector, coerced into the field."""
    return {j: x for j, x in enumerate(map(field.coerce, vec)) if x}


def rref(m: Matrix):
    """Reduced row echelon form.  Returns (rref matrix, rank, pivot columns)."""
    field = m.field
    rows, pivots = eliminate(field, [_sparse(field, row) for row in m.rows])
    rows += [{}] * (m.nrows - len(rows))
    dense = [[row.get(j, field.zero) for j in range(m.ncols)] for row in rows]
    return Matrix(field, dense, ncols=m.ncols), len(pivots), tuple(pivots)


def invert(m: Matrix) -> Matrix:
    """Inverse of a square matrix; raises ValueError when singular."""
    field, n = m.field, m.nrows
    if m.ncols != n:
        raise ValueError("only square matrices can be inverted")
    aug = [_sparse(field, row) | {n + i: field.one} for i, row in enumerate(m.rows)]
    rows, pivots = eliminate(field, aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return Matrix(field, [[row.get(n + j, field.zero) for j in range(n)] for row in rows], ncols=n)


def _null_space(field: Field, rows, pivots, n: int) -> list[dict]:
    """Kernel basis of the first n columns of reduced sparse rows, one sparse
    vector per free column (canonical)."""
    pivot_set = set(pivots)
    vectors = {f: {f: field.one} for f in range(n) if f not in pivot_set}
    for row, pc in zip(rows, pivots):
        for c, v in row.items():
            if c in vectors:
                vectors[c][pc] = -v
    return list(vectors.values())


def _combine(coeffs, vectors) -> dict:
    """Sparse sum of t * vectors[k] over the (k, t) pairs."""
    out = {}
    for k, t in coeffs:
        if t:
            for j, v in vectors[k].items():
                out[j] = out[j] + t * v if j in out else t * v
    return out


def _check_columns(rows, n: int):
    for row in rows:
        if row and not (0 <= min(row) and max(row) <= n):
            raise ValueError(f"row {row!r} has a column outside 0..{n}")


class AffineSpace:
    """Affine solution set origin + span(basis), or the infeasible marker.

    The origin is a dense tuple; the basis rows are sparse.  Canonical form:
    basis rows are the RREF of their span and the origin has zero entries in
    every basis pivot column.  Two AffineSpace objects describe the same set
    of points iff they compare equal.
    """

    __slots__ = ("field", "ambient_dim", "origin", "basis")

    def __init__(self, field: Field, ambient_dim: int, origin, basis):
        self.field = field
        self.ambient_dim = ambient_dim
        self.origin = origin
        self.basis = basis

    @classmethod
    def infeasible(cls, field: Field, ambient_dim: int) -> "AffineSpace":
        return cls(field, ambient_dim, None, ())

    @classmethod
    def make(cls, field: Field, origin, vectors) -> "AffineSpace":
        """Canonicalise an (origin, spanning sparse vectors) description."""
        origin = [field.coerce(v) for v in origin]
        rows, pivots = eliminate(field, vectors)
        for row, pc in zip(rows, pivots):
            c = origin[pc]
            if c:
                for j, v in row.items():
                    origin[j] = origin[j] - c * v
        return cls(field, len(origin), tuple(origin), tuple(rows))

    @property
    def feasible(self) -> bool:
        return self.origin is not None

    @property
    def dim(self) -> int:
        """Dimension of the space; -1 marks the infeasible space."""
        return len(self.basis) if self.feasible else -1

    @property
    def is_point(self) -> bool:
        return self.feasible and not self.basis

    def __eq__(self, other):
        if not isinstance(other, AffineSpace):
            return NotImplemented
        return (
            self.ambient_dim == other.ambient_dim
            and self.origin == other.origin
            and self.basis == other.basis
        )

    def __repr__(self):
        if not self.feasible:
            return f"AffineSpace(infeasible, ambient={self.ambient_dim})"
        return f"AffineSpace(dim={self.dim}, ambient={self.ambient_dim})"

    def at(self, params) -> tuple:
        """Point of the space for given parameter values."""
        if not self.feasible:
            raise ValueError("infeasible space has no points")
        delta = _combine(enumerate(params), self.basis)
        return tuple(o + delta[j] if j in delta else o for j, o in enumerate(self.origin))

    def restrict(self, rows) -> "AffineSpace":
        """Intersect with constraints in this space's parameters: sparse rows
        ``{parameter: coefficient}`` with the right-hand side at column ``dim``."""
        if not self.feasible or not rows:
            return self
        tsol = solve_affine(self.field, rows, self.dim)
        if not tsol.feasible:
            return AffineSpace.infeasible(self.field, self.ambient_dim)
        directions = [_combine(tau.items(), self.basis) for tau in tsol.basis]
        return AffineSpace.make(self.field, self.at(tsol.origin), directions)


def solve_affine(field: Field, rows, n: int) -> AffineSpace:
    """Solution set in n unknowns of sparse rows with the right-hand side at
    column n (infeasible is a value)."""
    _check_columns(rows, n)
    rows, pivots = eliminate(field, rows)
    if pivots and pivots[-1] == n:
        return AffineSpace.infeasible(field, n)
    origin = [field.zero] * n
    for row, pc in zip(rows, pivots):
        origin[pc] = row.get(n, field.zero)
    return AffineSpace.make(field, origin, _null_space(field, rows, pivots, n))


def intersect(space: AffineSpace, rows) -> AffineSpace:
    """Points of ``space`` also satisfying sparse rows over its ambient
    coordinates, with the right-hand side at column ``space.ambient_dim``.

    The rows are rewritten in the space's parameters, solved there and the
    result re-expanded to ambient coordinates.
    """
    n = space.ambient_dim
    _check_columns(rows, n)
    if not rows or not space.feasible:
        return space
    zero, origin = space.field.zero, space.origin
    by_column = {}  # ambient column -> [(parameter, basis entry)]
    for t, vec in enumerate(space.basis):
        for j, v in vec.items():
            by_column.setdefault(j, []).append((t, v))
    prows = []
    for row in rows:
        prow = {}
        rhs = row.get(n, zero)
        for j, x in row.items():
            if j == n:
                continue
            if origin[j]:
                rhs = rhs - x * origin[j]
            for t, v in by_column.get(j, ()):
                prow[t] = prow[t] + x * v if t in prow else x * v
        prow[space.dim] = rhs
        prows.append(prow)
    return space.restrict(prows)
