"""Dense exact linear algebra over either scalar field.

Reduced row echelon form with first-nonzero pivoting (exact arithmetic needs
no magnitude pivoting), affine solution spaces of linear systems, and
intersection of an affine space with further constraints.  Affine spaces are
kept in a canonical form (basis rows in RREF, origin reduced against them) so
that equal solution sets compare equal syntactically; the propagation loop in
the admissibility decider relies on that for fixed-point detection.
"""

from __future__ import annotations

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

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        one, zero = field.one, field.zero
        return cls(field, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, field: Field, nrows: int, ncols: int) -> "Matrix":
        zero = field.zero
        return cls(field, [[zero] * ncols for _ in range(nrows)], ncols=ncols)

    def column(self, c: int) -> tuple:
        return tuple(row[c] for row in self.rows)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.nrows, self.ncols) == (other.nrows, other.ncols) and self.rows == other.rows

    def __hash__(self):
        return hash((self.nrows, self.ncols, self.rows))

    def __add__(self, other):
        return Matrix(
            self.field,
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
            ncols=self.ncols,
        )

    def __sub__(self, other):
        return Matrix(
            self.field,
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
            ncols=self.ncols,
        )

    def __neg__(self):
        return Matrix(self.field, [[-a for a in row] for row in self.rows], ncols=self.ncols)

    def scale(self, s) -> "Matrix":
        s = self.field.coerce(s)
        return Matrix(self.field, [[a * s for a in row] for row in self.rows], ncols=self.ncols)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        zero = self.field.zero
        out = []
        for row in self.rows:
            acc = [zero] * other.ncols
            for k, a in enumerate(row):
                if not a:
                    continue
                orow = other.rows[k]
                for j, b in enumerate(orow):
                    if b:
                        acc[j] = acc[j] + a * b
            out.append(acc)
        return Matrix(self.field, out, ncols=other.ncols)

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

    def is_zero(self) -> bool:
        return all(not v for row in self.rows for v in row)

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


def rref(m: Matrix):
    """Reduced row echelon form.  Returns (rref matrix, rank, pivot columns)."""
    field = m.field
    nr, nc = m.nrows, m.ncols
    rows = [list(r) for r in m.rows]
    pivots = []
    pr = 0
    for pc in range(nc):
        pivot = None
        for r in range(pr, nr):
            if rows[r][pc]:
                pivot = r
                break
        if pivot is None:
            continue
        rows[pr], rows[pivot] = rows[pivot], rows[pr]
        prow = rows[pr]
        pv = prow[pc]
        if pv != field.one:
            inv = field.one / pv
            for c in range(pc, nc):
                if prow[c]:
                    prow[c] = prow[c] * inv
        nz = [(c, prow[c]) for c in range(pc, nc) if prow[c]]
        for r in range(nr):
            if r == pr:
                continue
            row = rows[r]
            f = row[pc]
            if not f:
                continue
            for c, v in nz:
                row[c] = row[c] - f * v
        pivots.append(pc)
        pr += 1
        if pr == nr:
            break
    return Matrix(field, rows, ncols=nc), pr, tuple(pivots)


def rank(m: Matrix) -> int:
    return rref(m)[1]


def invert(m: Matrix) -> Matrix:
    """Inverse of a square matrix; raises ValueError when singular."""
    if m.nrows != m.ncols:
        raise ValueError("only square matrices can be inverted")
    n = m.nrows
    aug = Matrix(
        m.field,
        [list(m.rows[i]) + list(Matrix.identity(m.field, n).rows[i]) for i in range(n)],
        ncols=2 * n,
    )
    R, _rk, pivots = rref(aug)
    if pivots[:n] != tuple(range(n)):
        raise ValueError("matrix is singular")
    return Matrix(m.field, [row[n:] for row in R.rows], ncols=n)


def _null_space(R: Matrix, pivots, n: int) -> list[tuple]:
    """Kernel basis of the first n columns of a matrix in RREF, one vector per
    free column (canonical)."""
    field = R.field
    pivot_set = set(pivots)
    out = []
    for f in range(n):
        if f in pivot_set:
            continue
        v = [field.zero] * n
        v[f] = field.one
        for r, pc in enumerate(pivots):
            e = R.rows[r][f]
            if e:
                v[pc] = -e
        out.append(tuple(v))
    return out


def kernel_basis(m: Matrix) -> list[tuple]:
    """Basis of the right kernel, derived from the RREF (canonical)."""
    R, _rk, pivots = rref(m)
    return _null_space(R, pivots, m.ncols)


def _combine(start, coeffs, vectors) -> tuple:
    """start + sum of t * v over the paired coefficients and vectors."""
    out = list(start)
    for t, vec in zip(coeffs, vectors):
        if not t:
            continue
        for j, v in enumerate(vec):
            if v:
                out[j] = out[j] + t * v
    return tuple(out)


def _reduce(vec: list, rows, pivots) -> list:
    """Clear vec's entries in the pivot columns of RREF rows, in place."""
    for row, pc in zip(rows, pivots):
        c = vec[pc]
        if c:
            for j in range(pc, len(row)):
                if row[j]:
                    vec[j] = vec[j] - c * row[j]
    return vec


class AffineSpace:
    """Affine solution set origin + span(basis), or the infeasible marker.

    Canonical form: basis rows are the RREF of their span and the origin has
    zero entries in every basis pivot column.  Two AffineSpace objects describe
    the same set of points iff they compare equal.
    """

    __slots__ = ("field", "ambient_dim", "origin", "basis", "_pivots")

    def __init__(self, field: Field, ambient_dim: int, origin, basis, _pivots):
        self.field = field
        self.ambient_dim = ambient_dim
        self.origin = origin
        self.basis = basis
        self._pivots = _pivots

    @classmethod
    def infeasible(cls, field: Field, ambient_dim: int) -> "AffineSpace":
        return cls(field, ambient_dim, None, (), ())

    @classmethod
    def full(cls, field: Field, ambient_dim: int) -> "AffineSpace":
        origin = (field.zero,) * ambient_dim
        basis = Matrix.identity(field, ambient_dim).rows
        return cls(field, ambient_dim, origin, basis, tuple(range(ambient_dim)))

    @classmethod
    def make(cls, field: Field, origin, basis_vectors) -> "AffineSpace":
        """Canonicalise an (origin, spanning vectors) description."""
        n = len(origin)
        origin = [field.coerce(v) for v in origin]
        vecs = [v for v in basis_vectors if any(field.coerce(x) for x in v)]
        if vecs:
            B, rk, pivots = rref(Matrix(field, vecs, ncols=n))
            rows = B.rows[:rk]
        else:
            rows, pivots = (), ()
        _reduce(origin, rows, pivots)
        return cls(field, n, tuple(origin), tuple(rows), tuple(pivots))

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
        return _combine(self.origin, params, self.basis)

    def contains(self, point) -> bool:
        if not self.feasible:
            return False
        d = [self.field.coerce(p) - o for p, o in zip(point, self.origin)]
        return all(not v for v in _reduce(d, self.basis, self._pivots))

    def sample(self, rng) -> tuple:
        """Deterministic random point: origin plus a small rational combination."""
        from fractions import Fraction

        params = [
            self.field.coerce(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
            for _ in self.basis
        ]
        return self.at(params)

    def restrict(self, rows, rhs) -> "AffineSpace":
        """Intersect with constraints expressed in this space's parameters."""
        if not self.feasible or not rows:
            return self
        tsol = solve_affine(Matrix(self.field, rows, ncols=self.dim), rhs)
        if not tsol.feasible:
            return AffineSpace.infeasible(self.field, self.ambient_dim)
        origin = self.at(tsol.origin)
        zero = (self.field.zero,) * self.ambient_dim
        directions = [_combine(zero, tau, self.basis) for tau in tsol.basis]
        return AffineSpace.make(self.field, origin, directions)


def solve_affine(a: Matrix, b) -> AffineSpace:
    """Full solution set of a x = b as an AffineSpace (infeasible is a value)."""
    field = a.field
    b = [field.coerce(v) for v in b]
    if len(b) != a.nrows:
        raise ValueError("right-hand side length does not match row count")
    n = a.ncols
    aug = Matrix(field, [list(row) + [bv] for row, bv in zip(a.rows, b)], ncols=n + 1)
    if a.nrows == 0:
        return AffineSpace.full(field, n)
    R, rk, pivots = rref(aug)
    if pivots and pivots[-1] == n:
        return AffineSpace.infeasible(field, n)
    origin = [field.zero] * n
    for r, pc in enumerate(pivots):
        origin[pc] = R.rows[r][n]
    return AffineSpace.make(field, origin, _null_space(R, pivots, n))


def intersect(space: AffineSpace, constraints) -> AffineSpace:
    """Points of ``space`` additionally satisfying ``constraints = (A, b)``.

    The constraints are rewritten in the space's parameters, solved there and
    the result re-expanded to ambient coordinates.
    """
    a, b = constraints
    if a.nrows == 0 or not space.feasible:
        return space
    if a.ncols != space.ambient_dim:
        raise ValueError("constraint width does not match ambient dimension")
    rows = []
    rhs = []
    for crow, bv in zip(a.rows, b):
        coeffs = []
        for bvec in space.basis:
            acc = space.field.zero
            for x, y in zip(crow, bvec):
                if x and y:
                    acc = acc + x * y
            coeffs.append(acc)
        off = space.field.coerce(bv)
        for x, o in zip(crow, space.origin):
            if x and o:
                off = off - x * o
        rows.append(coeffs)
        rhs.append(off)
    return space.restrict(rows, rhs)
