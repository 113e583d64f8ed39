"""Domain model for omega-Lie algebras and omega-left-symmetric algebras.

Both algebra kinds are finite dimensional over Q or Q(alpha) and are stored as
structure-constant tensors together with a skew bilinear form omega.  The
checkers return full residual reports rather than booleans so a failing
candidate localises to the offending basis triple or pair.

Conventions: ``tensor.coeffs[i][j][k]`` is the coefficient of the k-th basis
element in e_i * e_j.  The omega-Jacobi identity reads

    [[x,y],z] + [[y,z],x] + [[z,x],y] = w(x,y) z + w(y,z) x + w(z,x) y

and the left-symmetric identity reads

    (xy)z - x(yz) - (yx)z + y(xz) = w(x,y) z.

Its operator form, with l_x the left multiplication v -> xv, is

    l_[u,v] = [l_u, l_v] + w(u,v) id        where [u,v] = uv - vu.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import AxiomCheckError
from .fields import Field, QQ, evaluate_at
from .linalg import Matrix, invert, rref

# The largest dimension accepted from a catalog parameter or an algebra file:
# a structure tensor holds dim^3 scalars.
MAX_DIM = 64


class StructureTensor:
    """n^3 structure constants of a bilinear product or bracket."""

    __slots__ = ("field", "dim", "coeffs")

    def __init__(self, field: Field, coeffs):
        self.field = field
        n = len(coeffs)
        self.dim = n
        out = []
        for block in coeffs:
            if len(block) != n:
                raise ValueError("structure tensor must be cubical")
            rows = []
            for vec in block:
                if len(vec) != n:
                    raise ValueError("structure tensor must be cubical")
                rows.append(tuple(field.coerce(v) for v in vec))
            out.append(tuple(rows))
        self.coeffs = tuple(out)

    @classmethod
    def zero(cls, field: Field, dim: int) -> "StructureTensor":
        z = field.zero
        return cls(field, [[[z] * dim for _ in range(dim)] for _ in range(dim)])

    def entry(self, i: int, j: int, k: int):
        return self.coeffs[i][j][k]

    def pair(self, i: int, j: int) -> tuple:
        """Coordinates of e_i * e_j."""
        return self.coeffs[i][j]

    def apply(self, u, v) -> tuple:
        """Bilinear extension to coordinate vectors."""
        zero = self.field.zero
        out = [zero] * self.dim
        for i, a in enumerate(u):
            if not a:
                continue
            for j, b in enumerate(v):
                if not b:
                    continue
                ab = a * b
                for k, c in enumerate(self.coeffs[i][j]):
                    if c:
                        out[k] = out[k] + ab * c
        return tuple(out)

    def antisymmetrized(self) -> "StructureTensor":
        """Commutator tensor c[i][j][k] - c[j][i][k]."""
        n = self.dim
        return StructureTensor(
            self.field,
            [
                [
                    [self.coeffs[i][j][k] - self.coeffs[j][i][k] for k in range(n)]
                    for j in range(n)
                ]
                for i in range(n)
            ],
        )

    def __eq__(self, other):
        if not isinstance(other, StructureTensor):
            return NotImplemented
        return self.dim == other.dim and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"StructureTensor(dim={self.dim})"


class OmegaForm:
    """Skew-symmetric bilinear form as an n x n scalar matrix."""

    __slots__ = ("field", "dim", "entries")

    def __init__(self, field: Field, entries):
        self.field = field
        n = len(entries)
        self.dim = n
        rows = tuple(tuple(field.coerce(v) for v in row) for row in entries)
        for row in rows:
            if len(row) != n:
                raise ValueError("omega form must be square")
        for i in range(n):
            for j in range(i, n):
                if rows[i][j] + rows[j][i]:
                    raise ValueError(f"omega is not antisymmetric at ({i}, {j})")
        self.entries = rows

    @classmethod
    def zero(cls, field: Field, dim: int) -> "OmegaForm":
        z = field.zero
        return cls(field, [[z] * dim for _ in range(dim)])

    @classmethod
    def from_pairs(cls, field: Field, dim: int, pairs: dict) -> "OmegaForm":
        """Build from sparse {(i, j): value}; the (j, i) entries are implied."""
        z = field.zero
        rows = [[z] * dim for _ in range(dim)]
        for (i, j), v in pairs.items():
            if i == j:
                raise ValueError("omega(i, i) must be zero")
            v = field.coerce(v)
            rows[i][j] = rows[i][j] + v
            rows[j][i] = rows[j][i] - v
        return cls(field, rows)

    def entry(self, i: int, j: int):
        return self.entries[i][j]

    def apply(self, u, v):
        zero = self.field.zero
        acc = zero
        for i, a in enumerate(u):
            if not a:
                continue
            row = self.entries[i]
            for j, b in enumerate(v):
                if b and row[j]:
                    acc = acc + a * b * row[j]
        return acc

    def __eq__(self, other):
        if not isinstance(other, OmegaForm):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self):
        return f"OmegaForm(dim={self.dim})"


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _validate_names(names, dim):
    names = tuple(names)
    if len(names) != dim:
        raise ValueError("number of basis names must equal the dimension")
    if len(set(names)) != len(names):
        raise ValueError("basis names must be distinct")
    for nm in names:
        if not _NAME_RE.fullmatch(nm):
            raise ValueError(f"invalid basis name {nm!r}")
        if nm == "alpha":
            raise ValueError("'alpha' is reserved for the field parameter")
    return names


class OmegaLieAlgebra:
    """Bracket tensor plus omega form.  Validity is checked by check_omega_lie."""

    __slots__ = ("field", "basis_names", "bracket", "omega")

    def __init__(self, field: Field, basis_names, bracket: StructureTensor, omega: OmegaForm):
        if bracket.dim != omega.dim:
            raise ValueError("bracket tensor and omega form have different dimensions")
        self.field = field
        self.basis_names = _validate_names(basis_names, bracket.dim)
        self.bracket = bracket
        self.omega = omega

    @property
    def dim(self) -> int:
        return self.bracket.dim

    @property
    def kind(self) -> str:
        return "lie"

    def __eq__(self, other):
        if not isinstance(other, OmegaLieAlgebra):
            return NotImplemented
        return (
            self.field is other.field
            and self.basis_names == other.basis_names
            and self.bracket == other.bracket
            and self.omega == other.omega
        )

    def __repr__(self):
        return f"OmegaLieAlgebra(dim={self.dim}, basis={', '.join(self.basis_names)})"


class OmegaLsaAlgebra:
    """Product tensor plus omega form.  Validity is checked by check_omega_lsa."""

    __slots__ = ("field", "basis_names", "product", "omega")

    def __init__(self, field: Field, basis_names, product: StructureTensor, omega: OmegaForm):
        if product.dim != omega.dim:
            raise ValueError("product tensor and omega form have different dimensions")
        self.field = field
        self.basis_names = _validate_names(basis_names, product.dim)
        self.product = product
        self.omega = omega

    @property
    def dim(self) -> int:
        return self.product.dim

    @property
    def kind(self) -> str:
        return "lsa"

    def __eq__(self, other):
        if not isinstance(other, OmegaLsaAlgebra):
            return NotImplemented
        return (
            self.field is other.field
            and self.basis_names == other.basis_names
            and self.product == other.product
            and self.omega == other.omega
        )

    def __repr__(self):
        return f"OmegaLsaAlgebra(dim={self.dim}, basis={', '.join(self.basis_names)})"


class CheckReport:
    """Outcome of an axiom check: ok flag plus localised residuals."""

    __slots__ = ("ok", "failures")

    def __init__(self, failures):
        self.failures = tuple(failures)
        self.ok = not self.failures

    def __bool__(self):
        return self.ok

    def describe(self, names) -> str:
        if self.ok:
            return "all identities hold"
        lines = []
        for law, key, _residual in self.failures:
            where = ",".join(names[i] for i in key)
            lines.append(f"{law} fails at ({where})")
        return "; ".join(lines)

    def __repr__(self):
        return f"CheckReport(ok={self.ok}, failures={len(self.failures)})"


def _unit(field: Field, dim: int, i: int) -> tuple:
    return tuple(field.one if j == i else field.zero for j in range(dim))


def check_omega_lie(L: OmegaLieAlgebra) -> CheckReport:
    """Check bracket antisymmetry and the omega-Jacobi identity.

    Both sides of the identity alternate in (x, y, z), so unordered triples
    i < j < k suffice.  Residuals are (law, index tuple, residual vector).
    """
    n = L.dim
    field = L.field
    br = L.bracket
    failures = []
    for i in range(n):
        for j in range(i, n):
            for k in range(n):
                s = br.coeffs[i][j][k] + br.coeffs[j][i][k]
                if s:
                    failures.append(("antisymmetry", (i, j, k), s))
    units = [_unit(field, n, i) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                lhs = [field.zero] * n
                for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                    t = br.apply(br.pair(a, b), units[c])
                    for m, v in enumerate(t):
                        if v:
                            lhs[m] = lhs[m] + v
                wij = L.omega.entry(i, j)
                wjk = L.omega.entry(j, k)
                wki = L.omega.entry(k, i)
                residual = list(lhs)
                if wij:
                    residual[k] = residual[k] - wij
                if wjk:
                    residual[i] = residual[i] - wjk
                if wki:
                    residual[j] = residual[j] - wki
                if any(residual):
                    failures.append(("jacobi", (i, j, k), tuple(residual)))
    return CheckReport(failures)


def check_omega_lsa(A: OmegaLsaAlgebra) -> CheckReport:
    """Check the left-symmetric identity on basis triples.

    The identity is antisymmetric in its first two arguments, so i < j
    suffices while the third index ranges over the whole basis.
    """
    n = A.dim
    field = A.field
    p = A.product
    units = [_unit(field, n, i) for i in range(n)]
    failures = []
    for i in range(n):
        for j in range(i + 1, n):
            wij = A.omega.entry(i, j)
            for k in range(n):
                r = [field.zero] * n
                for vec, sign in (
                    (p.apply(p.pair(i, j), units[k]), 1),
                    (p.apply(units[i], p.pair(j, k)), -1),
                    (p.apply(p.pair(j, i), units[k]), -1),
                    (p.apply(units[j], p.pair(i, k)), 1),
                ):
                    for m, v in enumerate(vec):
                        if v:
                            r[m] = r[m] + v if sign > 0 else r[m] - v
                if wij:
                    r[k] = r[k] - wij
                if any(r):
                    failures.append(("left-symmetric", (i, j, k), tuple(r)))
    return CheckReport(failures)


def commutator_algebra(A: OmegaLsaAlgebra) -> OmegaLieAlgebra:
    """The omega-Lie algebra with bracket xy - yx and the same omega."""
    report = check_omega_lsa(A)
    if not report.ok:
        raise AxiomCheckError(
            "input is not an omega-left-symmetric algebra: " + report.describe(A.basis_names),
            report,
        )
    return OmegaLieAlgebra(A.field, A.basis_names, A.product.antisymmetrized(), A.omega)


def left_mult(A: OmegaLsaAlgebra, i: int) -> Matrix:
    """Matrix of v -> e_i v; column j holds the coordinates of e_i e_j."""
    n = A.dim
    if not 0 <= i < n:
        raise IndexError(f"basis index {i} out of range for dimension {n}")
    c = A.product.coeffs
    return Matrix(A.field, [[c[i][j][k] for j in range(n)] for k in range(n)])


def check_module_identity(A: OmegaLsaAlgebra) -> CheckReport:
    """Operator form of the defining identity, one residual matrix per pair i < j.

    Applied to e_k, l_[u,v] - [l_u, l_v] - w(u,v) id is the left-symmetric
    residual at (u, v, e_k), so column k of the residual for (i, j) is the
    one :func:`check_omega_lsa` reports at (i, j, k).
    """
    n, zero = A.dim, A.field.zero
    columns: dict = {}  # (i, j) -> {k: residual vector}, pairs in check order
    for _law, (i, j, k), r in check_omega_lsa(A).failures:
        columns.setdefault((i, j), {})[k] = r
    failures = []
    for pair, cols in columns.items():
        rows = [[cols[k][m] if k in cols else zero for k in range(n)] for m in range(n)]
        failures.append(("module-identity", pair, Matrix(A.field, rows)))
    return CheckReport(failures)


def derived_subalgebra(L: OmegaLieAlgebra):
    """RREF basis of span{[e_i, e_j] : i < j} and its dimension."""
    n = L.dim
    rows = [L.bracket.pair(i, j) for i in range(n) for j in range(i + 1, n)]
    if not rows:
        return (), 0
    R, rk, _ = rref(Matrix(L.field, rows, ncols=n))
    return tuple(R.rows[:rk]), rk


def is_perfect(L: OmegaLieAlgebra) -> bool:
    return derived_subalgebra(L)[1] == L.dim


def basis_change(L: OmegaLieAlgebra, T: Matrix) -> OmegaLieAlgebra:
    """Transport bracket and omega through T; column j of T is the j-th new basis vector."""
    n = L.dim
    if T.nrows != n or T.ncols != n:
        raise ValueError("basis change matrix has wrong shape")
    Tinv = invert(T)  # raises ValueError when singular
    cols = [T.column(j) for j in range(n)]
    coeffs = []
    for a in range(n):
        block = []
        for b in range(n):
            w = L.bracket.apply(cols[a], cols[b])
            block.append(list(Tinv.apply(w)))
        coeffs.append(block)
    omega_rows = [
        [L.omega.apply(cols[a], cols[b]) for b in range(n)] for a in range(n)
    ]
    return OmegaLieAlgebra(
        L.field,
        L.basis_names,
        StructureTensor(L.field, coeffs),
        OmegaForm(L.field, omega_rows),
    )


def _specialized_tensor(t: StructureTensor, a0: Fraction) -> StructureTensor:
    return StructureTensor(
        QQ,
        [
            [[evaluate_at(v, a0) for v in vec] for vec in block]
            for block in t.coeffs
        ],
    )


def specialize(algebra, a0) -> "OmegaLieAlgebra | OmegaLsaAlgebra":
    """Evaluate every coefficient at alpha = a0, landing in Q.

    Raises ZeroDivisionError when a coefficient denominator vanishes at a0.
    """
    a0 = Fraction(a0)
    omega = OmegaForm(QQ, [[evaluate_at(v, a0) for v in row] for row in algebra.omega.entries])
    if isinstance(algebra, OmegaLieAlgebra):
        return OmegaLieAlgebra(
            QQ, algebra.basis_names, _specialized_tensor(algebra.bracket, a0), omega
        )
    return OmegaLsaAlgebra(
        QQ, algebra.basis_names, _specialized_tensor(algebra.product, a0), omega
    )


def lie_from_tables(field: Field, names, brackets: dict, omega: dict, check: bool = True) -> OmegaLieAlgebra:
    """Build an omega-Lie algebra from name-keyed sparse tables.

    ``brackets`` maps (name_a, name_b) to {name: coefficient}; the reversed
    pair is implied by antisymmetry.  ``omega`` maps (name_a, name_b) to a
    scalar.  With check=True the omega-Jacobi identity is verified and an
    AxiomCheckError carrying the residual report is raised on failure.
    """
    names = tuple(names)
    idx = {nm: i for i, nm in enumerate(names)}
    n = len(names)
    zero = field.zero
    coeffs = [[[zero] * n for _ in range(n)] for _ in range(n)]
    for (a, b), combo in brackets.items():
        i, j = idx[a], idx[b]
        if i == j:
            raise ValueError(f"bracket [{a},{a}] is zero by antisymmetry; omit it")
        for nm, v in combo.items():
            v = field.coerce(v)
            coeffs[i][j][idx[nm]] = coeffs[i][j][idx[nm]] + v
            coeffs[j][i][idx[nm]] = coeffs[j][i][idx[nm]] - v
    form = OmegaForm.from_pairs(field, n, {(idx[a], idx[b]): v for (a, b), v in omega.items()})
    L = OmegaLieAlgebra(field, names, StructureTensor(field, coeffs), form)
    if check:
        report = check_omega_lie(L)
        if not report.ok:
            raise AxiomCheckError(
                "omega-Jacobi identity fails: " + report.describe(names), report
            )
    return L


def lsa_from_tables(field: Field, names, products: dict, omega: dict, check: bool = True) -> OmegaLsaAlgebra:
    """Build an omega-left-symmetric algebra from name-keyed sparse tables.

    ``products`` maps ordered pairs (name_a, name_b) to {name: coefficient};
    there is no implied symmetry, every nonzero product must be listed.
    """
    names = tuple(names)
    idx = {nm: i for i, nm in enumerate(names)}
    n = len(names)
    zero = field.zero
    coeffs = [[[zero] * n for _ in range(n)] for _ in range(n)]
    for (a, b), combo in products.items():
        i, j = idx[a], idx[b]
        for nm, v in combo.items():
            coeffs[i][j][idx[nm]] = coeffs[i][j][idx[nm]] + field.coerce(v)
    form = OmegaForm.from_pairs(field, n, {(idx[a], idx[b]): v for (a, b), v in omega.items()})
    A = OmegaLsaAlgebra(field, names, StructureTensor(field, coeffs), form)
    if check:
        report = check_omega_lsa(A)
        if not report.ok:
            raise AxiomCheckError(
                "left-symmetric identity fails: " + report.describe(names), report
            )
    return A
