"""Text file format for algebras.

A file is a header followed by sparse sections, mirroring how the catalog
tables list only nonzero entries:

    # an omega-Lie algebra
    kind = lie
    field = Q(alpha)
    dim = 3
    basis = x, y, z

    [brackets]
    x,y = x
    x,z = x + y
    y,z = z + alpha*x

    [omega]
    y,z = -1

``kind = lsa`` files use a ``[products]`` section instead, keyed by ordered
pairs (no symmetry is implied there).  For kind = lie, listing both "x,y" and
"y,x" is rejected: antisymmetry is implicit.  ``#`` starts a comment, unlisted
pairs are zero, and scalars follow the shared literal grammar.
"""

from __future__ import annotations

import re

from .algebra import (
    MAX_DIM,
    OmegaForm,
    OmegaLieAlgebra,
    OmegaLsaAlgebra,
    StructureTensor,
    check_omega_lie,
    check_omega_lsa,
)
from .errors import AlgebraLoadError
from .exprs import ExprError, format_combination, parse_combination, parse_scalar
from .fields import field_named

_SECTION_RE = re.compile(r"\[([a-z]+)\]\s*$")
_HEADER_KEYS = ("kind", "field", "dim", "basis")


def parse_algebra_text(text: str, check: bool = True):
    """Parse an algebra file; returns OmegaLieAlgebra or OmegaLsaAlgebra.

    With check=True (the default) the algebra is axiom-checked and a failing
    candidate raises AlgebraLoadError carrying the residual report.
    """
    header: dict[str, str] = {}
    sections: dict[str, list] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _SECTION_RE.match(line)
        if m:
            name = m.group(1)
            if name not in ("brackets", "products", "omega"):
                raise AlgebraLoadError(f"unknown section [{name}]", lineno)
            if name in sections:
                raise AlgebraLoadError(f"duplicate section [{name}]", lineno)
            sections[name] = []
            current = name
            continue
        if "=" not in line:
            raise AlgebraLoadError("expected 'key = value'", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if current is None:
            if key not in _HEADER_KEYS:
                raise AlgebraLoadError(f"unknown header key {key!r}", lineno)
            if key in header:
                raise AlgebraLoadError(f"duplicate header key {key!r}", lineno)
            header[key] = value
        else:
            sections[current].append((key, value, lineno))
    for key in _HEADER_KEYS:
        if key not in header:
            raise AlgebraLoadError(f"missing header key {key!r}")
    kind = header["kind"]
    if kind not in ("lie", "lsa"):
        raise AlgebraLoadError(f"kind must be 'lie' or 'lsa', got {kind!r}")
    try:
        field = field_named(header["field"])
    except ValueError as exc:
        raise AlgebraLoadError(str(exc)) from None
    try:
        dim = int(header["dim"])
    except ValueError:
        raise AlgebraLoadError(f"dim must be an integer, got {header['dim']!r}") from None
    if dim > MAX_DIM:
        raise AlgebraLoadError(f"dim = {dim} exceeds the largest supported dimension {MAX_DIM}")
    names = tuple(nm.strip() for nm in header["basis"].split(",") if nm.strip())
    if len(names) != dim:
        raise AlgebraLoadError(
            f"dim = {dim} but basis lists {len(names)} names"
        )
    index = {nm: i for i, nm in enumerate(names)}
    if len(index) != len(names):
        raise AlgebraLoadError("basis names must be distinct")

    table_section = "brackets" if kind == "lie" else "products"
    wrong = "products" if kind == "lie" else "brackets"
    if wrong in sections:
        raise AlgebraLoadError(f"[{wrong}] section is not allowed for kind = {kind}")

    def pair_of(key, lineno):
        parts = [p.strip() for p in key.split(",")]
        if len(parts) != 2:
            raise AlgebraLoadError(f"pair key must be 'name,name', got {key!r}", lineno)
        for nm in parts:
            if nm not in index:
                raise AlgebraLoadError(f"unknown basis name {nm!r}", lineno)
        return index[parts[0]], index[parts[1]]

    zero = field.zero
    coeffs = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
    seen: set[tuple[int, int]] = set()
    for key, value, lineno in sections.get(table_section, []):
        i, j = pair_of(key, lineno)
        try:
            vec = parse_combination(value, field, names)
        except ExprError as exc:
            raise AlgebraLoadError(str(exc), lineno) from None
        if kind == "lie":
            if i == j:
                raise AlgebraLoadError(
                    "a bracket of a basis element with itself is zero; omit it", lineno
                )
            if (min(i, j), max(i, j)) in seen:
                raise AlgebraLoadError(
                    f"pair {key!r} duplicates an earlier pair (antisymmetry is implicit)",
                    lineno,
                )
            seen.add((min(i, j), max(i, j)))
            for k, v in enumerate(vec):
                coeffs[i][j][k] = v
                coeffs[j][i][k] = -v
        else:
            if (i, j) in seen:
                raise AlgebraLoadError(f"duplicate product {key!r}", lineno)
            seen.add((i, j))
            for k, v in enumerate(vec):
                coeffs[i][j][k] = v

    omega_rows = [[zero] * dim for _ in range(dim)]
    seen_omega: set[tuple[int, int]] = set()
    for key, value, lineno in sections.get("omega", []):
        i, j = pair_of(key, lineno)
        if i == j:
            raise AlgebraLoadError("omega(u, u) is zero; omit it", lineno)
        if (min(i, j), max(i, j)) in seen_omega:
            raise AlgebraLoadError(
                f"pair {key!r} duplicates an earlier omega pair (skew symmetry is implicit)",
                lineno,
            )
        seen_omega.add((min(i, j), max(i, j)))
        try:
            s = parse_scalar(value, field)
        except ExprError as exc:
            raise AlgebraLoadError(str(exc), lineno) from None
        omega_rows[i][j] = s
        omega_rows[j][i] = -s

    try:
        tensor = StructureTensor(field, coeffs)
        form = OmegaForm(field, omega_rows)
        if kind == "lie":
            algebra = OmegaLieAlgebra(field, names, tensor, form)
        else:
            algebra = OmegaLsaAlgebra(field, names, tensor, form)
    except ValueError as exc:
        raise AlgebraLoadError(str(exc)) from None
    if check:
        if kind == "lie":
            rep = check_omega_lie(algebra)
            label = "omega-Jacobi identity fails: "
        else:
            rep = check_omega_lsa(algebra)
            label = "left-symmetric identity fails: "
        if not rep.ok:
            raise AlgebraLoadError(label + rep.describe(names), report=rep)
    return algebra


def emit_algebra_text(algebra) -> str:
    """Serialise an algebra so that parse(emit(a)) == a."""
    field = algebra.field
    names = algebra.basis_names
    n = algebra.dim
    is_lie = isinstance(algebra, OmegaLieAlgebra)
    tensor = algebra.bracket if is_lie else algebra.product
    lines = [
        f"kind = {'lie' if is_lie else 'lsa'}",
        f"field = {field.name}",
        f"dim = {n}",
        f"basis = {', '.join(names)}",
        "",
    ]
    body = []
    if is_lie:
        for i in range(n):
            for j in range(i + 1, n):
                vec = tensor.pair(i, j)
                if any(vec):
                    body.append(f"{names[i]},{names[j]} = {format_combination(vec, names, field)}")
        section = "[brackets]"
    else:
        for i in range(n):
            for j in range(n):
                vec = tensor.pair(i, j)
                if any(vec):
                    body.append(f"{names[i]},{names[j]} = {format_combination(vec, names, field)}")
        section = "[products]"
    lines.append(section)
    lines.extend(body)
    lines.append("")
    lines.append("[omega]")
    for i in range(n):
        for j in range(i + 1, n):
            w = algebra.omega.entry(i, j)
            if w:
                lines.append(f"{names[i]},{names[j]} = {field.format(w)}")
    lines.append("")
    return "\n".join(lines)
