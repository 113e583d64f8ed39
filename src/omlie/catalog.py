"""Built-in constructors for the classified algebra families.

Lie entries: the ten nontrivial perfect omega-Lie families
(A_alpha, B, C_alpha in dimension 3; G1_alpha, H1_alpha, Atilde_alpha, Btilde,
Ctilde_alpha in dimension 4; P1 and P2 in dimension >= 5).  LSA entries: the
two three-parameter families of omega-left-symmetric algebras in dimension 3,
used as positive controls for the admissibility decider.

Every instantiation is validated by the matching axiom checker; a parameter
combination that breaks the defining identities raises AxiomCheckError, and
explicit side conditions (alpha not in {0, -1} for the C families, a != 0 for
P1, b1, c1 != 0 and b1 + c1 + 1 = 0 for P2, and for both P families an
abelian part of dimension 2 to MAX_DIM - 3) and parameter names outside the
family's slots raise SideConditionError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import MAX_DIM, lie_from_tables, lsa_from_tables
from .errors import SideConditionError
from .exprs import parse_combination
from .fields import Field, QQ, QALPHA, RatFunc


@dataclass(frozen=True)
class ParameterSlot:
    name: str
    kind: str  # "scalar" | "vector" | "int"
    default: str | None
    note: str = ""


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    kind: str  # "lie" | "lsa"
    min_dim: int
    fixed_dim: bool
    slots: tuple[ParameterSlot, ...]
    summary: str

    @property
    def dim_rule(self) -> str:
        return str(self.min_dim) if self.fixed_dim else f">={self.min_dim}"


def _scalar(params, name, field, default=None):
    """Fetch and coerce a scalar parameter.

    A missing value takes the default when there is one, else, over Q(alpha),
    the formal parameter; over Q a slot with no default must be bound.
    """
    if name in params:
        return field.coerce(params[name])
    if default is not None:
        return field.coerce(default)
    if field is QALPHA:
        return QALPHA.alpha
    raise SideConditionError(f"parameter {name!r} must be given over {field.name}")


def _scalar_equals(v, const: int) -> bool:
    if isinstance(v, Fraction):
        return v == const
    if isinstance(v, RatFunc):
        return v.is_constant() and v.as_fraction() == const
    return False


def _abelian_dim(params, name, family):
    """The dimension of the abelian part of P1 or P2: at least 2, and the
    algebra's dimension (3 more) at most MAX_DIM."""
    try:
        m = int(params.get(name, 2))
    except (TypeError, ValueError):
        raise SideConditionError(f"parameter {name!r} must be an integer") from None
    if not 2 <= m <= MAX_DIM - 3:
        raise SideConditionError(f"{family} requires 2 <= {name} <= {MAX_DIM - 3}")
    return m


def _vector(params, name, field, all_names, allowed, default):
    """Fetch a vector parameter as a {name: coeff} dict with restricted support."""
    raw = params.get(name, default)
    if isinstance(raw, str):
        vec = parse_combination(raw, field, all_names)
        combo = {nm: v for nm, v in zip(all_names, vec) if v}
    elif isinstance(raw, dict):
        combo = {nm: field.coerce(v) for nm, v in raw.items() if field.coerce(v)}
    else:
        raise SideConditionError(f"parameter {name!r} must be a combination of basis names")
    bad = set(combo) - set(allowed)
    if bad:
        raise SideConditionError(
            f"parameter {name!r} may only involve {', '.join(allowed)}; got {', '.join(sorted(bad))}"
        )
    return combo


def _merge(*combos) -> dict:
    out: dict = {}
    for combo in combos:
        for nm, v in combo.items():
            acc = out.get(nm)
            out[nm] = v if acc is None else acc + v
    return {nm: v for nm, v in out.items() if v}


# dimension 3


def _build_a_alpha(params, field):
    a = _scalar(params, "alpha", field)
    return lie_from_tables(
        field,
        ("x", "y", "z"),
        {
            ("x", "y"): {"x": 1},
            ("x", "z"): {"x": 1, "y": 1},
            ("y", "z"): {"z": 1, "x": a},
        },
        {("y", "z"): -1},
    )


def _build_b(params, field):
    return lie_from_tables(
        field,
        ("x", "y", "z"),
        {
            ("x", "y"): {"y": 1},
            ("x", "z"): {"y": 1, "z": 1},
            ("y", "z"): {"x": 1},
        },
        {("y", "z"): 2},
    )


def _check_alpha_side_condition(a, family):
    if _scalar_equals(a, 0) or _scalar_equals(a, -1):
        raise SideConditionError(f"{family} requires alpha not in {{0, -1}}")


def _build_c_alpha(params, field):
    a = _scalar(params, "alpha", field)
    _check_alpha_side_condition(a, "C_alpha")
    return lie_from_tables(
        field,
        ("x", "y", "z"),
        {
            ("x", "y"): {"y": 1},
            ("x", "z"): {"z": a},
            ("y", "z"): {"x": 1},
        },
        {("y", "z"): field.one + a},
    )


# dimension 4


def _build_g1_alpha(params, field):
    a = _scalar(params, "alpha", field)
    return lie_from_tables(
        field,
        ("x", "y", "z", "e"),
        {
            ("e", "x"): {"e": 1, "y": a},
            ("e", "y"): {"e": -1, "x": 1},
            ("y", "z"): {"z": 1},
            ("x", "y"): {"y": 1},
        },
        {("e", "x"): a, ("x", "y"): 1},
    )


def _build_h1_alpha(params, field):
    a = _scalar(params, "alpha", field)
    return lie_from_tables(
        field,
        ("x", "y", "z", "e"),
        {
            ("e", "x"): {"e": 1, "y": a},
            ("e", "y"): {"e": -1, "x": 1, "z": 1},
            ("y", "z"): {"z": 1},
            ("x", "y"): {"y": 1},
        },
        {("e", "x"): a, ("x", "y"): 1},
    )


def _build_atilde_alpha(params, field):
    a = _scalar(params, "alpha", field)
    return lie_from_tables(
        field,
        ("x", "y", "z", "e"),
        {
            ("x", "y"): {"x": 1},
            ("x", "z"): {"x": 1, "y": 1},
            ("y", "z"): {"z": 1, "x": a},
            ("e", "z"): {"e": 1},
        },
        {("y", "z"): -1},
    )


def _build_btilde(params, field):
    # The only e-bracket consistent with the omega-Jacobi identity is
    # [e,x] = -2e: extending B by a bracket [e,u] = d(u) e forces
    # d([u,v]) = -omega(u,v), hence d(x) = -2 and d(y) = d(z) = 0.
    return lie_from_tables(
        field,
        ("x", "y", "z", "e"),
        {
            ("x", "y"): {"y": 1},
            ("x", "z"): {"y": 1, "z": 1},
            ("y", "z"): {"x": 1},
            ("e", "x"): {"e": -2},
        },
        {("y", "z"): 2},
    )


def _build_ctilde_alpha(params, field):
    a = _scalar(params, "alpha", field)
    _check_alpha_side_condition(a, "Ctilde_alpha")
    return lie_from_tables(
        field,
        ("x", "y", "z", "e"),
        {
            ("x", "y"): {"y": 1},
            ("x", "z"): {"z": a},
            ("y", "z"): {"x": 1},
            ("e", "x"): {"e": -(field.one + a)},
        },
        {("y", "z"): field.one + a},
    )


# dimension >= 5


def _build_p1(params, field):
    m = _abelian_dim(params, "dim_h1", "P1")
    a = _scalar(params, "a", field, default=1)
    if _scalar_equals(a, 0):
        raise SideConditionError("P1 requires a != 0")
    fs = tuple(f"f{i}" for i in range(1, m + 1))
    names = ("h0",) + fs + ("x", "v")
    h1 = _vector(params, "h1", field, names, ("h0",) + fs, "h0")
    h2 = _vector(params, "h2", field, names, fs, "f1")
    inv_a = field.one / a
    brackets = {("x", "h0"): {"h0": -a}}
    for f in fs:
        brackets[("v", f)] = {f: inv_a}
    brackets[("v", "h0")] = _merge(h2, {"h0": inv_a, "x": field.one})
    brackets[("x", "v")] = _merge(h1, {"v": a})
    return lie_from_tables(field, names, brackets, {("x", "v"): 1})


def _build_p2(params, field):
    m = _abelian_dim(params, "dim_h", "P2")
    b1 = _scalar(params, "b1", field, default=1)
    b2 = _scalar(params, "b2", field, default=0)
    c1 = _scalar(params, "c1", field, default=-2)
    if _scalar_equals(b1, 0) or _scalar_equals(c1, 0):
        raise SideConditionError("P2 requires b1 != 0 and c1 != 0")
    if b1 + c1 + field.one:
        raise SideConditionError("P2 requires b1 + c1 + 1 = 0")
    fs = tuple(f"f{i}" for i in range(1, m + 1))
    names = fs + ("x", "y", "a")
    h1 = _vector(params, "h1", field, names, fs, "f1")
    h2 = _vector(params, "h2", field, names, fs, "f2")
    h3 = _vector(params, "h3", field, names, fs, "0")
    brackets = {}
    for f in fs:
        brackets[("a", f)] = {f: 1}
    brackets[("x", "y")] = _merge(h3, {"a": field.one})
    brackets[("x", "a")] = _merge(h1, {"x": b1, "y": b2})
    brackets[("y", "a")] = _merge(h2, {"y": c1})
    return lie_from_tables(field, names, brackets, {("x", "y"): 1})


# dimension 3 left-symmetric families


def _lsa_params(params, field):
    return tuple(_scalar(params, k, field, default=0) for k in ("a1", "a2", "a3"))


def _build_lsa3_1(params, field):
    a1, a2, a3 = _lsa_params(params, field)
    one = field.one
    q1 = {"e1": a1, "e2": a2, "e3": a3}
    q2 = {"e1": a1 - one, "e2": a2 + one, "e3": a3}
    q3 = {"e1": 2 - a1, "e2": one - a2, "e3": one - a3}
    # Rows e1* and e2* coincide; e3 e_j = 2 e_j - (e1 e_j), i.e. the left
    # multiplications satisfy l_{e3} = 2 id - l_{e1}.
    def flip(q, unit):
        return _merge({unit: field.coerce(2)}, {k: -v for k, v in q.items()})

    products = {
        ("e1", "e1"): q1, ("e2", "e1"): q1, ("e3", "e1"): flip(q1, "e1"),
        ("e1", "e2"): q2, ("e2", "e2"): q2, ("e3", "e2"): flip(q2, "e2"),
        ("e1", "e3"): q3, ("e2", "e3"): q3, ("e3", "e3"): flip(q3, "e3"),
    }
    return lsa_from_tables(
        field,
        ("e1", "e2", "e3"),
        products,
        {("e2", "e3"): 2, ("e3", "e1"): -2},
    )


def _build_lsa3_2(params, field):
    a1, a2, a3 = _lsa_params(params, field)
    one = field.one
    r1 = {"e2": one, "e3": one}
    r2 = {"e1": a1, "e2": a2, "e3": a3}
    r3 = {"e1": a1 + one, "e2": a2, "e3": a3}
    products = {
        ("e1", "e1"): {"e1": 2}, ("e1", "e2"): {"e2": 2}, ("e1", "e3"): {"e3": 2},
        ("e2", "e1"): r1, ("e3", "e1"): r1,
        ("e2", "e2"): r2, ("e3", "e2"): r2,
        ("e2", "e3"): r3, ("e3", "e3"): r3,
    }
    return lsa_from_tables(
        field,
        ("e1", "e2", "e3"),
        products,
        {("e2", "e3"): 2},
    )


_ALPHA_SLOT = ParameterSlot("alpha", "scalar", None, "formal over Q(alpha); any rational over Q")
_ALPHA_RESTRICTED = ParameterSlot("alpha", "scalar", None, "must avoid 0 and -1")
_LSA_SLOTS = tuple(ParameterSlot(k, "scalar", "0") for k in ("a1", "a2", "a3"))

_BUILDERS = {}
_ENTRIES: dict[str, CatalogEntry] = {}


def _register(entry: CatalogEntry, builder):
    _ENTRIES[entry.name] = entry
    _BUILDERS[entry.name] = builder


_register(CatalogEntry("A_alpha", "lie", 3, True, (_ALPHA_SLOT,),
                       "[x,y]=x, [x,z]=x+y, [y,z]=z+alpha*x, w(y,z)=-1"), _build_a_alpha)
_register(CatalogEntry("B", "lie", 3, True, (),
                       "[x,y]=y, [x,z]=y+z, [y,z]=x, w(y,z)=2"), _build_b)
_register(CatalogEntry("C_alpha", "lie", 3, True, (_ALPHA_RESTRICTED,),
                       "[x,y]=y, [x,z]=alpha*z, [y,z]=x, w(y,z)=1+alpha"), _build_c_alpha)
_register(CatalogEntry("G1_alpha", "lie", 4, True, (_ALPHA_SLOT,),
                       "[e,x]=e+alpha*y, [e,y]=-e+x, [y,z]=z, [x,y]=y, w(e,x)=alpha, w(x,y)=1"), _build_g1_alpha)
_register(CatalogEntry("H1_alpha", "lie", 4, True, (_ALPHA_SLOT,),
                       "[e,x]=e+alpha*y, [e,y]=-e+x+z, [y,z]=z, [x,y]=y, w(e,x)=alpha, w(x,y)=1"), _build_h1_alpha)
_register(CatalogEntry("Atilde_alpha", "lie", 4, True, (_ALPHA_SLOT,),
                       "A_alpha extended by [e,z]=e"), _build_atilde_alpha)
_register(CatalogEntry("Btilde", "lie", 4, True, (),
                       "B extended by [e,x]=-2e"), _build_btilde)
_register(CatalogEntry("Ctilde_alpha", "lie", 4, True, (_ALPHA_RESTRICTED,),
                       "C_alpha extended by [e,x]=-(1+alpha)e"), _build_ctilde_alpha)
_register(CatalogEntry("P1", "lie", 5, False, (
    ParameterSlot("dim_h1", "int", "2", "dimension of the abelian part H1, at least 2"),
    ParameterSlot("a", "scalar", "1", "must be nonzero"),
    ParameterSlot("h1", "vector", "h0", "element of span(h0, f1..fm)"),
    ParameterSlot("h2", "vector", "f1", "element of span(f1..fm)"),
), "[x,h0]=-a*h0, [v,f]=f/a, [v,h0]=h2+h0/a+x, [x,v]=h1+a*v, w(x,v)=1"), _build_p1)
_register(CatalogEntry("P2", "lie", 5, False, (
    ParameterSlot("dim_h", "int", "2", "dimension of the abelian part H, at least 2"),
    ParameterSlot("b1", "scalar", "1", "nonzero; b1+c1+1=0"),
    ParameterSlot("b2", "scalar", "0", ""),
    ParameterSlot("c1", "scalar", "-2", "nonzero; b1+c1+1=0"),
    ParameterSlot("h1", "vector", "f1", "element of span(f1..fm)"),
    ParameterSlot("h2", "vector", "f2", "element of span(f1..fm)"),
    ParameterSlot("h3", "vector", "0", "element of span(f1..fm)"),
), "[a,f]=f, [x,y]=h3+a, [x,a]=h1+b1*x+b2*y, [y,a]=h2+c1*y, w(x,y)=1"), _build_p2)
_register(CatalogEntry("LSA3-1", "lsa", 3, True, _LSA_SLOTS,
                       "row e1* = row e2*, l_e3 = 2id - l_e1; w(e2,e3)=2, w(e3,e1)=-2"), _build_lsa3_1)
_register(CatalogEntry("LSA3-2", "lsa", 3, True, _LSA_SLOTS,
                       "l_e1 = 2id, row e2* = row e3*; w(e2,e3)=2"), _build_lsa3_2)


# Non-default instances exercised alongside the defaults by verify-theorem1.
ALTERNATE_PARAMS = {
    "P1": {"dim_h1": "2", "a": "2", "h1": "h0 + 2*f2", "h2": "f2"},
    "P2": {"dim_h": "2", "b1": "2", "b2": "3", "c1": "-3", "h1": "f2", "h2": "f1 + f2", "h3": "f1"},
}


def list_entries(kind: str | None = None) -> list[CatalogEntry]:
    return [entry for entry in _ENTRIES.values() if kind is None or entry.kind == kind]


def get_entry(name: str) -> CatalogEntry:
    try:
        return _ENTRIES[name]
    except KeyError:
        raise ValueError(
            f"unknown family {name!r}; known: {', '.join(_ENTRIES)}"
        ) from None


def instantiate(name: str, params: dict | None = None, field: Field = QQ):
    """Build a catalog algebra; validates parameter names, side conditions and
    the axioms."""
    params = dict(params or {})
    slots = [s.name for s in get_entry(name).slots]
    unknown = sorted(set(params) - set(slots))
    if unknown:
        raise SideConditionError(
            f"{name} has no parameter {', '.join(map(repr, unknown))}; "
            f"its parameters are: {', '.join(slots) or 'none'}"
        )
    return _BUILDERS[name](params, field)
