"""The module-identity residuals against symbolic matrix products.

Random omega-Lie algebras of dimension 2..4, built without the axiom check
(bracket and omega entries with zeros, small fractions and values up to
2**70), and random affine spaces of dimension 0..6 from ``AffineSpace.make``
(origins holding zeros, basis entries with large denominators) go through
``module_identity_residuals``.  Its residuals must equal those of the
reference in ``tests/oracles.py``, in the same order, keyed on the same
packed monomials: over Q each is exactly the reference's primitive integer
associate, with int entries of content 1; over Q(alpha), some draws, each is
the reference's.  Many Q draws have rows whose content at the builder's
common scale D*D*E is above 1, so the division by it is exercised; they are
counted.
"""

from fractions import Fraction
from math import gcd, lcm

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from oracles import keyed_residuals_reference, residuals_reference  # noqa: E402

from omlie.admissible import module_identity_residuals  # noqa: E402
from omlie.algebra import OmegaForm, OmegaLieAlgebra, StructureTensor  # noqa: E402
from omlie.fields import QALPHA, QQ  # noqa: E402
from omlie.linalg import AffineSpace  # noqa: E402

HUGE = 2**70

rationals = st.one_of(
    st.just(Fraction(0)),
    st.integers(-3, 3).map(Fraction),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)),
    st.builds(Fraction, st.integers(-HUGE, HUGE), st.integers(1, HUGE)),
)
alpha_values = st.sampled_from(
    ["0", "1", "-2", "alpha", "1/(alpha-1)", "alpha^2-3/2", "(2*alpha+1)/(alpha^2+5)"]
).map(QALPHA.parse)


@st.composite
def cases(draw):
    """(algebra, space): an unchecked omega-Lie algebra and an affine space
    over its n^3 operator coordinates, both over one field."""
    field = draw(st.sampled_from([QQ, QQ, QQ, QALPHA]))
    scalars = rationals if field is QQ else st.one_of(rationals, alpha_values)
    n = draw(st.integers(2, 4))
    N = n**3
    coeffs = [[[draw(scalars) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    omega = [[field.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w = field.coerce(draw(scalars))
            omega[i][j], omega[j][i] = w, -w
    L = OmegaLieAlgebra(
        field,
        [f"e{k + 1}" for k in range(n)],
        StructureTensor(field, coeffs),
        OmegaForm(field, omega),
    )
    coordinates = st.integers(0, N - 1)
    nonzero_origin = draw(st.dictionaries(coordinates, scalars, max_size=N // 2))
    origin = [nonzero_origin.get(v, field.zero) for v in range(N)]
    vectors = draw(
        st.lists(st.dictionaries(coordinates, scalars, min_size=1, max_size=6), max_size=6)
    )
    return L, AffineSpace.make(field, origin, vectors)


def _contents_at_common_scale(L, space):
    """The content of each reference residual over Q at D*D*E, where D is the
    lcm of the space's denominators and E that of the bracket and omega
    entries the builder reads: the gcd its primitive associate divides out."""
    n = L.dim
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    D = lcm(*(v.denominator for row in space.basis for v in row.values()),
            *(o.denominator for o in space.origin))
    E = lcm(*(v.denominator for i, j in pairs for v in L.bracket.pair(i, j)),
            *(L.omega.entry(i, j).denominator for i, j in pairs))
    contents = []
    for p in residuals_reference(L, space):
        scaled = [c * D * D * E for c in p.terms.values()]
        assert all(v.denominator == 1 for v in scaled)
        contents.append(gcd(*(v.numerator for v in scaled)))
    return contents


def test_residuals_match_symbolic_matrix_products():
    rows = {"Q": 0, "content above 1": 0, "Q(alpha)": 0}

    @settings(max_examples=150, deadline=None)
    @given(cases())
    def check(case):
        L, space = case
        got = module_identity_residuals(L, space)
        assert got == keyed_residuals_reference(L, space)
        if L.field is QQ:
            assert all(type(v) is int for p in got for v in p.values())
            assert all(gcd(*p.values()) == 1 for p in got)
            contents = _contents_at_common_scale(L, space)
            rows["Q"] += len(contents)
            rows["content above 1"] += sum(1 for g in contents if g > 1)
        else:
            rows["Q(alpha)"] += len(got)

    check()
    assert rows["content above 1"] and rows["Q(alpha)"], rows
