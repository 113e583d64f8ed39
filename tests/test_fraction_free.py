"""The fraction-free integer elimination against the ``Fraction`` kernels.

Random sparse rows over Q (zero entries, empty rows, copies, combinations of
other rows, a copy with a changed right-hand side, entries with numerators and
denominators above 2**64) go through ``eliminate`` three ways: fraction-free
on their primitive integer associates (``primitive_rows`` of
``tests/oracles.py``) and read back with ``unit_rows``, by the field kernel
over Q, and by the reference loop of ``tests/oracles.py``.  The pivots and
rows must be equal, with every entry a ``Fraction``.
"""

from fractions import Fraction
from math import gcd

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from oracles import eliminate_reference, primitive_rows  # noqa: E402

from omlie.fields import QQ  # noqa: E402
from omlie.linalg import eliminate, unit_rows  # noqa: E402

HUGE = 2**70

entries = st.one_of(
    st.integers(-3, 3).map(Fraction),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)),
    st.builds(Fraction, st.integers(-HUGE, HUGE), st.integers(1, HUGE)),
)
nonzero = entries.filter(bool)


@st.composite
def systems(draw):
    """(n, rows, inconsistent): sparse rows over unknowns 0 .. n-1 with the
    right-hand side at column n; ``inconsistent`` when a row was copied with
    its right-hand side changed, so the span holds 0 = 1."""
    n = draw(st.integers(1, 6))
    base = draw(
        st.lists(st.dictionaries(st.integers(0, n), entries, max_size=4), max_size=7)
    )
    rows, inconsistent = list(base), False
    kinds = ("copy", "combination", "inconsistent")
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=3)) if base else ():
        a, b = draw(st.sampled_from(base)), draw(st.sampled_from(base))
        if kind == "copy":
            rows.append(dict(a))
        elif kind == "combination":
            s, t = draw(entries), draw(entries)
            rows.append({c: s * a.get(c, 0) + t * b.get(c, 0) for c in a.keys() | b.keys()})
        else:
            rows.append({**a, n: a.get(n, 0) + draw(nonzero)})
            inconsistent = True
    return n, draw(st.permutations(rows)), inconsistent


@settings(max_examples=300, deadline=None)
@given(systems(), st.data())
def test_fraction_free_elimination_matches_the_fraction_kernels(system, data):
    n, rows, inconsistent = system
    keep_from = data.draw(st.sampled_from([0, *range(1, n + 2)]), label="keep_from")
    before = [dict(row) for row in rows]
    ints = primitive_rows(rows)
    for row, irow in zip(rows, ints):
        assert irow.keys() == {c for c, v in row.items() if v}
        assert all(type(v) is int for v in irow.values())
        assert gcd(*irow.values()) in (0, 1)
    int_rows, pivots = eliminate(None, ints, keep_from)
    assert all(type(v) is int for row in int_rows for v in row.values())
    got = unit_rows(int_rows, pivots)
    assert all(type(v) is Fraction for row in got for v in row.values())
    # The field kernel, with the same keep_from: the same pivots and rows.
    assert (got, pivots) == eliminate(QQ, rows, keep_from)
    # The reference loop: the rows from keep_from on are the full RREF's,
    # and the ones before it an echelon form that with them spans the input.
    want_rows, want_pivots = eliminate_reference(QQ, rows)
    assert pivots == want_pivots
    cut = sum(1 for pc in pivots if pc < keep_from)
    assert got[cut:] == [row for row, pc in zip(want_rows, want_pivots) if pc >= keep_from]
    assert eliminate_reference(QQ, got) == (want_rows, want_pivots)
    if keep_from == 0:
        assert got == want_rows
    if inconsistent:
        assert pivots[-1] == n
    assert rows == before
