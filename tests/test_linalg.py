import random
from fractions import Fraction

import pytest

from omlie.fields import QALPHA, QQ, track_denominators
from omlie.linalg import AffineSpace, Matrix, eliminate, intersect, invert, rref, solve_affine

from oracles import eliminate_reference, random_fraction, scalar_matrix


def M(rows, field=QQ, ncols=None):
    return Matrix(field, rows, ncols=ncols)


class TestRref:
    def test_identity_fixed(self):
        I3 = scalar_matrix(QQ, 3, 1)
        R, rk, piv = rref(I3)
        assert R == I3 and rk == 3 and piv == (0, 1, 2)

    def test_dependent_rows(self):
        R, rk, piv = rref(M([[1, 2], [2, 4]]))
        assert R == M([[1, 2], [0, 0]])
        assert rk == 1 and piv == (0,)

    def test_alpha_diagonal_invertible(self):
        a = QALPHA.alpha
        R, rk, _ = rref(M([[a, 0], [0, a]], field=QALPHA))
        assert R == scalar_matrix(QALPHA, 2, 1)
        assert rk == 2

    def test_projector_on_random_matrices(self):
        rng = random.Random(5)
        for _ in range(25):
            rows = [
                [random_fraction(rng) for _ in range(rng.randint(1, 5))]
                for _ in range(rng.randint(1, 5))
            ]
            width = max(len(r) for r in rows)
            rows = [r + [Fraction(0)] * (width - len(r)) for r in rows]
            m = M(rows)
            R1, rk1, piv1 = rref(m)
            R2, rk2, piv2 = rref(R1)
            assert R1 == R2 and rk1 == rk2 and piv1 == piv2

    def test_rank_nullity(self):
        rng = random.Random(11)
        for _ in range(25):
            nr, nc = rng.randint(1, 5), rng.randint(1, 5)
            m = M([[random_fraction(rng) for _ in range(nc)] for _ in range(nr)])
            _, rk, piv = rref(m)
            rows = [dict(enumerate(row)) for row in m.rows]
            assert rk + solve_affine(QQ, rows, nc).dim == nc


def _sparse_random_rows(rng, nr, nc):
    """Mostly-zero rows plus exact combinations of earlier rows, so that
    elimination both fills in entries and cancels whole rows to zero."""
    rows = []
    for _ in range(nr):
        if len(rows) >= 2 and rng.random() < 0.35:
            a, b = rng.sample(rows, 2)
            s, t = random_fraction(rng) or Fraction(1), random_fraction(rng)
            rows.append([s * x + t * y for x, y in zip(a, b)])
            continue
        row = [Fraction(0)] * nc
        for c in rng.sample(range(nc), rng.randint(0, min(3, nc))):
            row[c] = random_fraction(rng)
        rows.append(row)
    rng.shuffle(rows)
    return rows


def test_rref_matches_sympy_on_sparse_random_matrices():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(23)
    for _ in range(60):
        nr, nc = rng.randint(1, 8), rng.randint(1, 8)
        rows = _sparse_random_rows(rng, nr, nc)
        R, rk, piv = rref(M(rows, ncols=nc))
        S, spiv = sympy.Matrix(
            [[sympy.Rational(x.numerator, x.denominator) for x in r] for r in rows]
        ).rref()
        want = [[Fraction(int(v.p), int(v.q)) for v in S.row(i)] for i in range(nr)]
        assert [list(r) for r in R.rows] == want
        assert piv == tuple(spiv) and rk == len(spiv)


class TestSolveAffine:
    def test_unique_point(self):
        s = solve_affine(QQ, [{0: 1, 2: 1}, {1: 1, 2: 2}], 2)
        assert s.feasible and s.is_point
        assert s.origin == (Fraction(1), Fraction(2))
        assert s.basis == ()

    def test_one_dimensional_kernel(self):
        s = solve_affine(QQ, [{0: 1, 1: 1}], 2)
        assert s.origin == (Fraction(0), Fraction(0))
        assert s.basis == ({0: Fraction(1), 1: Fraction(-1)},)

    def test_contradictory_rows(self):
        s = solve_affine(QQ, [{0: 1}, {0: 1, 1: 1}], 1)
        assert not s.feasible
        assert s.dim == -1

    def test_sampled_points_satisfy_system(self):
        rng = random.Random(17)
        for _ in range(20):
            nr, nc = rng.randint(1, 4), rng.randint(1, 5)
            a = M([[random_fraction(rng) for _ in range(nc)] for _ in range(nr)])
            x0 = [random_fraction(rng) for _ in range(nc)]
            b = a.apply(x0)
            s = solve_affine(QQ, [dict(enumerate((*row, bv))) for row, bv in zip(a.rows, b)], nc)
            assert s.feasible and AffineSpace.make(QQ, x0, s.basis) == s
            for _ in range(4):
                pt = s.at([random_fraction(rng) for _ in s.basis])
                assert a.apply(pt) == b


class TestIntersect:
    def test_empty_constraints_leave_space_unchanged(self):
        s = solve_affine(QQ, [{0: 1, 1: 1, 3: 3}], 3)
        t = intersect(s, [])
        assert t == s

    def test_two_hyperplanes_pin_a_point(self):
        s = solve_affine(QQ, [], 2)
        s = intersect(s, [{0: 1, 2: 1}])
        s = intersect(s, [{1: 1, 2: 2}])
        assert s.is_point and s.origin == (Fraction(1), Fraction(2))

    def test_line_meets_coordinate_plane(self):
        line = AffineSpace.make(QQ, (0, 0), [{0: 1, 1: -1}])  # {(t, -t)}
        pt = intersect(line, [{0: 1, 2: 3}])
        assert pt.is_point and pt.origin == (Fraction(3), Fraction(-3))

    def test_infeasible_intersection(self):
        line = AffineSpace.make(QQ, (0, 0), [{0: 1, 1: -1}])
        out = intersect(line, [{0: 1, 1: 1, 2: 5}])
        assert not out.feasible

    def test_canonical_equality_of_equal_sets(self):
        # same line described two ways
        s1 = AffineSpace.make(QQ, (1, -1), [{0: 2, 1: -2}])
        s2 = AffineSpace.make(QQ, (5, -5), [{0: -7, 1: 7}])
        assert s1 == s2


def _random_scalar(rng, field):
    """A nonzero element; over Q(alpha) a genuine rational function."""
    x = random_fraction(rng) or Fraction(1)
    if field is QQ:
        return x
    num = x + random_fraction(rng) * QALPHA.alpha
    return num / (rng.randint(1, 3) + QALPHA.alpha) if num else QALPHA.one


def _random_system(rng, field, point, nrows):
    """Sparse rows in len(point) unknowns (right-hand side at column n) that
    the point satisfies."""
    n = len(point)
    rows = []
    for _ in range(nrows):
        row = {c: _random_scalar(rng, field) for c in rng.sample(range(n), rng.randint(1, min(4, n)))}
        rhs = sum((v * point[c] for c, v in row.items()), field.zero)
        if rhs:
            row[n] = rhs
        rows.append(row)
    return rows


@pytest.mark.parametrize("field", [QQ, QALPHA], ids=["Q", "Qalpha"])
def test_intersect_matches_one_shot_solve(field):
    rng = random.Random(31)
    for trial in range(24):
        n = rng.randint(1, 6)
        point = [field.coerce(random_fraction(rng)) for _ in range(n)]
        a = _random_system(rng, field, point, rng.randint(0, n))
        kind = trial % 3
        if kind == 0:  # empty
            b = []
        elif kind == 1:  # feasible
            b = _random_system(rng, field, point, rng.randint(1, n))
        else:  # infeasible: one row repeated with a shifted right-hand side
            b = _random_system(rng, field, point, rng.randint(1, n))
            row = dict(rng.choice(b))
            row[n] = row.get(n, field.zero) + field.one
            b.insert(rng.randint(0, len(b)), row)
        got = intersect(solve_affine(field, a, n), b)
        want = solve_affine(field, a + b, n)
        assert got == want
        assert got.feasible == (kind != 2)


def _random_sparse_rows(rng, field, nr, nc):
    """Sparse rows in shuffled order (so that pivots need swaps), among them
    empty rows, rows of explicit zeros, duplicates and combinations of earlier
    rows that cancel to zero during elimination."""
    zero = field.zero
    rows = []
    for _ in range(nr):
        kind = rng.random()
        if rows and kind < 0.15:
            rows.append(dict(rng.choice(rows)))
        elif len(rows) >= 2 and kind < 0.35:
            a, b = rng.sample(rows, 2)
            s, t = _random_scalar(rng, field), _random_scalar(rng, field)
            rows.append({c: s * a.get(c, zero) + t * b.get(c, zero) for c in a.keys() | b.keys()})
        elif kind < 0.45:
            rows.append({rng.randrange(nc): zero} if rng.random() < 0.5 else {})
        else:
            cols = rng.sample(range(nc), rng.randint(1, min(4, nc)))
            rows.append({c: _random_scalar(rng, field) for c in cols})
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("field", [QQ, QALPHA], ids=["Q", "Qalpha"])
def test_eliminate_matches_reference_loop(field):
    # Over Q(alpha) the trail pins which entries are inverted, in order: the
    # pivot must be the first remaining row holding the column.  With
    # keep_from the rows from keep_from on are the full elimination's, after
    # the same inversions; the rows before it are an echelon form (unit
    # pivots, zero in every earlier pivot column) that with them spans the
    # input, so the RREF of everything returned is the input's.
    rng = random.Random(41)
    for _ in range(60):
        nc = rng.randint(1, 8)
        rows = _random_sparse_rows(rng, field, rng.randint(0, 10), nc)
        before = [dict(row) for row in rows]
        with track_denominators() as want_trail:
            want_rows, want_pivots = eliminate_reference(field, rows)
        for keep_from in sorted({0, rng.randint(1, nc), nc + 1}):
            with track_denominators() as got_trail:
                got_rows, got_pivots = eliminate(field, rows, keep_from)
            cut = sum(1 for pc in got_pivots if pc < keep_from)
            kept = [k for k, pc in enumerate(want_pivots) if pc >= keep_from]
            assert got_rows[cut:] == [want_rows[k] for k in kept]
            assert got_pivots[cut:] == [want_pivots[k] for k in kept]
            assert got_trail == want_trail
            assert got_pivots == want_pivots
            for k, (row, pc) in enumerate(zip(got_rows[:cut], got_pivots)):
                assert min(row) == pc and row[pc] == field.one
                assert not any(c in row for c in got_pivots[:k])
            assert eliminate_reference(field, got_rows) == (want_rows, want_pivots)
        assert rows == before


class _Tally:
    """A rational that counts the multiplications made with it."""

    products = 0

    def __init__(self, v):
        self.v = Fraction(v)

    def __mul__(self, other):
        _Tally.products += 1
        return _Tally(self.v * other.v)

    def __sub__(self, other):
        return _Tally(self.v - other.v)

    def __neg__(self):
        return _Tally(-self.v)

    def __truediv__(self, other):
        return _Tally(self.v / other.v)

    def __bool__(self):
        return bool(self.v)

    def __eq__(self, other):
        return self.v == other.v


def test_keep_from_skips_back_substitution_into_dropped_rows():
    # Row 0 pivots on column 0 < keep_from and is set aside, so the pivot on
    # column 1 must not be back-substituted into it: it comes back as it was.
    one = _Tally(1)
    field = type("TallyField", (), {"one": one})
    rows = [{0: one, 1: one}, {1: one, 2: one}]
    counts = []
    for keep_from in (0, 1):
        _Tally.products = 0
        out, pivots = eliminate(field, rows, keep_from)
        counts.append(_Tally.products)
    out = [{c: v.v for c, v in row.items()} for row in out]
    assert pivots[1:] == [1] and out[1:] == [{1: 1, 2: 1}]
    assert pivots[:1] == [0] and out[:1] == [{0: 1, 1: 1}]
    assert counts == [1, 0]


def test_columns_outside_range_rejected():
    with pytest.raises(ValueError):
        solve_affine(QQ, [{0: 1, 3: 1}], 2)
    with pytest.raises(ValueError):
        solve_affine(QQ, [{-1: 1, 2: 1}], 2)
    plane = solve_affine(QQ, [], 2)
    with pytest.raises(ValueError):
        intersect(plane, [{0: 1}, {5: 1}])
    with pytest.raises(ValueError):
        intersect(plane, [{-1: 1}])
    with pytest.raises(ValueError):
        plane.restrict([{0: 1, 3: 1}])


def test_invert_and_singular():
    t = M([[1, 2], [3, 4]])
    assert invert(t) == M([[-2, 1], [Fraction(3, 2), Fraction(-1, 2)]])
    with pytest.raises(ValueError):
        invert(M([[1, 2], [2, 4]]))


def test_scalar_identity_multiple():
    assert scalar_matrix(QQ, 3, 5).scalar_identity_multiple() == 5
    assert M([[2, 1], [0, 2]]).scalar_identity_multiple() is None
    assert scalar_matrix(QQ, 2, 0).scalar_identity_multiple() == 0
