import random
from fractions import Fraction

import pytest

from omlie.algebra import (
    OmegaForm,
    OmegaLieAlgebra,
    OmegaLsaAlgebra,
    StructureTensor,
    basis_change,
    check_module_identity,
    check_omega_lie,
    check_omega_lsa,
    commutator_algebra,
    derived_subalgebra,
    is_perfect,
    left_mult,
    lie_from_tables,
    lsa_from_tables,
    specialize,
)
from omlie.catalog import instantiate
from omlie.errors import AxiomCheckError
from omlie.fields import QALPHA, QQ
from omlie.linalg import Matrix, rref

from oracles import lie_residuals_bruteforce, lsa_residuals_bruteforce, random_fraction
from oracles import module_identity_reference, scalar_matrix


def a_alpha(field, alpha=None):
    a = field.coerce(alpha) if alpha is not None else QALPHA.alpha
    return lie_from_tables(
        field,
        ("x", "y", "z"),
        {("x", "y"): {"x": 1}, ("x", "z"): {"x": 1, "y": 1}, ("y", "z"): {"z": 1, "x": a}},
        {("y", "z"): -1},
    )


def abelian(field, names):
    return lie_from_tables(field, names, {}, {})


class TestCheckOmegaLie:
    def test_a_alpha_generic_passes(self):
        L = a_alpha(QALPHA)
        assert check_omega_lie(L).ok
        assert lie_residuals_bruteforce(L) == []

    def test_zero_algebra_passes(self):
        L = abelian(QQ, ("u", "v", "w", "t"))
        assert check_omega_lie(L).ok

    def test_flipped_omega_fails_with_frozen_residual(self):
        # same bracket table but omega(y,z) = +1: the (x,y,z) residual is -2x
        L = lie_from_tables(
            QQ,
            ("x", "y", "z"),
            {("x", "y"): {"x": 1}, ("x", "z"): {"x": 1, "y": 1}, ("y", "z"): {"z": 1, "x": 2}},
            {("y", "z"): 1},
            check=False,
        )
        rep = check_omega_lie(L)
        assert not rep.ok
        law, key, residual = rep.failures[0]
        assert (law, key) == ("jacobi", (0, 1, 2))
        assert residual == (Fraction(-2), Fraction(0), Fraction(0))
        assert lie_residuals_bruteforce(L) != []

    def test_antisymmetry_violation_reported(self):
        t = StructureTensor.zero(QQ, 2).coeffs
        t = [[list(v) for v in blk] for blk in t]
        t[0][1][0] = Fraction(1)
        t[1][0][0] = Fraction(1)  # should be -1
        L = OmegaLieAlgebra(QQ, ("u", "v"), StructureTensor(QQ, t), OmegaForm.zero(QQ, 2))
        rep = check_omega_lie(L)
        assert not rep.ok
        assert rep.failures[0][0] == "antisymmetry"

    def test_bruteforce_agrees_on_random_candidates(self):
        rng = random.Random(31)
        for _ in range(10):
            n = rng.randint(2, 3)
            coeffs = [
                [[random_fraction(rng, 3, 2) for _ in range(n)] for _ in range(n)]
                for _ in range(n)
            ]
            # antisymmetrize so only the jacobi part is in question
            t = StructureTensor(QQ, coeffs).antisymmetrized()
            pairs = {}
            for i in range(n):
                for j in range(i + 1, n):
                    pairs[(i, j)] = random_fraction(rng, 3, 2)
            L = OmegaLieAlgebra(
                QQ, tuple(f"b{i}" for i in range(n)), t, OmegaForm.from_pairs(QQ, n, pairs)
            )
            assert check_omega_lie(L).ok == (lie_residuals_bruteforce(L) == [])


class TestCheckOmegaLsa:
    def test_family2_at_zero_passes(self):
        A = instantiate("LSA3-2", {}, QQ)
        assert check_omega_lsa(A).ok
        assert lsa_residuals_bruteforce(A) == []

    def test_zero_product_zero_omega_passes(self):
        A = lsa_from_tables(QQ, ("u", "v"), {}, {})
        assert check_omega_lsa(A).ok

    def test_zero_product_nonzero_omega_fails(self):
        A = lsa_from_tables(QQ, ("u", "v"), {}, {("u", "v"): 1}, check=False)
        rep = check_omega_lsa(A)
        assert not rep.ok
        # residual is -omega(u,v) e_z on every z
        assert rep.failures[0][2] == (Fraction(-1), Fraction(0))


class TestCommutator:
    def test_zero_product_gives_zero_bracket(self):
        A = lsa_from_tables(QQ, ("u", "v"), {}, {})
        L = commutator_algebra(A)
        assert L.bracket == StructureTensor.zero(QQ, 2)

    def test_family2_bracket_table_frozen(self):
        # hand expansion: [e1,e2] = e2 - e3, [e1,e3] = e3 - e2, [e2,e3] = e1
        A = instantiate("LSA3-2", {}, QQ)
        L = commutator_algebra(A)
        assert L.bracket.pair(0, 1) == (Fraction(0), Fraction(1), Fraction(-1))
        assert L.bracket.pair(0, 2) == (Fraction(0), Fraction(-1), Fraction(1))
        assert L.bracket.pair(1, 2) == (Fraction(1), Fraction(0), Fraction(0))
        assert check_omega_lie(L).ok

    def test_family_commutators_pass_lie_check_random_params(self):
        rng = random.Random(41)
        for name in ("LSA3-1", "LSA3-2"):
            for _ in range(10):
                params = {k: random_fraction(rng) for k in ("a1", "a2", "a3")}
                A = instantiate(name, params, QQ)
                L = commutator_algebra(A)
                assert check_omega_lie(L).ok
                assert lie_residuals_bruteforce(L) == []

    def test_invalid_input_rejected(self):
        A = lsa_from_tables(QQ, ("u", "v"), {}, {("u", "v"): 1}, check=False)
        with pytest.raises(AxiomCheckError):
            commutator_algebra(A)


class TestLeftMult:
    def test_family2_left_mults(self):
        A = instantiate("LSA3-2", {"a1": "1/2", "a2": "3", "a3": "-2"}, QQ)
        assert left_mult(A, 0) == scalar_matrix(QQ, 3, 2)
        assert left_mult(A, 1) == left_mult(A, 2)

    def test_zero_product(self):
        A = lsa_from_tables(QQ, ("u", "v"), {}, {})
        assert left_mult(A, 0) == left_mult(A, 1) == scalar_matrix(QQ, 2, 0)

    def test_index_out_of_range(self):
        A = lsa_from_tables(QQ, ("u", "v"), {}, {})
        with pytest.raises(IndexError):
            left_mult(A, 2)


class TestModuleIdentity:
    def test_family2_passes_and_pair_23_detail(self):
        A = instantiate("LSA3-2", {}, QQ)
        rep = check_module_identity(A)
        assert rep.ok
        # pair (e2, e3): l_[e2,e3] = l_e1 = 2 id equals omega(e2,e3) id = 2 id
        l1 = left_mult(A, 0)
        assert l1.scalar_identity_multiple() == 2
        assert A.omega.entry(1, 2) == 2

    def test_zero_zero_passes(self):
        A = lsa_from_tables(QQ, ("u", "v"), {}, {})
        assert check_module_identity(A).ok

    def test_residual_in_one_column(self):
        # u*v = u: the identity fails at (u, v, v) only, so the residual for
        # the pair (u, v) is zero but for its column v, which holds u
        A = lsa_from_tables(QQ, ("u", "v"), {("u", "v"): {"u": 1}}, {}, check=False)
        want = [("module-identity", (0, 1), Matrix(QQ, [[0, 1], [0, 0]]))]
        assert list(check_module_identity(A).failures) == want
        assert module_identity_reference(A) == [((0, 1), want[0][2].rows)]

    def test_equivalence_with_lsa_identity_on_random_tensors(self):
        # the operator identity IS the defining identity, for any tensor at all
        rng = random.Random(53)
        for _ in range(30):
            n = rng.randint(2, 4)
            coeffs = [
                [[random_fraction(rng, 3, 2) for _ in range(n)] for _ in range(n)]
                for _ in range(n)
            ]
            pairs = {
                (i, j): random_fraction(rng, 3, 2)
                for i in range(n)
                for j in range(i + 1, n)
            }
            A = OmegaLsaAlgebra(
                QQ,
                tuple(f"b{i}" for i in range(n)),
                StructureTensor(QQ, coeffs),
                OmegaForm.from_pairs(QQ, n, pairs),
            )
            rep = check_module_identity(A)
            assert [(key, res.rows) for _, key, res in rep.failures] == module_identity_reference(A)
            assert check_omega_lsa(A).ok == rep.ok
            assert check_omega_lsa(A).ok == (lsa_residuals_bruteforce(A) == [])


class TestDerivedAndPerfect:
    def test_a_alpha_is_perfect(self):
        L = a_alpha(QALPHA)
        basis, dim = derived_subalgebra(L)
        assert dim == 3 and is_perfect(L)

    def test_abelian_derived_zero(self):
        L = abelian(QQ, ("u", "v"))
        assert derived_subalgebra(L) == ((), 0)
        assert not is_perfect(L)

    def test_family2_commutator_not_perfect(self):
        L = commutator_algebra(instantiate("LSA3-2", {}, QQ))
        _, dim = derived_subalgebra(L)
        assert dim == 2
        assert not is_perfect(L)


class TestBasisChange:
    def test_identity_change_is_identity(self):
        L = a_alpha(QQ, 2)
        assert basis_change(L, scalar_matrix(QQ, 3, 1)) == L

    def test_g1_alpha_shift_matches_known_table(self):
        # replacing e by e + alpha*y turns the table into
        # [e',x] = e' - alpha*y, [e',y] = -e' + x + alpha*y, [e',z] = alpha*z,
        # [y,z] = z, [x,y] = y, omega(x,y) = 1 (and omega(e',x) = 0)
        a = QALPHA.alpha
        L = instantiate("G1_alpha", {}, QALPHA)
        T_rows = [[QALPHA.one if i == j else QALPHA.zero for j in range(4)] for i in range(4)]
        T_rows[1][3] = a  # column of e gains alpha at y; basis order (x, y, z, e)
        changed = basis_change(L, Matrix(QALPHA, T_rows))
        expected = lie_from_tables(
            QALPHA,
            ("x", "y", "z", "e"),
            {
                ("e", "x"): {"e": 1, "y": -a},
                ("e", "y"): {"e": -1, "x": 1, "y": a},
                ("e", "z"): {"z": a},
                ("y", "z"): {"z": 1},
                ("x", "y"): {"y": 1},
            },
            {("x", "y"): 1},
        )
        assert changed == expected

    def test_p1_shift_matches_known_bracket(self):
        # with x' = x + h2 the bracket [v, h0] becomes h0/a + x'
        L = instantiate("P1", {}, QQ)  # h2 = f1, a = 1; basis (h0, f1, f2, x, v)
        n = L.dim
        rows = [[QQ.one if i == j else QQ.zero for j in range(n)] for i in range(n)]
        rows[1][3] = QQ.one  # column of x gains f1
        changed = basis_change(L, Matrix(QQ, rows))
        i_v, i_h0, i_x = 4, 0, 3
        vec = changed.bracket.pair(i_v, i_h0)
        expected = [QQ.zero] * n
        expected[i_h0] = QQ.one
        expected[i_x] = QQ.one
        assert vec == tuple(expected)
        assert check_omega_lie(changed).ok

    def test_singular_change_rejected(self):
        L = a_alpha(QQ, 2)
        with pytest.raises(ValueError):
            basis_change(L, Matrix(QQ, [[1, 1, 0], [1, 1, 0], [0, 0, 1]]))

    def test_perfectness_invariant_under_random_changes(self):
        rng = random.Random(61)
        L = a_alpha(QQ, Fraction(1, 2))
        K = commutator_algebra(instantiate("LSA3-2", {}, QQ))
        for M0 in (L, K):
            flag = is_perfect(M0)
            done = 0
            while done < 8:
                T = Matrix(QQ, [[random_fraction(rng, 3, 3) for _ in range(3)] for _ in range(3)])
                if rref(T)[1] < 3:
                    continue
                changed = basis_change(M0, T)
                assert check_omega_lie(changed).ok
                assert is_perfect(changed) == flag
                done += 1


def test_specialize_matches_direct_instantiation():
    generic = a_alpha(QALPHA)
    at_two = specialize(generic, 2)
    assert at_two == a_alpha(QQ, 2)
    assert at_two.field is QQ
