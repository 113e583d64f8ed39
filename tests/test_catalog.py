import random
from fractions import Fraction

import pytest

from omlie.algebra import check_omega_lie, check_omega_lsa, is_perfect
from omlie.catalog import (
    ALTERNATE_PARAMS,
    get_entry,
    instantiate,
    list_entries,
)
from omlie.errors import SideConditionError
from omlie.fields import QALPHA, QQ

from oracles import lie_residuals_bruteforce, random_fraction

LIE3 = {"A_alpha", "B", "C_alpha"}
LIE4 = {"G1_alpha", "H1_alpha", "Atilde_alpha", "Btilde", "Ctilde_alpha"}
SAMPLES = (Fraction(2), Fraction(-2), Fraction(1, 2))
LIE = list_entries("lie")


def _parametric(entry):
    return any(s.name == "alpha" for s in entry.slots)


class TestListing:
    def test_dim3_lie_entries(self):
        assert {e.name for e in LIE if e.min_dim == 3} == LIE3

    def test_dim4_lie_entries(self):
        names = {e.name for e in LIE if e.min_dim == 4}
        assert names == LIE4 and len(names) == 5

    def test_lsa_entries(self):
        assert {e.name for e in list_entries(kind="lsa")} == {"LSA3-1", "LSA3-2"}

    def test_ten_lie_families_total(self):
        assert len(LIE) == 10

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            get_entry("D_alpha")


class TestLieFamilies:
    @pytest.mark.parametrize("entry", LIE, ids=lambda e: e.name)
    def test_generic_instance_valid_and_perfect(self, entry):
        field = QALPHA if _parametric(entry) else QQ
        L = instantiate(entry.name, {}, field)
        assert check_omega_lie(L).ok
        assert is_perfect(L)

    @pytest.mark.parametrize("entry", filter(_parametric, LIE), ids=lambda e: e.name)
    def test_rational_samples_valid_and_perfect(self, entry):
        for a0 in SAMPLES:
            L = instantiate(entry.name, {"alpha": a0}, QQ)
            assert check_omega_lie(L).ok
            assert is_perfect(L)

    def test_c_alpha_pinned_table_at_two(self):
        L = instantiate("C_alpha", {"alpha": 2}, QQ)
        names = L.basis_names
        assert names == ("x", "y", "z")
        assert L.bracket.pair(0, 1) == (Fraction(0), Fraction(1), Fraction(0))
        assert L.bracket.pair(0, 2) == (Fraction(0), Fraction(0), Fraction(2))
        assert L.bracket.pair(1, 2) == (Fraction(1), Fraction(0), Fraction(0))
        assert L.omega.entry(1, 2) == Fraction(3)  # 1 + alpha at alpha = 2

    @pytest.mark.parametrize("family", ["C_alpha", "Ctilde_alpha"])
    @pytest.mark.parametrize("bad", [0, -1])
    def test_c_families_reject_excluded_alpha(self, family, bad):
        with pytest.raises(SideConditionError):
            instantiate(family, {"alpha": bad}, QQ)

    @pytest.mark.parametrize("family", ["G1_alpha", "H1_alpha", "Atilde_alpha"])
    def test_other_parametric_families_allow_alpha_zero(self, family):
        L = instantiate(family, {"alpha": 0}, QQ)
        assert check_omega_lie(L).ok and is_perfect(L)


class TestExtensionFamilies:
    def test_p1_default_valid_perfect_bruteforce(self):
        L = instantiate("P1", {}, QQ)
        assert L.dim == 5
        assert L.basis_names == ("h0", "f1", "f2", "x", "v")
        assert check_omega_lie(L).ok
        assert lie_residuals_bruteforce(L) == []
        assert is_perfect(L)

    def test_p2_default_valid_perfect_bruteforce(self):
        L = instantiate("P2", {}, QQ)
        assert L.dim == 5
        assert L.basis_names == ("f1", "f2", "x", "y", "a")
        assert check_omega_lie(L).ok
        assert lie_residuals_bruteforce(L) == []
        assert is_perfect(L)

    @pytest.mark.parametrize("name", ["P1", "P2"])
    def test_alternate_instances_valid_perfect(self, name):
        L = instantiate(name, ALTERNATE_PARAMS[name], QQ)
        assert check_omega_lie(L).ok and is_perfect(L)

    def test_p1_bigger_h1(self):
        L = instantiate("P1", {"dim_h1": 3, "a": "1/3", "h1": "h0 - f3", "h2": "f2"}, QQ)
        assert L.dim == 6
        assert check_omega_lie(L).ok and is_perfect(L)

    def test_p1_side_conditions(self):
        with pytest.raises(SideConditionError):
            instantiate("P1", {"a": 0}, QQ)
        with pytest.raises(SideConditionError):
            instantiate("P1", {"dim_h1": 1}, QQ)
        with pytest.raises(SideConditionError):
            instantiate("P1", {"h2": "h0"}, QQ)  # h2 must lie in span(f1..fm)
        with pytest.raises(SideConditionError):
            instantiate("P1", {"h1": "x"}, QQ)

    def test_p2_side_conditions(self):
        with pytest.raises(SideConditionError):
            instantiate("P2", {"b1": 0, "c1": -1}, QQ)
        with pytest.raises(SideConditionError):
            instantiate("P2", {"b1": 1, "c1": 1}, QQ)  # b1 + c1 + 1 != 0
        with pytest.raises(SideConditionError):
            instantiate("P2", {"h3": "a"}, QQ)

    def test_unknown_parameter_names_rejected(self):
        with pytest.raises(SideConditionError, match="'bogus'.*none"):
            instantiate("B", {"bogus": 3}, QQ)
        with pytest.raises(SideConditionError, match="'dim'.*dim_h1, a, h1, h2"):
            instantiate("P1", {"dim": 2}, QQ)

    def test_p2_scalar_sum_constraint_enforced_exactly(self):
        L = instantiate("P2", {"b1": "1/3", "c1": "-4/3"}, QQ)
        assert check_omega_lie(L).ok and is_perfect(L)


class TestLsaFamilies:
    @pytest.mark.parametrize("name", ["LSA3-1", "LSA3-2"])
    def test_random_parameters_pass(self, name):
        rng = random.Random(71)
        for _ in range(10):
            params = {k: random_fraction(rng) for k in ("a1", "a2", "a3")}
            A = instantiate(name, params, QQ)
            assert check_omega_lsa(A).ok

    def test_family1_structure(self):
        A = instantiate("LSA3-1", {"a1": 1, "a2": 2, "a3": 3}, QQ)
        from omlie.algebra import left_mult
        from omlie.linalg import Matrix

        l1 = left_mult(A, 0)
        assert l1 == left_mult(A, 1)
        rows = [[2 * (r == c) - v for c, v in enumerate(row)] for r, row in enumerate(l1.rows)]
        assert left_mult(A, 2) == Matrix(QQ, rows)  # 2 id - l_e1

    def test_generic_parameters_over_qalpha(self):
        # the family parameters may themselves be formal
        A = instantiate("LSA3-2", {"a1": "alpha", "a2": "alpha^2", "a3": "0"}, QALPHA)
        assert check_omega_lsa(A).ok
