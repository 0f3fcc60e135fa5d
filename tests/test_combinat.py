import math
from fractions import Fraction

import pytest

from rieszlag import combinat as cb


class TestECoeff:
    def test_values(self):
        assert cb.e_coeff(2, 1) == 2
        assert cb.e_coeff(0, 0) == 1
        assert cb.e_coeff(5, 2) == 120

    def test_range_errors(self):
        with pytest.raises(ValueError):
            cb.e_coeff(4, 3)
        with pytest.raises(ValueError):
            cb.e_coeff(3, -1)


class TestBracketCoeff:
    def test_r_zero_is_one(self):
        for alpha in (Fraction(0), Fraction(-1, 2), Fraction(9, 4)):
            assert cb.bracket_coeff(alpha, 0) == 1

    def test_zero_factor(self):
        assert cb.bracket_coeff(Fraction(1, 2), 1) == 0

    def test_substitution(self):
        assert cb.bracket_coeff(Fraction(0), 2) == Fraction(9, 32)


class TestASum:
    def test_values(self):
        assert cb.a_sum(3, 2) == 0
        assert cb.a_sum(3, 3) == -6
        assert cb.a_sum(0, 0) == 1

    def test_vanishing_below_diagonal(self):
        for j in range(1, 16):
            for s in range(j):
                assert cb.a_sum(j, s) == 0

    def test_diagonal_factorial(self):
        for j in range(16):
            assert cb.a_sum(j, j) == (-1) ** j * math.factorial(j)

    def test_diagonal_recurrence(self):
        for j in range(1, 16):
            assert cb.a_sum(j, j) == -j * cb.a_sum(j - 1, j - 1)


ALPHAS = [Fraction(-1, 2), Fraction(0), Fraction(1, 3), Fraction(2),
          Fraction(9, 4)]


class TestLemmaN1:
    @pytest.mark.parametrize("alpha", ALPHAS, ids=str)
    def test_exact_zero(self, alpha):
        for j in range(1, 13):
            for m in range(j // 2 + 1):
                assert cb.lemma_n1_check(j, m, alpha) == 0

    def test_specific_cases(self):
        assert cb.lemma_n1_check(1, 0, Fraction(0)) == 0
        assert cb.lemma_n1_check(4, 2, Fraction(3, 7)) == 0
        assert cb.lemma_n1_check(2, 1, Fraction(-1, 2)) == 0

    def test_range_errors(self):
        with pytest.raises(ValueError):
            cb.lemma_n1_check(0, 0, Fraction(0))
        with pytest.raises(ValueError):
            cb.lemma_n1_check(3, 2, Fraction(0))
        with pytest.raises(ValueError):
            cb.lemma_n1_check(2, 1, Fraction(-3, 2))


class TestDerivativeIdentity:
    def test_trivial_cases(self):
        assert cb.identity_2_3_check(1, 1) == 0
        assert cb.identity_2_3_check(2, 0) == 0

    def test_full_grid(self):
        for n in range(9):
            for q in range(9):
                assert cb.identity_2_3_check(n, q) == 0

    def test_wrong_coefficient_is_caught(self, wrong_e51):
        for q in range(9):
            assert cb.identity_2_3_check(5, q) == Fraction(math.perm(q, 4), 3)
        report = cb.identities_report(jmax_a=0, jmax_n1=0, nmax_23=5,
                                      qmax_23=8)
        entries = [e for e in report if e["parameters"]["N"] == 5]
        assert [(e["status"], e["witness"]) for e in entries] == [
            ("exact-pass" if q < 4 else "fail",
             str(Fraction(math.perm(q, 4), 3))) for q in range(9)]


def test_float_consistency_with_kernels():
    # the floating-point tables used by the kernel formulas agree with the
    # exact values after conversion
    from rieszlag.kernels import _e_float
    for n in range(9):
        for l in range(n // 2 + 1):
            exact = cb.e_coeff(n, l)
            assert abs(_e_float(n, l) - float(exact)) <= 1e-14 * float(exact)
    for alpha in ALPHAS:
        for r in range(5):
            val = float(cb.bracket_coeff(alpha, r))
            assert math.isfinite(val)


def test_report_shape():
    entries = cb.identities_report(jmax_a=3, jmax_n1=2, nmax_23=2, qmax_23=2)
    assert all(e["status"] == "exact-pass" for e in entries)
    assert {"identity", "parameters", "status", "witness"} <= set(entries[0])
