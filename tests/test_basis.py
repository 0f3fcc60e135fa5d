import math

import numpy as np
import pytest

from rieszlag import basis as bs
from rieszlag import operators as op
from conftest import fd_derivative

GRID = np.linspace(0.2, 4.0, 9)


class TestPointValues:
    def test_phi_zero(self):
        assert bs.phi_fn(0, 0.0, 1.0) == pytest.approx(
            math.sqrt(2.0) * math.exp(-0.5), rel=1e-14)

    def test_phi_one_sign_change(self):
        # phi_1^alpha is proportional to (alpha + 1 - x^2); root at sqrt(alpha+1)
        a = -0.5
        root = math.sqrt(a + 1.0)
        assert bs.phi_fn(1, a, 0.9 * root) > 0
        assert bs.phi_fn(1, a, 1.1 * root) < 0

    def test_hermite_values(self):
        assert bs.hermite_fn(0, 0.0) == pytest.approx(math.pi**-0.25, rel=1e-15)
        assert bs.hermite_fn(1, 0.0) == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            bs.phi_fn(0, 0.0, -1.0)


class TestOrthonormality:
    @pytest.mark.parametrize("alpha", [-0.9, -0.5, 0.0, 0.7, 2.5])
    def test_laguerre_gram(self, alpha):
        rule = bs.laguerre_rule(alpha, 30, power=2 * alpha + 1)
        table = bs.phi_table(30, alpha, rule.nodes)
        gram = table @ (rule.weights[:, None] * table.T)
        assert np.abs(gram - np.eye(31)).max() < 1e-8

    def test_hermite_gram(self):
        rule = bs.hermite_rule(30)
        table = bs.hermite_fn_table(30, rule.nodes)
        gram = table @ (rule.weights[:, None] * table.T)
        assert np.abs(gram - np.eye(31)).max() < 1e-8

    def test_phi_cross_orthogonality(self):
        rule = bs.laguerre_rule(0.7, 5, power=2 * 0.7 + 1)
        table = bs.phi_table(5, 0.7, rule.nodes)
        assert abs(float(rule.weights @ (table[3] * table[5]))) < 1e-9

    def test_hermite_self_inner(self):
        rule = bs.hermite_rule(2)
        t = bs.hermite_fn_table(2, rule.nodes)
        assert float(rule.weights @ (t[2] * t[2])) == pytest.approx(1.0,
                                                                    abs=1e-10)


class TestDerivatives:
    def test_hermite_deriv_ground(self):
        assert bs.hermite_fn_deriv(0, 1.0) == pytest.approx(
            -math.pi**-0.25 * math.exp(-0.5), rel=1e-14)

    def test_phi_deriv_ground_formula(self):
        a, x = 1.3, 0.8
        expected = ((a + 0.5) / x - x) * bs.phi_fn(0, a, x)
        assert bs.phi_fn_deriv(0, a, x) == pytest.approx(expected, rel=1e-14)

    def test_phi_deriv_vs_finite_difference(self):
        a = 1.3
        got = bs.phi_fn_deriv(4, a, 0.8)
        ref = fd_derivative(lambda x: bs.phi_fn(4, a, x), 0.8, 1)
        assert got == pytest.approx(ref, rel=1e-7)

    @pytest.mark.parametrize("n", [1, 3, 7])
    def test_hermite_deriv_vs_finite_difference(self, n):
        got = bs.hermite_fn_deriv(n, 0.6)
        ref = fd_derivative(lambda x: bs.hermite_fn(n, x), 0.6, 1)
        assert got == pytest.approx(ref, rel=1e-8)

    @pytest.mark.parametrize("n", [0, 2, 5])
    def test_second_derivatives_vs_finite_difference(self, n):
        a = 0.7
        got = bs.phi_fn_deriv2(n, a, 1.1)
        ref = fd_derivative(lambda x: bs.phi_fn(n, a, x), 1.1, 2)
        assert got == pytest.approx(ref, rel=1e-6)
        got = bs.hermite_fn_deriv2(n, 1.1)
        ref = fd_derivative(lambda x: bs.hermite_fn(n, x), 1.1, 2)
        assert got == pytest.approx(ref, rel=1e-6)


class TestOperators:
    def test_D_alpha_annihilates_ground_state(self):
        for a in (-0.5, 0.0, 1.3):
            f = bs.SmoothFunction.laguerre_phi(0, a)
            assert np.abs(bs.apply_D_alpha(f, a, GRID)).max() < 1e-14

    def test_D_alpha_matches_fd_oracle(self):
        a = 0.5
        f = bs.SmoothFunction.laguerre_phi(1, a)
        for x in (0.6, 1.2, 2.3):
            fd = fd_derivative(lambda u: bs.phi_fn(1, a, u), x, 1)
            oracle = (-(a + 0.5) / x + x) * bs.phi_fn(1, a, x) + fd
            assert bs.apply_D_alpha(f, a, x) == pytest.approx(oracle, rel=1e-7)

    def test_D_alpha_linearity(self):
        a = 0.5
        f = bs.SmoothFunction.laguerre_phi(1, a)
        g = bs.SmoothFunction.laguerre_phi(3, a)
        combo = bs.SmoothFunction(
            value=lambda x: 2.0 * f.value(x) - 0.7 * g.value(x),
            deriv=lambda x: 2.0 * f.deriv(x) - 0.7 * g.deriv(x))
        got = bs.apply_D_alpha(combo, a, 1.0)
        expected = (2.0 * bs.apply_D_alpha(f, a, 1.0)
                    - 0.7 * bs.apply_D_alpha(g, a, 1.0))
        assert got == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.3])
    @pytest.mark.parametrize("n", [0, 1, 4, 10])
    def test_laguerre_eigen_relation(self, alpha, n):
        f = bs.SmoothFunction.laguerre_phi(n, alpha)
        lhs = bs.apply_L_alpha(f, alpha, GRID)
        rhs = (2 * n + alpha + 1) * f(GRID)
        assert np.abs(lhs - rhs).max() <= 1e-8 * np.abs(rhs).max()

    @pytest.mark.parametrize("n", [0, 1, 5, 10])
    def test_hermite_eigen_relation(self, n):
        f = bs.SmoothFunction.hermite(n)
        lhs = bs.apply_H(f, GRID)
        rhs = (n + 0.5) * f(GRID)
        assert np.abs(lhs - rhs).max() <= 1e-8 * np.abs(rhs).max()

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.7])
    @pytest.mark.parametrize("n", [0, 1, 3, 7])
    def test_factorization(self, alpha, n):
        # (1/2) D* (D f) + (alpha + 1) f reproduces the full operator
        a = alpha
        f = bs.SmoothFunction.laguerre_phi(n, a)
        df = bs.SmoothFunction(
            value=lambda x: bs.apply_D_alpha(f, a, x),
            deriv=lambda x: ((-(a + 0.5) / x + x) * f.deriv(x)
                             + (1.0 + (a + 0.5) / x**2) * f.value(x)
                             + f.deriv2(x)))
        lhs = 0.5 * bs.apply_D_alpha_star(df, a, GRID) + (a + 1) * f(GRID)
        rhs = bs.apply_L_alpha(f, a, GRID)
        assert np.abs(lhs - rhs).max() <= 1e-6 * np.abs(rhs).max()

    def test_adjointness(self):
        a = 0.7
        rule = bs.laguerre_rule(a, 12, power=2 * a + 1)
        f = bs.SmoothFunction.laguerre_phi(3, a)
        g = bs.SmoothFunction.laguerre_phi(5, a)
        lhs = float(rule.weights @ (bs.apply_D_alpha(f, a, rule.nodes)
                                    * g(rule.nodes)))
        rhs = float(rule.weights @ (f(rule.nodes)
                                    * bs.apply_D_alpha_star(g, a, rule.nodes)))
        assert abs(lhs - rhs) < 1e-8


class TestAnalyzeSynthesize:
    def test_hermite_unit_vector(self):
        tag = bs.BasisTag("hermite")
        c = bs.analyze(lambda x: bs.hermite_fn(3, x), tag, 10)
        expected = np.zeros(11)
        expected[3] = 1.0
        assert np.abs(c.coeffs - expected).max() < 1e-10

    @pytest.mark.parametrize("alpha", [0.0, 0.7])
    def test_laguerre_round_trip(self, alpha):
        tag = bs.BasisTag("laguerre", alpha)
        rule = bs.laguerre_rule(alpha, 40, power=2 * alpha + 1)
        for m in (0, 7, 40):
            c = bs.analyze(lambda x, m=m: bs.phi_fn(m, alpha, x), tag, 40,
                           rule=rule)
            expected = np.zeros(41)
            expected[m] = 1.0
            assert np.abs(c.coeffs - expected).max() < 1e-9

    def test_coefficient_space_identity(self):
        # analyze(synthesize(c)) = c
        tag = bs.BasisTag("hermite")
        vec = np.cos(np.arange(41) * 0.7) / (1.0 + np.arange(41)) ** 2
        coeffs = bs.SpectralCoeffs(tag, vec)
        back = bs.analyze(lambda x: bs.synthesize(coeffs, x), tag, 40)
        assert np.abs(back.coeffs - vec).max() < 1e-9

    def test_bump_tail_decay(self):
        tag = bs.BasisTag("laguerre", 0.0)
        f = op.bump(1.25, 0.75)
        c240 = bs.analyze(f, tag, 240)
        tail60 = abs(c240.coeffs[60]) + abs(c240.coeffs[59])
        tail240 = abs(c240.coeffs[240]) + abs(c240.coeffs[239])
        # super-polynomial decay: frozen from the measured spectrum
        assert tail240 < 1e-2 * tail60
        assert tail240 < 2e-3

    def test_synthesize_matches_projection(self):
        tag = bs.BasisTag("hermite")
        f = op.bump(0.0, 1.0)
        c = bs.analyze(f, tag, 60)
        x = 0.37
        direct = float(c.coeffs @ bs.hermite_fn_table(60, np.array([x]))[:, 0])
        assert bs.synthesize(c, x) == pytest.approx(direct, rel=1e-14)

    def test_parseval_proxy(self):
        tag = bs.BasisTag("hermite")
        f = op.bump(0.0, 1.0)
        c = bs.analyze(f, tag, 80)
        rule = bs.hermite_rule(80)
        synth = bs.synthesize(c, rule.nodes)
        l2 = math.sqrt(float(rule.weights @ synth**2))
        assert l2 <= float(np.linalg.norm(c.coeffs)) + 1e-8

    def test_invalid_truncation(self):
        with pytest.raises(ValueError):
            bs.analyze(lambda x: x, bs.BasisTag("hermite"), -1)

    def test_tag_validation(self):
        with pytest.raises(ValueError):
            bs.BasisTag("laguerre")
        with pytest.raises(ValueError):
            bs.BasisTag("hermite", 0.0)
        with pytest.raises(ValueError):
            bs.BasisTag("fourier")
