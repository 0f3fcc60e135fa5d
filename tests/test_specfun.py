import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.special as sps

from rieszlag import specfun as sf
from conftest import bessel_i, exact_hermite


class TestGamma:
    def test_against_stdlib(self):
        for x in [0.05, 0.1, 0.5, 1.0, 1.5, 2.0, 3.7, 10.0, 25.3, 49.5]:
            assert sf.gamma(x) == pytest.approx(math.gamma(x), rel=1e-13)

    def test_log_gamma_large(self):
        for x in [0.2, 1.0, 5.5, 60.0, 170.0, 205.7]:
            assert sf.log_gamma(x) == pytest.approx(math.lgamma(x), abs=1e-11,
                                                    rel=1e-13)

    def test_domain(self):
        with pytest.raises(ValueError):
            sf.gamma(0.0)
        with pytest.raises(ValueError):
            sf.log_gamma(-1.0)


class TestBesselI:
    def test_series_constant_term(self):
        # nu = 0, z -> 0+ tends to 1
        assert bessel_i(0.0, 1e-12) == pytest.approx(1.0, abs=1e-12)

    def test_half_order_exact_series(self):
        # power-series oracle summed in exact rationals (30 terms):
        # I_{1/2}(1) * sqrt(pi/2) = sinh(1) = sum 1/(2m+1)!
        sinh1 = float(sum(Fraction(1, math.factorial(2 * m + 1))
                          for m in range(31)))
        got = bessel_i(0.5, 1.0) * math.sqrt(math.pi / 2.0)
        assert abs(got - sinh1) < 1e-12

    def test_large_argument_expansion_leading(self):
        # first correction coefficient at nu = 0.3
        nu, z = 0.3, 200.0
        bracket1 = (4 * nu * nu - 1.0) / 4.0
        got = math.sqrt(2 * math.pi * z) * sf.bessel_i_scaled(nu, z)
        assert abs(got - 1.0) <= abs(bracket1) / (2 * z) + 1e-3

    def test_scaled_closed_form(self):
        # e^{-z} sqrt(2/(pi z)) sinh z at z = 50
        z = 50.0
        expected = math.sqrt(2.0 / (math.pi * z)) * (1.0 - math.exp(-2 * z)) / 2.0
        assert sf.bessel_i_scaled(0.5, z) == pytest.approx(expected, rel=1e-12)

    def test_scaled_small_argument(self):
        assert sf.bessel_i_scaled(0.0, 1e-12) == pytest.approx(1.0, abs=1e-11)

    def test_scaled_huge_argument_finite(self):
        v = sf.bessel_i_scaled(2.0, 700.0)
        assert math.isfinite(v) and v > 0

    @pytest.mark.parametrize("nu", [-0.5, 0.0, 0.3, 0.5, 1.3, 4.0])
    @pytest.mark.parametrize("z", [1e-4, 0.1, 1.0, 12.0, 29.5, 30.5, 100.0,
                                   400.0, 700.0])
    def test_against_scipy(self, nu, z):
        assert sf.bessel_i_scaled(nu, z) == pytest.approx(sps.ive(nu, z),
                                                          rel=2e-13)

    @pytest.mark.parametrize("nu", [0.5, 1.3, 4.0])
    @pytest.mark.parametrize("z", [0.1, 1.0, 10.0, 100.0])
    def test_recurrence(self, nu, z):
        lhs = (sf.bessel_i_scaled(nu - 1, z) - sf.bessel_i_scaled(nu + 1, z))
        rhs = 2 * nu / z * sf.bessel_i_scaled(nu, z)
        assert abs(lhs - rhs) <= 1e-10 * sf.bessel_i_scaled(nu - 1, z)

    @pytest.mark.parametrize("z", [0.5, 2.0, 20.0])
    def test_derivative_identity(self, z):
        # d/dz (z^-nu I_nu) = z^-nu I_{nu+1}, via central differences
        nu = 0.7
        h = 1e-5 * max(1.0, z)
        lhs = ((z + h) ** -nu * bessel_i(nu, z + h)
               - (z - h) ** -nu * bessel_i(nu, z - h)) / (2 * h)
        rhs = z**-nu * bessel_i(nu + 1, z)
        assert lhs == pytest.approx(rhs, rel=1e-6)

    def test_small_z_power_behavior(self):
        # z^-nu I_nu(z) tends to 1/(2^nu Gamma(nu+1))
        nu = 1.3
        r6 = 1e-6**-nu * bessel_i(nu, 1e-6)
        r8 = 1e-8**-nu * bessel_i(nu, 1e-8)
        assert abs(r6 / r8 - 1.0) < 1e-6
        assert r8 == pytest.approx(1.0 / (2**nu * sf.gamma(nu + 1)), rel=1e-6)

    def test_second_order_coefficient_stability(self):
        # sqrt(2 pi z) e^-z I_nu(z) - (1 - [nu,1]/(2z)) = O(1/z^2)
        nu = 1.3
        bracket1 = (4 * nu * nu - 1.0) / 4.0
        cs = []
        z = 50.0
        while z <= 400.0:
            resid = (math.sqrt(2 * math.pi * z) * sf.bessel_i_scaled(nu, z)
                     - (1.0 - bracket1 / (2 * z)))
            cs.append(abs(resid) * z * z)
            z *= 2.0
        assert max(cs) < 4.0 * min(cs)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            sf.bessel_i_scaled(-1.5, 1.0)
        with pytest.raises(ValueError):
            sf.bessel_i_scaled(0.5, -1.0)


class TestPolynomials:
    def test_hermite_trivial(self):
        assert sf.hermite_poly(0, 3.0) == 1.0
        assert sf.hermite_poly(1, 3.0) == 6.0
        assert sf.hermite_poly(3, 1.0) == pytest.approx(-4.0)

    @pytest.mark.parametrize("x", [Fraction(-2), Fraction(1, 3), Fraction(5)])
    def test_hermite_against_exact_oracle(self, x):
        for n in range(13):
            exact = exact_hermite(n, x)
            got = sf.hermite_poly(n, float(x))
            assert got == pytest.approx(float(exact), rel=1e-10, abs=1e-12)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            sf.alpha_value(float("nan"))


class TestQuadrature:
    def test_composite_gauss_exactness(self):
        x, w = sf.gauss_legendre_panels(np.linspace(0.0, 1.0, 11), 16)
        for deg in (20, 31):
            got = float(w @ x**deg)
            assert got == pytest.approx(1.0 / (deg + 1), rel=1e-13)

    def test_endpoint_power_weight(self):
        x, w = sf.gauss_jacobi_01(64, -0.4)
        assert float(w @ x**-0.4) == pytest.approx(1 / 0.6, rel=1e-10)

    def test_degenerate_interval(self):
        with pytest.raises(ValueError):
            sf.gauss_legendre_panels([1.0, 1.0], 16)
        with pytest.raises(ValueError):
            sf.gauss_legendre_panels([2.0, 1.0], 16)

    def test_jacobi_moments(self):
        x, w = sf.gauss_jacobi_01(32, 2.4)
        for j in range(5):
            got = float(np.sum(w * x ** (2.4 + j)))
            assert got == pytest.approx(1.0 / (3.4 + j), rel=1e-13)
