import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.special as sps

from rieszlag import specfun as sf
from rieszlag.kernels import _s_quadrature
from conftest import bessel_asymptotic_masked, bessel_i, exact_hermite


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

    def test_series_non_convergence_raises(self):
        # the series needs 551 terms here; summed to the 500-term cap it
        # gave 6.57e-3, where scipy.special.ive gives 4.94e-3
        with pytest.raises(RuntimeError, match=r"order 42\.0 not converged "
                           r"after 500 terms at z=882\.0$"):
            sf.bessel_i_scaled(42.0, 882.0)
        with pytest.raises(RuntimeError, match=r"at z=882\.0$"):
            sf.bessel_i_scaled(42.0, np.array([1.0, 881.0, 882.0, 3.0]))

    def test_series_converging_on_its_last_term(self):
        # at order 42, z = 791 converges on term 499, the last, which is
        # not a fourth one; z = 792 needs term 500
        got = sf.bessel_i_scaled(42.0, np.array([0.5, 791.0]))
        assert got[1] == pytest.approx(sps.ive(42.0, 791.0), rel=1e-13)
        with pytest.raises(RuntimeError, match=r"at z=792\.0$"):
            sf.bessel_i_scaled(42.0, np.array([0.5, 791.0, 792.0]))

    @pytest.mark.parametrize("z", [926.0, np.array([1.0, 926.0, 3.0])])
    def test_underflowed_first_term_raises(self, z):
        # the first term, (z/2)^60 e^-z / Gamma(61), is exactly 0 while the
        # terms still grow: the series summed to 0.0, where
        # scipy.special.ive gives 1.876e-3
        with pytest.raises(RuntimeError, match=r"order 60\.0 underflows at "
                           r"z=926\.0: its first term is below the smallest "
                           r"normal float while the terms grow$"):
            sf.bessel_i_scaled(60.0, z)

    def test_non_convergence_names_an_unconverged_z_among_converged(self):
        # the four smallest z converge by term 5 and are compacted away; 50
        # and 100 converge at terms 46 and 81, too few to compact, and
        # still sit among the seven z in [860, 882] that need 539 to 551
        z = np.array([881.0, 0.1, 50.0, 0.2, 882.0, 0.3, 870.0, 875.0, 0.4,
                      880.0, 860.0, 100.0, 865.0])
        with pytest.raises(RuntimeError, match=r"order 42\.0 not converged "
                           r"after 500 terms at z=882\.0$"):
            sf.bessel_i_scaled(42.0, z)
        with pytest.raises(RuntimeError, match=r"at z=882\.0$"):
            sf.bessel_i_scaled(42.0, z[::-1])

    @pytest.mark.parametrize("nu", [-0.5, 0.0, 0.5, 2.0, 3.5, 11.0])
    def test_array_equals_scalar_calls(self, nu):
        # both regimes: an entry's value does not depend on its neighbours,
        # however long they take to converge or to finish
        rng = np.random.default_rng(7)
        z = np.concatenate([rng.uniform(1e-3, 30.0, 300),
                            np.exp(rng.uniform(math.log(30.0),
                                               math.log(1e18), 300))])
        z[0] = 30.0
        vec = sf.bessel_i_scaled(nu, z)
        scalar = np.array([sf.bessel_i_scaled(nu, float(v)) for v in z])
        assert vec.tobytes() == scalar.tobytes()

    @pytest.mark.parametrize("nu", [-0.9, 0.0, 0.5, 2.0, 7.5, 30.0])
    def test_retired_entries_match_the_whole_set_loop(self, nu):
        # the series loop run over every entry until the slowest converges,
        # as before entries retired: the extra terms leave totals unchanged
        switch = max(30.0, 0.5 * nu * nu)
        # plus one Laguerre PV block, where most entries converge within a
        # few terms and a few need many
        pv = _pv_block_z()
        z = np.concatenate([np.geomspace(1e-300, 1e-3, 50),
                            np.geomspace(1e-3, switch, 400),
                            pv[pv <= switch]])
        term = np.exp(nu * np.log(0.5 * z) - sf.log_gamma(nu + 1.0) - z)
        total = term.copy()
        for m in range(1, 500):
            term = term * (0.25 * z * z) / (m * (nu + m))
            total += term
            if np.all(term <= 1e-17 * total):
                break
        assert sf.bessel_i_scaled(nu, z).tobytes() == total.tobytes()

    @pytest.mark.parametrize("nu", [-0.9, 0.0, 0.5, 2.0, 3.5, 7.5, 30.0])
    def test_retired_asymptotic_entries_match_the_whole_set_loop(self, nu):
        # the asymptotic loop run over every entry until the slowest
        # finishes, as before entries retired: the extra terms leave totals
        # unchanged.  Half-integer orders end on a term of exactly 0
        switch = max(30.0, 0.5 * nu * nu)
        pv = _pv_block_z()
        z = np.concatenate([np.geomspace(switch, 1e18, 2000)[1:],
                            pv[pv > switch]])
        term = np.ones_like(z)
        total = np.ones_like(z)
        prev = np.abs(term)
        active = np.ones(z.shape, dtype=bool)
        four_nu2 = 4.0 * nu * nu
        for r in range(1, 120):
            term = term * ((2 * r - 1) ** 2 - four_nu2) / (8.0 * r * z)
            mag = np.abs(term)
            active &= mag < prev
            total = np.where(active, total + term, total)
            prev = mag
            if not active.any() or np.all(~active
                                          | (mag <= 1e-18 * np.abs(total))):
                break
        expected = total / np.sqrt(2.0 * np.pi * z)
        assert sf.bessel_i_scaled(nu, z).tobytes() == expected.tobytes()

    def test_asymptotic_loop_equals_the_masked_loop(self):
        # the loop adds every term; the masked loop it replaced stopped
        # adding at the first term that did not fall.  Seeded sweep of nu
        # in [-0.99, 300], half-integers included, each with z from just
        # above the regime switch to 1e300, shuffled so that fast and slow
        # entries share the live set
        rng = np.random.default_rng(29)
        nus = np.concatenate([rng.uniform(-0.99, 300.0, 240),
                              rng.integers(0, 300, 80) + 0.5, [-0.99, 0.0]])
        for nu in nus:
            switch = max(30.0, 0.5 * nu * nu)
            z = rng.permutation(np.concatenate([
                [np.nextafter(switch, np.inf)],
                switch * (1.0 + np.geomspace(1e-15, 1.0, 300)),
                np.exp(rng.uniform(math.log(switch), math.log(1e300), 1200))]))
            got = sf.bessel_i_scaled(nu, z)
            assert got.tobytes() == bessel_asymptotic_masked(nu, z).tobytes()


def _pv_block_z():
    # the Bessel arguments z = x y (1 - s^2) / 2s of one Laguerre PV block:
    # the 8-node s-rule for 64 y points about x = 1.1
    s, w, _, _ = _s_quadrature(8)
    y = 1.1 + np.concatenate([-np.geomspace(2e-4, 0.7, 32),
                              np.geomspace(2e-4, 0.9, 32)])
    return (1.1 * y[None, :] * (w * (2.0 - w) / (2.0 * s))[:, None]).ravel()


def reference_hermite_sequence(x):
    # the generator as it was before H_2 subtracted a scalar; hermite_poly
    # must keep its bytes
    p_prev = np.ones_like(x)
    yield p_prev
    two_x = p = 2.0 * x
    for m in itertools.count(1):
        yield p
        p, p_prev = (two_x * p - 2.0 * m * p_prev, p)


class TestPolynomials:
    def test_hermite_keeps_its_bytes(self):
        rng = np.random.default_rng(0)
        x = np.concatenate([
            rng.uniform(-4.0, 4.0, 40_000), rng.standard_normal(30_000) * 40.0,
            rng.uniform(-1e160, 1e160, 29_992),
            [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e-300, -5e-324]])
        with np.errstate(over="ignore", invalid="ignore"):
            for n, want in zip(range(12), reference_hermite_sequence(x)):
                assert sf.hermite_poly(n, x).tobytes() == want.tobytes()
                for xi in (0.0, -0.0, 1.5, -2.25, np.inf, np.nan):
                    ref = next(itertools.islice(
                        reference_hermite_sequence(np.asarray(xi)), n, None))
                    assert (np.float64(sf.hermite_poly(n, xi)).tobytes()
                            == ref.tobytes())

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
