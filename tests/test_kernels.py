import math
import warnings

import numpy as np
import pytest

from rieszlag import basis as bs
from rieszlag import kernels as kn
from rieszlag.specfun import gauss_legendre_panels, geometric_edges
from conftest import (bessel_i, fd_derivative, full_domain_rule,
                      mp_heat_series)


def dplusx_heat(l, t, x, y):
    s = math.tanh(0.5 * t)
    return kn._dplusx_heat_sw(l, s, 1.0 - s, x, y)


class TestSpecTypes:
    def test_kernel_spec_validation(self):
        with pytest.raises(ValueError):
            kn.KernelSpec("unknown")
        with pytest.raises(ValueError):
            kn.KernelSpec("hermite-frac")
        with pytest.raises(ValueError):
            kn.KernelSpec("hermite-riesz", k=0)
        with pytest.raises(ValueError):
            kn.KernelSpec("hermite-riesz", k=2, l=3)
        with pytest.raises(ValueError):
            kn.KernelSpec("laguerre-riesz", k=1)
        spec = kn.KernelSpec("hermite-riesz", k=2)
        assert spec.l == 2

    @pytest.mark.parametrize("family,kwargs,name", [
        ("hermite-heat", {"k": 5, "l": 2}, "k"),
        ("laguerre-heat", {"k": 1, "alpha": 0.5}, "k"),
        ("hermite-frac", {"k": 3, "gamma": 2.0}, "k"),
        ("hermite-heat", {"l": 0}, "l"),
        ("laguerre-heat", {"l": 1, "alpha": 0.5}, "l"),
        ("hermite-frac", {"l": 1, "gamma": 2.0}, "l"),
        ("laguerre-riesz", {"k": 1, "l": 7, "alpha": 0.5}, "l"),
        ("laguerre-riesz", {"k": 2, "l": 2, "alpha": 0.5}, "l"),
    ])
    def test_unused_parameters_rejected(self, family, kwargs, name):
        # a spec records only what its kernel computes with
        with pytest.raises(ValueError, match=f"{family} takes no {name}"):
            kn.KernelSpec(family, **kwargs)


class TestHeatKernels:
    def test_symmetry(self):
        assert kn.heat_kernel_hermite(0.7, 1.2, -0.4) == \
            kn.heat_kernel_hermite(0.7, -0.4, 1.2)
        assert kn.heat_kernel_laguerre(0.7, 1.2, 0.4, 0.5) == \
            kn.heat_kernel_laguerre(0.7, 0.4, 1.2, 0.5)

    def test_two_hermite_forms_agree(self):
        for t in (0.05, 0.4, 1.0, 3.0):
            a = float(kn.heat_kernel_hermite(t, 0.7, 1.1))
            b = float(dplusx_heat(0, t, 0.7, 1.1))
            assert a == pytest.approx(b, rel=1e-13)

    def test_hermite_mehler_vs_series(self):
        got = float(kn.heat_kernel_hermite(1.0, 0.7, 1.1))
        ref = mp_heat_series(1.0, 0.7, 1.1, nmax=80)
        assert got == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.3])
    def test_laguerre_mehler_vs_series(self, alpha):
        got = float(kn.heat_kernel_laguerre(1.0, 0.7, 1.1, alpha))
        ref = mp_heat_series(1.0, 0.7, 1.1, nmax=80, alpha=alpha)
        assert got == pytest.approx(ref, rel=1e-10)

    def test_laguerre_half_integer_closed_form(self):
        # I_{-1/2}(z) = sqrt(2/(pi z)) cosh z collapses the kernel
        t, x, y = 0.6, 0.9, 1.4
        em = math.exp(-t)
        den = -math.expm1(-2 * t)
        z = 2 * x * y * em / den
        expected = (math.sqrt(2 * em / den) * math.sqrt(2 / math.pi)
                    * math.cosh(z)
                    * math.exp(-0.5 * (x * x + y * y) * (1 + em * em) / den))
        got = float(kn.heat_kernel_laguerre(t, x, y, -0.5))
        assert got == pytest.approx(expected, rel=1e-13)

    def test_ground_state_evolution(self):
        # the kernel applied to the ground state scales it by e^{-t/2}
        t, x = 0.8, 0.55
        xs, ws = gauss_legendre_panels(np.linspace(-10, 10, 41), 12)
        val = float(ws @ (kn.heat_kernel_hermite(t, x, xs)
                          * bs.hermite_fn_table(0, xs)[0]))
        assert val == pytest.approx(
            math.exp(-t / 2) * bs.hermite_fn_table(0, x)[0], rel=1e-9)

    def test_laguerre_semigroup(self):
        t, s_, x, y, a = 0.3, 0.5, 1.0, 2.0, 0.7
        nodes, weights = full_domain_rule(40, a, power=2 * a + 1)
        lhs = float(weights @ (kn.heat_kernel_laguerre(t, x, nodes, a)
                               * kn.heat_kernel_laguerre(s_, nodes, y, a)))
        rhs = float(kn.heat_kernel_laguerre(t + s_, x, y, a))
        assert lhs == pytest.approx(rhs, rel=1e-7)

    def test_positivity(self):
        ts = np.array([0.05, 0.5, 2.0])
        for t in ts:
            assert np.all(kn.heat_kernel_hermite(t, GRID_X[:, None],
                                                 GRID_X[None, :]) > 0)
            assert np.all(kn.heat_kernel_laguerre(t, GRID_P[:, None],
                                                  GRID_P[None, :], 0.3) > 0)

    def test_exponent_regrouping_identity(self):
        for t in (0.1, 0.7, 2.0):
            em = math.exp(-t)
            den = 1 - em * em
            for x, y in ((0.3, 2.0), (1.5, 1.4)):
                lhs = (-0.5 * (x * x + y * y) * (1 + em * em) / den
                       + 2 * x * y * em / den)
                rhs = -((x - y * em) ** 2 + (y - x * em) ** 2) / (2 * den)
                assert abs(lhs - rhs) < 1e-12

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            kn.heat_kernel_hermite(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            kn.heat_kernel_laguerre(1.0, -1.0, 1.0, 0.0)


GRID_X = np.array([-1.2, 0.4, 1.7])
GRID_P = np.array([0.4, 1.0, 2.2])


class TestRaisingDerivatives:
    def test_l_zero_is_heat_kernel(self):
        a = dplusx_heat(0, 0.8, 1.0, 2.0)
        b = kn.heat_kernel_hermite(0.8, 1.0, 2.0)
        assert float(a) == pytest.approx(float(b), rel=1e-14)

    @pytest.mark.parametrize("l,tol", [(1, 1e-7), (2, 1e-6), (3, 1e-5)])
    def test_vs_finite_difference(self, l, tol):
        # (d/dx + x)^l W = e^{-x^2/2} d^l/dx^l [e^{x^2/2} W]
        t, y = 0.8, 2.0

        def gauss_part(x):
            return math.exp(0.5 * x * x) * float(kn.heat_kernel_hermite(t, x, y))

        x0 = 1.0
        ref = math.exp(-0.5 * x0 * x0) * fd_derivative(gauss_part, x0, l)
        got = float(dplusx_heat(l, t, x0, y))
        assert got == pytest.approx(ref, rel=tol)


class TestDerivativeKernel:
    def test_k_zero_reduces_to_heat(self):
        got = kn.d_alpha_pow_k_heat_pair(0, 0.5, 1.0, 1.3, 0.5)[0]
        ref = float(kn.heat_kernel_laguerre(0.5, 1.0, 1.3, 0.5))
        assert got == pytest.approx(ref, rel=1e-14)

    def test_k_one_vs_fd_oracle(self):
        a, t, x, y = 0.5, 0.5, 1.0, 1.3
        fd = fd_derivative(lambda u: float(kn.heat_kernel_laguerre(t, u, y, a)),
                           x, 1)
        oracle = (-(a + 0.5) / x + x) * float(
            kn.heat_kernel_laguerre(t, x, y, a)) + fd
        assert kn.d_alpha_pow_k_heat_pair(1, t, x, y, a)[0] == pytest.approx(
            oracle, rel=1e-6)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0])
    def test_routes_agree(self, k, alpha):
        for t in (0.3, 1.0, 2.5):
            for x in (0.5, 1.0, 2.0):
                for y in (0.6, 1.1, 1.8):
                    d1, d2 = kn.d_alpha_pow_k_heat_pair(k, t, x, y, alpha)
                    assert abs(d1 - d2) <= 1e-10 * max(abs(d1), abs(d2))

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_nonpositive_points_rejected(self, k):
        # both negative makes the Bessel argument positive, so only an
        # explicit check keeps the kernel from returning a value
        with pytest.raises(ValueError, match="x and y must be > 0"):
            kn.d_alpha_pow_k_heat_pair(k, 0.5, -1.0, -2.0, 0.5)

    def test_agreement_monitor_is_quiet_on_sane_points(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", kn.KernelAgreementWarning)
            kn.riesz_kernel_laguerre_vec(2, 0.5, 1.0, np.array([1.3]))

    @pytest.mark.parametrize("j", [1, 2, 3, 4])
    def test_bessel_argument_derivative_formula(self, j):
        # d^j/dx^j [(cx)^-a I_a(cx)] expanded through the chain-rule table
        a, c, x0 = 0.7, 1.4, 1.1
        from rieszlag.kernels import _e_float

        def g(x):
            return (c * x) ** -a * bessel_i(a, c * x)

        ref = fd_derivative(g, x0, j, h=0.04)
        got = 0.0
        for n in range(j // 2 + 1):
            got += (_e_float(j, n) * x0 ** (j - 2 * n) / 2.0 ** (j - n)
                    * c ** (2 * (j - n)) * (c * x0) ** (-a - j + n)
                    * bessel_i(a + j - n, c * x0))
        assert got == pytest.approx(ref, rel=1e-5)


class TestFracKernel:
    def test_symmetry(self):
        assert kn.frac_kernel(2.0, 0.4, 1.3) == pytest.approx(
            kn.frac_kernel(2.0, 1.3, 0.4), rel=1e-12)

    def test_negative_half_power_on_ground_state(self):
        # integral of K_1(x, .) against h_0 equals sqrt(2) h_0(x)
        x0 = 0.4
        segs = []
        for edges in (geometric_edges(-9.0, x0, toward="right", floor=1e-12),
                      geometric_edges(x0, 9.0, toward="left", floor=1e-12)):
            segs.append(gauss_legendre_panels(edges, 12))
        ys = np.concatenate([s[0] for s in segs])
        ws = np.concatenate([s[1] for s in segs])
        kern = np.array([kn.frac_kernel(1.0, x0, float(y)) for y in ys])
        val = float(ws @ (kern * bs.hermite_fn_table(0, ys)[0]))
        assert val == pytest.approx(math.sqrt(2.0) * bs.hermite_fn_table(0, x0)[0],
                                    rel=1e-6)

    def test_diagonal_finite_above_one(self):
        assert math.isfinite(kn.frac_kernel(3.0, 1.0, 1.0))

    def test_diagonal_rejected_at_low_gamma(self):
        with pytest.raises(ValueError):
            kn.frac_kernel(1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            kn.frac_kernel(0.0, 1.0, 2.0)


class TestRieszKernels:
    def test_hermite_low_order_derivative_finite_on_diagonal(self):
        assert math.isfinite(kn.riesz_kernel_hermite(2, 0, 1.0, 1.0))

    def test_hermite_diagonal_rejected(self):
        with pytest.raises(ValueError):
            kn.riesz_kernel_hermite(1, 1, 1.0, 1.0)
        with pytest.raises(ValueError):
            kn.riesz_kernel_hermite(2, 1, 1.0, 1.0)

    def test_hermite_first_order_inverse_distance_bound(self):
        vals = [abs(kn.riesz_kernel_hermite(1, 1, 1.0, 1.0 + d)) * d
                for d in (1e-2, 1e-3, 1e-4)]
        assert max(vals) < 2.0 * min(vals) + 1.0  # bounded, no blow-up
        assert all(v < 2.0 for v in vals)

    def test_hermite_first_order_sign_flip(self):
        left = kn.riesz_kernel_hermite(1, 1, 1.0, 0.95)
        right = kn.riesz_kernel_hermite(1, 1, 1.0, 1.05)
        assert left * right < 0

    def test_laguerre_far_field_decay_below(self):
        # 0 < y < x/2 regime
        k, a, x, y = 1, 0.5, 2.0, 0.5
        val = kn.riesz_kernel_laguerre(k, a, x, y)
        bound = y ** (a + 0.5) / x ** (a + 1.5)
        assert abs(val) <= 10.0 * bound

    def test_laguerre_far_field_decay_above_odd(self):
        k, a, x, y = 1, 0.5, 0.5, 2.0
        val = kn.riesz_kernel_laguerre(k, a, x, y)
        bound = x ** (a + 1.5) / y ** (a + 2.5)
        assert abs(val) <= 10.0 * bound

    def test_near_diagonal_hermite_comparison(self):
        k, a, x, y = 2, 0.0, 1.0, 1.01
        diff = abs(kn.riesz_kernel_laguerre(k, a, x, y)
                   - kn.riesz_kernel_hermite(k, k, x, y))
        bound = (1.0 + math.sqrt(x / abs(x - y))) / x
        assert diff <= 10.0 * bound

    def test_laguerre_diagonal_rejected(self):
        with pytest.raises(ValueError):
            kn.riesz_kernel_laguerre(1, 0.5, 1.0, 1.0)

    def test_kernel_value_dispatch(self):
        val, err = kn.kernel_value(kn.KernelSpec("hermite-heat"), 0.3, 0.7,
                                   t=0.5)
        assert val == pytest.approx(float(kn.heat_kernel_hermite(0.5, 0.3,
                                                                 0.7)))
        with pytest.raises(ValueError):
            kn.kernel_value(kn.KernelSpec("hermite-heat"), 0.3, 0.7)
