import math
import re
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


def kernel(family, x, y, **params):
    return kn.kernel_value(kn.KernelSpec(family, **params), x, y)[0]


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
        ("hermite-heat", {"gamma": 3.0}, "gamma"),
        ("laguerre-heat", {"gamma": 3.0, "alpha": 0.5}, "gamma"),
        ("hermite-riesz", {"k": 1, "gamma": 3.0}, "gamma"),
        ("laguerre-riesz", {"k": 1, "gamma": 3.0, "alpha": 0.5}, "gamma"),
        ("hermite-heat", {"alpha": 0.5}, "alpha"),
        ("hermite-frac", {"gamma": 2.0, "alpha": 0.5}, "alpha"),
        ("hermite-riesz", {"k": 1, "alpha": 0.5}, "alpha"),
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
        # at large t, w = 1 - tanh(t/2) must not be formed by subtraction
        for t in (0.5, 20.0, 40.0, 200.0):
            got = kn.d_alpha_pow_k_heat_pair(0, t, 1.0, 1.3, 0.5)[0]
            ref = float(kn.heat_kernel_laguerre(t, 1.0, 1.3, 0.5))
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

    def test_agreement_monitor_warns_once_at_the_worst_point(self,
                                                              monkeypatch):
        pair = kn._dw_pair_sw

        def perturbed(k, alpha, s, w, x, y):
            # route two off by 1% at y = 1.3 and by 0.1% at y = 2.0
            dw1, dw2, dwabs = pair(k, alpha, s, w, x, y)
            return dw1, dw2 * np.array([1.0, 1.01, 1.001]), dwabs

        monkeypatch.setattr(kn, "_dw_pair_sw", perturbed)
        for _ in range(2):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                _, agreement = kn.riesz_kernel_laguerre_vec(
                    2, 0.5, 1.0, np.array([0.6, 1.3, 2.0]))
            assert [w.category for w in caught] == [kn.KernelAgreementWarning]
            assert re.fullmatch(
                r"Riesz kernel routes disagree \(9\.90e-03 relative, "
                r"conditioning floor \d\.\d\de-\d\d\) at \(k=2, "
                r"alpha=0\.5, x=1\.0, y=1\.3\)", str(caught[0].message))
            assert agreement == pytest.approx(0.01 / 1.01, rel=1e-6)

    def test_stalled_quadrature_raises(self, monkeypatch):
        # the 8- and 12-node values differ by 4, far above 1e-5 relative
        monkeypatch.setattr(kn, "_hermite_time_integral",
                            lambda l, q, x, y, nodes: np.full(len(y), nodes,
                                                              dtype=float))
        with pytest.raises(kn.QuadratureConvergenceError,
                           match=r"K_gamma quadrature stalled at "
                                 r"\(0\.5, 0\.7\): est err 4\.0$"):
            kernel("hermite-frac", 0.5, 0.7, gamma=2.0)

    def test_vector_form_returns_values_and_agreement(self):
        vals, agreement = kn.riesz_kernel_laguerre_vec(1, 0.5, 1.0,
                                                       np.array([0.5, 2.0]))
        assert isinstance(vals, np.ndarray) and vals.shape == (2,)
        assert isinstance(agreement, float) and 0.0 <= agreement < 1e-8

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


def _dw_pair_per_term(k, alpha, s, w, x, y):
    # the derivative kernel as first written: route one forms every power
    # and sign per term, route two each raising derivative in its own call
    s, w, x, y = (np.asarray(v, dtype=float) for v in (s, w, x, y))
    one_m_s2 = w * (2.0 - w)
    z = x * y * one_m_s2 / (2.0 * s)
    u = y * one_m_s2 / (2.0 * s)
    c2 = w * w / (4.0 * s)
    isc = [kn.bessel_i_scaled(alpha + d, z) for d in range(k + 1)]
    zpow = [z ** (0.5 - d) for d in range(k + 1)]
    expo = -(((1.0 + s) * x - w * y) ** 2
             + ((1.0 + s) * y - w * x) ** 2) / (8.0 * s)
    pref = np.sqrt(one_m_s2 / (2.0 * s)) * np.exp(expo)
    acc = 0.0
    acc_abs = 0.0
    for j in range(k + 1):
        for n in range(j // 2 + 1):
            base = (math.comb(k, j) * kn._e_float(j, n) / 2.0 ** (j - n)
                    * u ** (2 * (j - n)))
            for m in range((k - j) // 2 + 1):
                term = (base * kn._e_float(k - j, m) * c2 ** (k - j - m)
                        * x ** (k - 2 * m - 2 * n) * zpow[j - n]
                        * isc[j - n])
                acc = acc + ((-1.0) ** (k - j - m)) * term
                acc_abs = acc_abs + term
    dw2 = 0.0
    for j in range(k + 1):
        inner = 0.0
        for n in range(j // 2 + 1):
            for l in range(2 * n, j + 1):
                inner = inner + ((-1.0) ** l * math.comb(j, l)
                                 * kn._e_float(l, n) / 2.0 ** (l - n)
                                 * zpow[0] * z ** (-n) * isc[l - n])
        dw2 = dw2 + ((-1.0) ** j * math.comb(k, j)
                     * kn._dplusx_heat_sw(k - j, s, w, x, y) * u ** j * inner)
    return pref * acc, math.sqrt(2.0 * math.pi) * dw2, pref * acc_abs


class TestDerivativeKernelBits:
    @pytest.mark.parametrize("k", range(6))
    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5, 2.0])
    def test_shared_factors_leave_every_bit(self, k, alpha):
        # the whole 8-node rule: its first row is the smallest s, its last
        # rows reach w = 1e-26; y comes within 2e-4 of x
        s, w, _, _ = kn._s_quadrature(8)
        assert s[0] < 1e-18 and w[-1] < 1e-25
        y = np.array([[1.4 - 2e-4, 1.4 + 2e-4, 0.05, 3.0, 25.0]])
        got = kn._dw_pair_sw(k, alpha, s[:, None], w[:, None], 1.4, y)
        want = _dw_pair_per_term(k, alpha, s[:, None], w[:, None], 1.4, y)
        for g, r in zip(got, want):
            assert g.shape == r.shape == (len(s), 5)
            assert g.tobytes() == r.tobytes()

    @pytest.mark.parametrize("k", [1, 3])
    def test_route_two_shares_one_gaussian_and_hermite_pass(self, k,
                                                            monkeypatch):
        counts = {}
        for name in ("_heat_sw", "_raising_sw", "hermite_polys",
                     "_dplusx_heat_sw", "bessel_i_scaled"):
            def counted(*args, _name=name, _inner=getattr(kn, name)):
                counts[_name] = counts.get(_name, 0) + 1
                return _inner(*args)

            monkeypatch.setattr(kn, name, counted)
        s, w, _, _ = kn._s_quadrature(8)
        kn._dw_pair_sw(k, 0.5, s[:, None], w[:, None], 1.4,
                       np.array([[0.7, 2.0]]))
        once = {"_heat_sw": 1, "_raising_sw": 1, "hermite_polys": 1,
                "bessel_i_scaled": k + 1}
        assert counts == once
        counts.clear()
        # four y-blocks, each one _dw_pair_sw call
        kn.riesz_kernel_laguerre_vec(k, 0.5, 1.4, _BLOCK_TEST_Y)
        assert counts == {name: 4 * n for name, n in once.items()}


def _whole_mesh(integrand, wt, y, nodes=8):
    # one (s x y) mesh over the whole rule, summed as one array, as before
    # the y-blocks: row by row for two or more columns, pairwise for one
    s, w, _, _ = kn._s_quadrature(nodes)
    parts = integrand(s[:, None], w[:, None], y[None, :])
    return [(wt[:, None] * f).sum(axis=0) for f in parts]


def _laguerre_whole_mesh(k, alpha, x, y):
    _, _, t, weight = kn._s_quadrature(8)
    wt = weight * t ** (0.5 * k - 1.0) / kn.gamma(0.5 * k)
    return _whole_mesh(lambda s, w, yb: kn._dw_pair_sw(k, alpha, s, w, x, yb),
                       wt, y)[0]


def _hermite_whole_mesh(k, x, y):
    _, _, t, weight = kn._s_quadrature(8)
    wt = weight * t ** (0.5 * k - 1.0)
    return _whole_mesh(lambda s, w, yb: (kn._dplusx_heat_sw(k, s, w, x, yb),),
                       wt, y)[0] / kn.gamma(0.5 * k)


def _rows_seen(monkeypatch, name):
    # number of s-rows of each mesh the kernel evaluates
    seen, inner = [], getattr(kn, name)

    def counted(*args):
        seen.append(np.shape(args[-4])[0])
        return inner(*args)

    monkeypatch.setattr(kn, name, counted)
    return seen


# four 64-point blocks; the points far from x lose s-rows, and in the last
# block, 51 to 57 from x, the kernel is near or below exp's underflow
_BLOCK_TEST_Y = np.concatenate([np.linspace(0.05, 2.6, 150),
                                1.4 + np.geomspace(1e-4, 0.5, 20),
                                np.geomspace(6.0, 45.0, 22),
                                np.linspace(52.4, 58.4, 64)])


class TestBlockedTimeIntegrals:
    def test_blocks_cover_and_never_leave_one_column(self):
        for n in range(0, 300):
            blocks = kn._y_blocks(n)
            assert [i for b in blocks for i in range(n)[b]] == list(range(n))
            widths = [b.stop - b.start for b in blocks]
            assert max(widths) <= 2 * kn._Y_BLOCK
            assert n == 1 or 1 not in widths

    def test_column_sums_start_from_plus_zero(self):
        # a skipped row adds +-0; numpy's sum never yields -0 from it
        assert not np.signbit(np.full((3, 2), -0.0).sum(axis=0)).any()

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0])
    def test_laguerre_blocks_and_skipped_rows_invisible(self, k, alpha,
                                                        monkeypatch):
        x, y = 1.4, _BLOCK_TEST_Y
        whole = _laguerre_whole_mesh(k, alpha, x, y)
        rows = _rows_seen(monkeypatch, "_dw_pair_sw")
        vals, _ = kn.riesz_kernel_laguerre_vec(k, alpha, x, y)
        assert len(rows) == 4 and min(rows) < len(kn._s_quadrature(8)[0])
        assert np.array_equal(vals, whole)
        pairs = [kn.riesz_kernel_laguerre_vec(k, alpha, x, y[i:i + 2])[0]
                 for i in range(0, len(y) - 1, 2)]
        assert np.array_equal(np.concatenate(pairs), whole[:len(y) // 2 * 2])
        for i in (0, 160, 200):
            assert np.array_equal(
                kn.riesz_kernel_laguerre_vec(k, alpha, x, y[i:i + 1])[0],
                _laguerre_whole_mesh(k, alpha, x, y[i:i + 1]))

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("x", [0.3, 26.0])
    def test_hermite_blocks_and_skipped_rows_invisible(self, k, x,
                                                       monkeypatch):
        # at x = 26 the last block, y in [-32, -20], has x + y near 0: its
        # kernel sits at exp's underflow with no help from the s (x + y)^2
        # part of the exponent, so skipping a row too many shows
        y = np.concatenate([_BLOCK_TEST_Y, -_BLOCK_TEST_Y,
                            -np.linspace(20.0, 32.0, 64)])
        whole = _hermite_whole_mesh(k, x, y)
        rows = _rows_seen(monkeypatch, "_dplusx_heat_sw")
        vals = kn.riesz_kernel_hermite_vec(k, k, x, y)
        assert len(rows) == 9 and min(rows) < len(kn._s_quadrature(8)[0])
        assert np.array_equal(vals, whole)
        pairs = [kn.riesz_kernel_hermite_vec(k, k, x, y[i:i + 2])
                 for i in range(0, len(y) - 1, 2)]
        assert np.array_equal(np.concatenate(pairs), whole[:len(y) // 2 * 2])
        for i in (0, 160, 350):
            assert np.array_equal(
                kn.riesz_kernel_hermite_vec(k, k, x, y[i:i + 1]),
                _hermite_whole_mesh(k, x, y[i:i + 1]))

    def test_overflow_stays_nan(self):
        # at k = 9 the smallest-s rows overflow (0 * inf); the whole mesh
        # gives NaN and so must the blocks
        y = np.concatenate([np.linspace(0.5, 3.0, 60), np.geomspace(8, 30, 10)])
        _, _, t, weight = kn._s_quadrature(8)
        wt = weight * t ** 3.5 / kn.gamma(4.5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            vals = kn._s_integral(
                lambda s, w, yb: kn._dw_pair_sw(9, 0.5, s, w, 1.4, yb),
                wt, 1.4, y, 8)[0]
            whole = _laguerre_whole_mesh(9, 0.5, 1.4, y)
        assert np.isnan(whole).all()
        assert np.array_equal(vals, whole, equal_nan=True)

    @pytest.mark.parametrize("call,message", [
        (lambda: kn.riesz_kernel_laguerre_vec(9, 0.5, 1.4,
                                              [1.0, 1.3999, 2.0, 3.0]),
         r"Riesz kernel at k=9, alpha=0\.5, x=1\.4, y=1\.0 is not finite"),
        (lambda: kn.riesz_kernel_hermite_vec(40, 40, 0.3, [-1.0, 0.5, 2.0]),
         r"Hermite time integral at l=40, q=20\.0, x=0\.3, y=-1\.0 is not "
         r"finite"),
    ], ids=["laguerre", "hermite"])
    def test_non_finite_sum_raises(self, call, message):
        # the overflowed sums above are not values: the integrated kernels
        # raise, naming the parameters and the first y that failed
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(kn.QuadratureConvergenceError, match=message):
                call()

    def test_agreement_warning_names_the_worst_y_in_a_later_block(
            self, monkeypatch):
        pair = kn._dw_pair_sw

        def perturbed(k, alpha, s, w, x, y):
            # route two off by 1% at y = 2.0 and by 0.1% at y = 0.6
            dw1, dw2, dwabs = pair(k, alpha, s, w, x, y)
            scale = np.where(y == 2.0, 1.01, np.where(y == 0.6, 1.001, 1.0))
            return dw1, dw2 * scale, dwabs

        monkeypatch.setattr(kn, "_dw_pair_sw", perturbed)
        y = np.concatenate([[0.6], np.linspace(0.3, 0.9, 150), [2.0],
                            np.linspace(2.2, 3.0, 49)])
        assert list(y).index(2.0) >= 2 * kn._Y_BLOCK
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _, agreement = kn.riesz_kernel_laguerre_vec(2, 0.5, 1.0, y)
        assert [w.category for w in caught] == [kn.KernelAgreementWarning]
        assert re.fullmatch(
            r"Riesz kernel routes disagree \(9\.90e-03 relative, "
            r"conditioning floor \d\.\d\de-\d\d\) at \(k=2, "
            r"alpha=0\.5, x=1\.0, y=2\.0\)", str(caught[0].message))
        assert agreement == pytest.approx(0.01 / 1.01, rel=1e-6)


class TestFracKernel:
    def test_symmetry(self):
        assert kernel("hermite-frac", 0.4, 1.3, gamma=2.0) == pytest.approx(
            kernel("hermite-frac", 1.3, 0.4, gamma=2.0), rel=1e-12)

    def test_negative_half_power_on_ground_state(self):
        # integral of K_1(x, .) against h_0 equals sqrt(2) h_0(x)
        x0 = 0.4
        segs = []
        for edges in (geometric_edges(-9.0, x0, toward="right", floor=1e-12),
                      geometric_edges(x0, 9.0, toward="left", floor=1e-12)):
            segs.append(gauss_legendre_panels(edges, 12))
        ys = np.concatenate([s[0] for s in segs])
        ws = np.concatenate([s[1] for s in segs])
        kern = np.array([kernel("hermite-frac", x0, float(y), gamma=1.0)
                         for y in ys])
        val = float(ws @ (kern * bs.hermite_fn_table(0, ys)[0]))
        assert val == pytest.approx(math.sqrt(2.0) * bs.hermite_fn_table(0, x0)[0],
                                    rel=1e-6)

    def test_diagonal_finite_above_one(self):
        assert math.isfinite(kernel("hermite-frac", 1.0, 1.0, gamma=3.0))

    def test_diagonal_rejected_at_low_gamma(self):
        with pytest.raises(ValueError):
            kernel("hermite-frac", 1.0, 1.0, gamma=1.0)
        with pytest.raises(ValueError):
            kernel("hermite-frac", 1.0, 2.0, gamma=0.0)


class TestRieszKernels:
    def test_hermite_low_order_derivative_finite_on_diagonal(self):
        assert math.isfinite(kernel("hermite-riesz", 1.0, 1.0, k=2, l=0))

    def test_hermite_diagonal_rejected(self):
        with pytest.raises(ValueError):
            kernel("hermite-riesz", 1.0, 1.0, k=1, l=1)
        with pytest.raises(ValueError):
            kernel("hermite-riesz", 1.0, 1.0, k=2, l=1)

    def test_hermite_first_order_inverse_distance_bound(self):
        vals = [abs(kernel("hermite-riesz", 1.0, 1.0 + d, k=1, l=1)) * d
                for d in (1e-2, 1e-3, 1e-4)]
        assert max(vals) < 2.0 * min(vals) + 1.0  # bounded, no blow-up
        assert all(v < 2.0 for v in vals)

    def test_hermite_first_order_sign_flip(self):
        left = kernel("hermite-riesz", 1.0, 0.95, k=1, l=1)
        right = kernel("hermite-riesz", 1.0, 1.05, k=1, l=1)
        assert left * right < 0

    def test_laguerre_far_field_decay_below(self):
        # 0 < y < x/2 regime
        k, a, x, y = 1, 0.5, 2.0, 0.5
        val = kernel("laguerre-riesz", x, y, k=k, alpha=a)
        bound = y ** (a + 0.5) / x ** (a + 1.5)
        assert abs(val) <= 10.0 * bound

    def test_laguerre_far_field_decay_above_odd(self):
        k, a, x, y = 1, 0.5, 0.5, 2.0
        val = kernel("laguerre-riesz", x, y, k=k, alpha=a)
        bound = x ** (a + 1.5) / y ** (a + 2.5)
        assert abs(val) <= 10.0 * bound

    def test_near_diagonal_hermite_comparison(self):
        k, a, x, y = 2, 0.0, 1.0, 1.01
        diff = abs(kernel("laguerre-riesz", x, y, k=k, alpha=a)
                   - kernel("hermite-riesz", x, y, k=k, l=k))
        bound = (1.0 + math.sqrt(x / abs(x - y))) / x
        assert diff <= 10.0 * bound

    def test_laguerre_diagonal_rejected(self):
        with pytest.raises(ValueError):
            kernel("laguerre-riesz", 1.0, 1.0, k=1, alpha=0.5)

    def test_kernel_value_dispatch(self):
        val, err = kn.kernel_value(kn.KernelSpec("hermite-heat"), 0.3, 0.7,
                                   t=0.5)
        assert val == pytest.approx(float(kn.heat_kernel_hermite(0.5, 0.3,
                                                                 0.7)))
        with pytest.raises(ValueError):
            kn.kernel_value(kn.KernelSpec("hermite-heat"), 0.3, 0.7)

    @pytest.mark.parametrize("spec", [
        kn.KernelSpec("hermite-frac", gamma=2.0),
        kn.KernelSpec("hermite-riesz", k=1),
        kn.KernelSpec("laguerre-riesz", k=1, alpha=0.5),
    ], ids=lambda spec: spec.family)
    def test_t_rejected_for_integrated_families(self, spec):
        with pytest.raises(ValueError, match=f"{spec.family} takes no t"):
            kn.kernel_value(spec, 1.0, 2.0, t=0.5)
