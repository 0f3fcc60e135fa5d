import math
import warnings

import numpy as np
import pytest

from rieszlag import basis as bs
from rieszlag import kernels as kn
from rieszlag.specfun import gauss_legendre_panels, geometric_edges
from conftest import (bessel_i, d_alpha_pow_k_heat_pair, fd_derivative,
                      full_domain_rule, laguerre_dw_routes, mp_heat_series)


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

    def test_laguerre_bessel_underflow_raises(self):
        # z = 1154.8 at order 60: the Bessel series' first term underflows,
        # and the kernel read 0.0 where mpmath gives 8.57e-12
        with pytest.raises(RuntimeError, match=r"order 60\.0 underflows"):
            kn.heat_kernel_laguerre(0.2, 15.0, 15.5, alpha=60)

    @pytest.mark.parametrize("t", [745.1, 800.0])
    def test_laguerre_bessel_argument_underflow_raises(self, t):
        # a subnormal z has lost bits: at t = 745.1, e^-t rounds to the
        # smallest subnormal and the closed form gives 3.61e-34 where
        # mpmath gives 3.38e-34; at t = 800, z is 0
        with pytest.raises(RuntimeError, match=fr"t={t}, x=1.0, y=1.0: the "
                           "Bessel argument .* below the smallest normal"):
            kn.heat_kernel_laguerre(t, 1.0, 1.0, -0.9)

    def test_laguerre_tiny_normal_bessel_argument(self):
        # z = 2e-304 is still normal: the closed form keeps its accuracy
        import mpmath as mp
        t, x, y, a = 700.0, 1.0, 1.0, -0.9
        with mp.workdps(40):
            em = mp.e ** -mp.mpf(t)
            den = 1 - em ** 2
            z = 2 * x * y * em / den
            ref = (mp.sqrt(2 * em / den) * mp.sqrt(z) * mp.besseli(a, z)
                   * mp.e ** (-z - ((x - y * em) ** 2 + (y - x * em) ** 2)
                              / (2 * den)))
        assert float(kn.heat_kernel_laguerre(t, x, y, a)) == pytest.approx(
            float(ref), rel=1e-14)

    @pytest.mark.parametrize("t", [708.4, 740.0, 745.1, 800.0])
    def test_hermite_e_minus_t_underflow_raises(self, t):
        # a subnormal e^-t has lost bits: at t = 740 the closed form was
        # 2.5e-4 relative off, and at t = 745.1 and 800 it gave 0.0 where
        # mpmath gives 3.32e-163 and 3.98e-175
        with pytest.raises(RuntimeError, match=fr"t={t}, x=1.0, y=1.0: "
                           "e\\^-t = .* below the smallest normal"):
            kn.heat_kernel_hermite(t, 1.0, 1.0)

    @pytest.mark.parametrize("t", [700.0, 708.0])
    def test_hermite_large_normal_t(self, t):
        # e^-t is still normal: the closed form keeps its accuracy
        import mpmath as mp
        x, y = 1.0, -0.5
        with mp.workdps(40):
            em = mp.e ** -mp.mpf(t)
            den = 1 - em ** 2
            ref = mp.sqrt(em / (mp.pi * den)) * mp.e ** (
                -(x * x + y * y) * (1 + em ** 2) / (2 * den)
                + 2 * x * y * em / den)
        assert float(kn.heat_kernel_hermite(t, x, y)) == pytest.approx(
            float(ref), rel=1e-13)

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

    @pytest.mark.parametrize("l", range(6))
    def test_sign_on_the_row_factor_keeps_bits(self, l):
        # (-1)^l multiplies the per-row factor lam^(l/2); the mesh product
        # it replaced multiplied every cell by -1.0 first
        s, w, _, _ = kn._s_quadrature(8)
        s, w = s[:, None], w[:, None]
        x, y = 0.3, np.linspace(-6.0, 6.0, 97)[None, :]
        val = kn._heat_sw(s, w, x, y)
        lam = w * w / (4.0 * s)
        arg = (w * x - (1.0 + s) * y) / (2.0 * np.sqrt(s))
        want = val
        if l:
            if l % 2:
                want = want * -1.0
            want = want * lam ** (0.5 * l) * kn.hermite_poly(l, arg)
        got = kn._dplusx_heat_sw(l, s, w, x, y)
        assert got.tobytes() == want.tobytes()


class TestDerivativeKernel:
    def test_k_zero_reduces_to_heat(self):
        # at large t, w = 1 - tanh(t/2) must not be formed by subtraction
        for t in (0.5, 20.0, 40.0, 200.0):
            got = d_alpha_pow_k_heat_pair(0, t, 1.0, 1.3, 0.5)[0]
            ref = float(kn.heat_kernel_laguerre(t, 1.0, 1.3, 0.5))
            assert got == pytest.approx(ref, rel=1e-14)

    def test_k_one_vs_fd_oracle(self):
        a, t, x, y = 0.5, 0.5, 1.0, 1.3
        fd = fd_derivative(lambda u: float(kn.heat_kernel_laguerre(t, u, y, a)),
                           x, 1)
        oracle = (-(a + 0.5) / x + x) * float(
            kn.heat_kernel_laguerre(t, x, y, a)) + fd
        assert d_alpha_pow_k_heat_pair(1, t, x, y, a)[0] == pytest.approx(
            oracle, rel=1e-6)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0])
    def test_routes_agree(self, k, alpha):
        for t in (0.3, 1.0, 2.5):
            for x in (0.5, 1.0, 2.0):
                for y in (0.6, 1.1, 1.8):
                    d1, d2 = d_alpha_pow_k_heat_pair(k, t, x, y, alpha)
                    assert abs(d1 - d2) <= 1e-10 * max(abs(d1), abs(d2))

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_nonpositive_points_rejected(self, k):
        # both negative makes the Bessel argument positive, so only an
        # explicit check keeps the kernel from returning a value
        with pytest.raises(ValueError, match="x and y must be > 0"):
            if k:
                kn.riesz_kernel_laguerre_vec(k, 0.5, -1.0, [-2.0])
            else:
                kn.heat_kernel_laguerre(0.5, -1.0, -2.0, 0.5)

    def test_stalled_quadrature_raises(self, monkeypatch):
        # the 8- and 12-node values differ by 4, far above 1e-5 relative
        monkeypatch.setattr(kn, "_hermite_time_integral",
                            lambda l, q, x, y, nodes: np.full(len(y), nodes,
                                                              dtype=float))
        with pytest.raises(kn.QuadratureConvergenceError,
                           match=r"K_gamma quadrature stalled at "
                                 r"\(0\.5, 0\.7\): est err 4\.0$"):
            kernel("hermite-frac", 0.5, 0.7, gamma=2.0)

    def test_vector_form_returns_values(self):
        # the values alone, like the Hermite kernel's vector form
        vals = kn.riesz_kernel_laguerre_vec(1, 0.5, 1.0, np.array([0.5, 2.0]))
        assert isinstance(vals, np.ndarray) and vals.shape == (2,)
        assert np.all(np.isfinite(vals))

    def test_tiny_x_scales_like_x_to_alpha_plus_three_halves(self):
        # K(x, 3) ~ c x^(alpha + 3/2) as x -> 0 at k = 1, so the quotient
        # is the same at 1e-6, 1e-12 and 1e-30; route two is no oracle
        # here, being off by 1e-10, 4.7e-5 and 1.0 at these x
        x = np.array([1e-6, 1e-12, 1e-30])
        vals = kn.riesz_kernel_laguerre_vec(1, 0.5, x, np.full(3, 3.0))
        ratio = vals / x ** 2.0
        assert np.abs(ratio / ratio[-1] - 1.0).max() <= 1e-9

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
        want = laguerre_dw_routes(k, alpha, s[:, None], w[:, None], 1.4, y)[0]
        assert got.shape == want.shape == (len(s), 5)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", [1, 3])
    def test_one_bessel_call_per_order_and_row(self, k, monkeypatch):
        # counts the s-rows each factor is formed on: the k + 1 Bessel
        # orders once per row evaluated, through the kernels namespace, and
        # no Hermite raising derivative
        counts = {}
        for name in ("_heat_sw", "_dplusx_heat_sw", "hermite_poly",
                     "bessel_i_scaled"):
            def counted(*args, _name=name, _inner=getattr(kn, name)):
                rows = np.broadcast_shapes(*map(np.shape, args))[0]
                counts[_name] = counts.get(_name, 0) + rows
                return _inner(*args)

            monkeypatch.setattr(kn, name, counted)
        s, w, _, _ = kn._s_quadrature(8)
        kn._dw_pair_sw(k, 0.5, s[:, None], w[:, None], 1.4,
                       np.array([[0.7, 2.0]]))
        assert counts == {"bessel_i_scaled": (k + 1) * len(s)}
        counts.clear()
        rows = _rows_seen(monkeypatch, "_dw_pair_sw")
        kn.riesz_kernel_laguerre_vec(k, 0.5, 1.4, _BLOCK_TEST_Y)
        assert counts == {"bessel_i_scaled": (k + 1) * sum(rows)}


def _whole_mesh(integrand, wt, y, nodes=8, t_cut=math.inf):
    # one (s x y) mesh over the rule's rows with t <= t_cut, summed as one
    # array of two or more columns: row by row
    s, w, t, _ = kn._s_quadrature(nodes)
    rows = t <= t_cut
    mesh = integrand(s[rows, None], w[rows, None], y[None, :])
    return (wt[rows, None] * mesh).sum(axis=0)


def _laguerre_whole_mesh(k, alpha, x, y, t_cut=kn._LAGUERRE_T_CUT):
    _, _, t, weight = kn._s_quadrature(8)
    wt = weight * t ** (0.5 * k - 1.0) / kn.gamma(0.5 * k)
    return _whole_mesh(lambda s, w, yb: kn._dw_pair_sw(k, alpha, s, w, x, yb),
                       wt, y, t_cut=t_cut)


def _hermite_whole_mesh(k, x, y, l=None, t_cut=None):
    l = k if l is None else l
    t_cut = kn._HERMITE_DECAY / (l + 0.5) if t_cut is None else t_cut
    _, _, t, weight = kn._s_quadrature(8)
    wt = weight * t ** (0.5 * k - 1.0)
    return _whole_mesh(lambda s, w, yb: kn._dplusx_heat_sw(l, s, w, x, yb),
                       wt, y, t_cut=t_cut) / kn.gamma(0.5 * k)


def _rows_seen(monkeypatch, name):
    # number of s-rows of each mesh the kernel evaluates
    seen, inner = [], getattr(kn, name)

    def counted(*args):
        seen.append(np.shape(args[-4])[0])
        return inner(*args)

    monkeypatch.setattr(kn, name, counted)
    return seen


def _meshes_seen(monkeypatch, name="_dw_pair_sw"):
    # the (s, w) rows of each call of the integrand ``name``, whose last
    # four arguments are s, w, x and y, by the bytes of its y
    seen, inner = {}, getattr(kn, name)

    def recorded(*args):
        s, w, _, yb = args[-4:]
        seen.setdefault(yb.tobytes(), []).append((s.ravel(), w.ravel()))
        return inner(*args)

    monkeypatch.setattr(kn, name, recorded)
    return seen


def _check_block_rows(x, y, seen, t_cut=kn._LAGUERRE_T_CUT):
    # each block of a Riesz kernel is evaluated once, on its rows up to
    # t_cut less those below the exponent floor for all its pairs
    s, w, t, _ = kn._s_quadrature(8)
    x = np.broadcast_to(x, np.shape(y))
    blocks = kn._y_blocks(len(y))
    assert len(seen) == len(blocks)
    for cols, calls in zip(blocks, seen.values()):
        rows = -np.min((x[cols] - y[cols]) ** 2) / (4.0 * s) >= kn._EXPO_FLOOR
        rows[0] = True
        (s_seen, w_seen), = calls
        assert np.array_equal(s_seen, s[rows & (t <= t_cut)])
        assert np.array_equal(w_seen, w[rows & (t <= t_cut)])


# four 64-point blocks; the points far from x lose s-rows, and in the last
# block, 51 to 57 from x, the kernel is near or below exp's underflow
_BLOCK_TEST_Y = np.concatenate([np.linspace(0.05, 2.6, 150),
                                1.4 + np.geomspace(1e-4, 0.5, 20),
                                np.geomspace(6.0, 45.0, 22),
                                np.linspace(52.4, 58.4, 64)])


class TestBlockedTimeIntegrals:
    def test_blocks_cover_in_full_width_slices(self):
        assert kn._y_blocks(0) == [slice(0, 0)]
        for n in range(1, 300):
            blocks = kn._y_blocks(n)
            assert [i for b in blocks for i in range(n)[b]] == list(range(n))
            widths = [len(range(n)[b]) for b in blocks]
            assert widths == [b.stop - b.start for b in blocks]
            assert all(0 < width <= kn._Y_BLOCK for width in widths)
            assert widths[:-1] == [kn._Y_BLOCK] * (len(blocks) - 1)

    def test_column_sums_start_from_plus_zero(self):
        # a skipped row adds +-0; numpy's sum never yields -0 from it, nor
        # does the sequential sum of a lone column
        assert not np.signbit(np.full((3, 2), -0.0).sum(axis=0)).any()
        assert not np.signbit(kn._column_sums(np.full((3, 1), -0.0)))[0]

    @pytest.mark.parametrize("n", [1, 2, 7, 100, 479, 880])
    def test_lone_column_summed_row_by_row(self, n):
        # numpy sums one column pairwise, which differs from row by row in
        # the last bits at some n; _column_sums adds it as a wider block
        terms = np.random.default_rng(n).standard_normal((n, 1)) * 10.0 ** (
            np.random.default_rng(n + 1).uniform(-30, 30, (n, 1)))
        wide = np.concatenate([terms, terms], axis=1)
        assert kn._column_sums(terms).tobytes() == \
            kn._column_sums(wide)[:1].tobytes()

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0])
    def test_laguerre_blocks_and_skipped_rows_invisible(self, k, alpha,
                                                        monkeypatch):
        x, y = 1.4, _BLOCK_TEST_Y
        whole = _laguerre_whole_mesh(k, alpha, x, y)
        seen = _meshes_seen(monkeypatch)
        vals = kn.riesz_kernel_laguerre_vec(k, alpha, x, y)
        _check_block_rows(x, y, seen)
        assert np.array_equal(vals, whole)
        pairs = [kn.riesz_kernel_laguerre_vec(k, alpha, x, y[i:i + 2])
                 for i in range(0, len(y) - 1, 2)]
        assert np.array_equal(np.concatenate(pairs), whole[:len(y) // 2 * 2])
        # a one-point call is its column of the block
        for i in (0, 160, 200):
            one = kn.riesz_kernel_laguerre_vec(k, alpha, x, y[i:i + 1])
            assert one.tobytes() == whole[i:i + 1].tobytes()

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
        seen = _meshes_seen(monkeypatch, "_dplusx_heat_sw")
        vals = kn.riesz_kernel_hermite_vec(k, k, x, y)
        _check_block_rows(x, y, seen, kn._HERMITE_DECAY / (k + 0.5))
        assert np.array_equal(vals, whole)
        pairs = [kn.riesz_kernel_hermite_vec(k, k, x, y[i:i + 2])
                 for i in range(0, len(y) - 1, 2)]
        assert np.array_equal(np.concatenate(pairs), whole[:len(y) // 2 * 2])
        for i in (0, 160, 350):
            assert kn.riesz_kernel_hermite_vec(
                k, k, x, y[i:i + 1]).tobytes() == whole[i:i + 1].tobytes()

    def test_overflow_stays_nan(self, monkeypatch):
        # at k = 9 the smallest-s rows overflow (0 * inf); the whole mesh
        # gives NaN and so must the blocks, the second of which skips rows:
        # the sum raises, naming the first pair
        y = np.concatenate([np.linspace(0.5, 3.0, 60), np.geomspace(8, 30, 10)])
        _, _, t, weight = kn._s_quadrature(8)
        wt = weight * t ** 3.5 / kn.gamma(4.5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            whole = _laguerre_whole_mesh(9, 0.5, 1.4, y)
        assert np.isnan(whole).all()
        blocks = []
        column_sums = kn._column_sums

        def recorded(terms):
            blocks.append(column_sums(terms))
            return blocks[-1]

        monkeypatch.setattr(kn, "_column_sums", recorded)
        with pytest.raises(kn.QuadratureConvergenceError,
                           match=r"Riesz kernel at k=9, alpha=0\.5, x=1\.4, "
                                 r"y=0\.5 is not finite"):
            kn._s_integral(
                lambda s, w, xb, yb: kn._dw_pair_sw(9, 0.5, s, w, xb, yb),
                wt, *kn._pairs(1.4, y), 8, kn._LAGUERRE_T_CUT,
                "Riesz kernel", k=9, alpha=0.5)
        assert len(blocks) == len(kn._y_blocks(len(y))) > 1
        assert np.array_equal(np.concatenate(blocks), whole, equal_nan=True)

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
        # raise, naming the parameters and the first y that failed, with no
        # numpy RuntimeWarning before the error
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(kn.QuadratureConvergenceError, match=message):
                call()


# pairs at four x, 40 y near each of the first three and across (0.02, 40),
# 9 y at the last: 129 pairs, so the first two blocks straddle changes of x
# and the last pair is a one-column block of its own
_PAIR_X = np.array([0.3, 1.4, 6.0, 20.0])
_PAIR_Y = [np.concatenate([x * (1.0 + np.geomspace(1e-3, 0.5, 10)),
                           x * (1.0 - np.geomspace(1e-3, 0.5, 10)),
                           np.geomspace(0.02, 40.0, 20)]) for x in _PAIR_X[:3]]
_PAIR_Y.append(np.geomspace(9.0, 30.0, 9))


def _pair_arrays():
    x = np.repeat(_PAIR_X, [len(y) for y in _PAIR_Y])
    return x, np.concatenate(_PAIR_Y)


class TestPairCalls:
    def test_layout(self):
        x, y = _pair_arrays()
        blocks = kn._y_blocks(len(y))
        assert [b.stop - b.start for b in blocks] == [64, 64, 1]
        assert [len(np.unique(x[b])) for b in blocks] == [2, 3, 1]

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("alpha", [-0.5, 0.5, 2.0])
    def test_laguerre_pairs_equal_per_x_calls(self, k, alpha):
        x, y = _pair_arrays()
        vals = kn.riesz_kernel_laguerre_vec(k, alpha, x, y)
        per_x = [kn.riesz_kernel_laguerre_vec(k, alpha, float(xi), yi)
                 for xi, yi in zip(_PAIR_X, _PAIR_Y)]
        one = [kn.riesz_kernel_laguerre_vec(k, alpha, xi, [yi])
               for xi, yi in zip(x[::17], y[::17])]
        assert vals.tobytes() == np.concatenate(per_x).tobytes()
        assert np.concatenate(one).tobytes() == vals[::17].tobytes()
        # the last pair, the call's one-column block, as a one-point call
        last = kn.riesz_kernel_laguerre_vec(k, alpha, x[-1], y[-1:])
        assert last.tobytes() == vals[-1:].tobytes()

    @pytest.mark.parametrize("k,l", [(1, 1), (2, 1), (3, 3), (4, 0)])
    def test_hermite_pairs_equal_per_x_calls(self, k, l):
        x, y = _pair_arrays()
        x, y = np.concatenate([x, -x]), np.concatenate([y, 1.0 - y])
        vals = kn.riesz_kernel_hermite_vec(k, l, x, y)
        per_x = [kn.riesz_kernel_hermite_vec(k, l, xi, yi)
                 for xi, yi in zip(np.concatenate([_PAIR_X, -_PAIR_X]),
                                   _PAIR_Y + [1.0 - v for v in _PAIR_Y])]
        assert vals.tobytes() == np.concatenate(per_x).tobytes()
        one = [kn.riesz_kernel_hermite_vec(k, l, xi, [yi])
               for xi, yi in zip(x[::13], y[::13])]
        assert np.concatenate(one).tobytes() == vals[::13].tobytes()

    def test_block_rows_follow_every_pair(self, monkeypatch):
        x, y = _pair_arrays()
        seen = _meshes_seen(monkeypatch)
        kn.riesz_kernel_laguerre_vec(2, 0.5, x, y)
        _check_block_rows(x, y, seen)

    @pytest.mark.parametrize("call,message", [
        (lambda: kn.riesz_kernel_laguerre_vec(
            9, 0.5, [2.0, 1.4, 1.4], [3.0, 1.0, 2.0]),
         r"Riesz kernel at k=9, alpha=0\.5, x=2\.0, y=3\.0 is not finite"),
        (lambda: kn.riesz_kernel_hermite_vec(
            40, 40, [0.3, -2.0], [0.5, -1.0]),
         r"Hermite time integral at l=40, q=20\.0, x=0\.3, y=0\.5 is not "
         r"finite"),
    ], ids=["laguerre", "hermite"])
    def test_non_finite_sum_names_the_pair(self, call, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(kn.QuadratureConvergenceError, match=message):
                call()

    def test_x_must_broadcast_against_y(self):
        with pytest.raises(ValueError):
            kn.riesz_kernel_laguerre_vec(1, 0.5, [1.0, 2.0], [3.0, 4.0, 5.0])
        with pytest.raises(ValueError, match="requires x != y"):
            kn.riesz_kernel_laguerre_vec(1, 0.5, [1.0, 2.0], [3.0, 2.0])
        with pytest.raises(ValueError, match="singular on the diagonal"):
            kn.riesz_kernel_hermite_vec(1, 1, [1.0, 2.0], [3.0, 2.0])
        with pytest.raises(ValueError, match="x and y must be > 0"):
            kn.riesz_kernel_laguerre_vec(1, 0.5, [1.0, -2.0], [3.0, 2.0])


# the sweep of k, alpha and x on which a plain cut at _LAGUERRE_T_CUT moves
# last bits at k <= 2; each x gets 16 y, near it and across (0.01, 40)
_SWEEP_ALPHAS = (-0.9, -0.5, 0.0, 0.5, 2.0, 5.0, 10.0)
_SWEEP_X = (0.05, 0.3, 1.4, 6.0, 20.0)


def _sweep_y(x):
    return np.concatenate([x * (1.0 + np.array([-0.05, -1e-3, 1e-3, 0.05])),
                           np.geomspace(0.01, 40.0, 12)])


# the Hermite sweep: l = 1..4 at l = k and l < k; each x gets two blocks of
# 64 y, one near x and one near -x (where x + y is about 0) and across
# (-8, 8)
_HERMITE_SWEEP = [(k, l) for k in range(1, 6) for l in range(1, min(k, 4) + 1)]
_HERMITE_SWEEP_X = (-1.5, 0.3, 2.0, 26.0)


def _hermite_sweep_y(x):
    near = np.array([-0.3, -0.1, -1e-2, -1e-3, 1e-3, 1e-2, 0.1, 0.3])
    return np.concatenate([x + near, x + np.linspace(-1.0, 1.0, 56),
                           -x + near, np.linspace(-8.0, 8.0, 56)])


# the guard on the cuts: no value moves by more than this share of the
# largest |K| of its call against the whole rule
_CUT_GUARD = 1e-13


def _laguerre_tail_terms(k, alpha, x, y):
    # |wt_i F_i| at every row beyond _LAGUERRE_T_CUT of the three
    # integrands: the production route, and route two and route one's
    # absolute sum from the oracle
    s, w, t, weight = kn._s_quadrature(8)
    wt = weight * t ** (0.5 * k - 1.0) / kn.gamma(0.5 * k)
    tail = t > kn._LAGUERRE_T_CUT
    mesh = (k, alpha, s[tail, None], w[tail, None], x, y[None, :])
    parts = [kn._dw_pair_sw(*mesh), *laguerre_dw_routes(*mesh)[1:]]
    return [np.abs(wt[tail, None] * f) for f in parts]


class TestCertifiedTail:
    # the s-rule's tail beyond each plain cut, certified once by the guard
    # on fixed sweeps rather than per call
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_sweep_equals_the_whole_rule(self, k):
        # the sweep in one pair call per alpha equals the whole rule cut
        # at _LAGUERRE_T_CUT bit for bit, and the uncut rule within the
        # guard; a move is measured against the largest |K| at its x
        worst = 0.0
        x = np.repeat(_SWEEP_X, 16)
        y = np.concatenate([_sweep_y(v) for v in _SWEEP_X])
        for alpha in _SWEEP_ALPHAS:
            vals = kn.riesz_kernel_laguerre_vec(k, alpha, x, y)
            for xi, got in zip(_SWEEP_X, vals.reshape(len(_SWEEP_X), 16)):
                yi = _sweep_y(xi)
                whole = _laguerre_whole_mesh(k, alpha, xi, yi, math.inf)
                assert got.tobytes() == _laguerre_whole_mesh(
                    k, alpha, xi, yi).tobytes()
                worst = max(worst, np.abs(got - whole).max()
                            / np.abs(whole).max())
        assert worst <= _CUT_GUARD
        # the cut rows change a sum only at k <= 2
        assert (worst > 0) == (k <= 2)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_bound_covers_every_tail_term(self, k):
        # route one, route two and route one's absolute sum: the absolute
        # sum of the rows beyond the cut, at every y of the sweep, is
        # within the guard of the largest |K| at its x
        for alpha in _SWEEP_ALPHAS:
            for x in _SWEEP_X:
                y = _sweep_y(x)
                whole = _laguerre_whole_mesh(k, alpha, x, y, math.inf)
                bound = _CUT_GUARD * np.abs(whole).max()
                terms = _laguerre_tail_terms(k, alpha, x, y)
                assert len(terms) == 3
                for term in terms:
                    assert np.all(term.sum(axis=0) <= bound)

    def test_every_row_evaluated_once_per_block(self, monkeypatch):
        # at x = 20 and alpha -0.9, one block far from x and one near it:
        # each is evaluated once, on its rows up to the cut
        x = 20.0
        y = np.concatenate([np.geomspace(0.02, 2.0, 64),
                            x + np.delete(np.linspace(-1.0, 1.0, 65), 32)])
        seen = _meshes_seen(monkeypatch)
        vals = kn.riesz_kernel_laguerre_vec(2, -0.9, x, y)
        _check_block_rows(x, y, seen)
        assert vals.tobytes() == _laguerre_whole_mesh(2, -0.9, x, y).tobytes()

    def test_tiny_x(self):
        # the rows where z^(1/2 - k) overflows (k = 8, x = 1e-30) or z
        # underflows to 0 (x = 1e-150) lie beyond the cut: at 1e-30 the
        # values are finite and agree with route two on the same rows; at
        # 1e-150 |K| is about 1e-450, and the sum is exactly 0
        y = np.array([3.0, 4.0])
        with np.errstate(all="ignore"):
            assert np.isnan(_laguerre_whole_mesh(
                8, 0.5, 1e-30, y, math.inf)).all()
        vals = kn.riesz_kernel_laguerre_vec(8, 0.5, 1e-30, y)
        _, _, t, weight = kn._s_quadrature(8)
        two = kn._s_integral(
            lambda s, w, xb, yb: laguerre_dw_routes(8, 0.5, s, w, xb, yb)[1],
            weight * t ** 3.0 / kn.gamma(4.0), *kn._pairs(1e-30, y), 8,
            kn._LAGUERRE_T_CUT, "route two", k=8, alpha=0.5)
        assert np.all(np.isfinite(vals))
        assert np.all(np.abs(vals - two) <= 1e-11 * np.abs(vals))
        vals = kn.riesz_kernel_laguerre_vec(1, 0.5, 1e-150, [2e-150, 3e-150])
        assert vals.tolist() == [0.0, 0.0]
        assert not np.signbit(vals).any()

    @pytest.mark.parametrize("k,l", _HERMITE_SWEEP)
    def test_hermite_sweep_equals_the_whole_rule(self, k, l):
        # equal to the whole rule cut at t_l bit for bit, and within the
        # guard of the uncut rule
        worst = 0.0
        for x in _HERMITE_SWEEP_X:
            y = _hermite_sweep_y(x)
            got = kn.riesz_kernel_hermite_vec(k, l, x, y)
            assert got.tobytes() == _hermite_whole_mesh(k, x, y, l).tobytes()
            whole = _hermite_whole_mesh(k, x, y, l, math.inf)
            worst = max(worst, np.abs(got - whole).max() / np.abs(whole).max())
        assert 0 < worst <= _CUT_GUARD

    @pytest.mark.parametrize("k,l", _HERMITE_SWEEP)
    def test_hermite_bound_covers_every_tail_term(self, k, l):
        # the absolute sum of the rows beyond t_l, at every y of the sweep,
        # is within the guard of the largest |K| at its x
        s, w, t, weight = kn._s_quadrature(8)
        wt = weight * t ** (0.5 * k - 1.0) / kn.gamma(0.5 * k)
        tail = t > kn._HERMITE_DECAY / (l + 0.5)
        assert tail.any()
        for x in _HERMITE_SWEEP_X:
            y = _hermite_sweep_y(x)
            term = np.abs(wt[tail, None] * kn._dplusx_heat_sw(
                l, s[tail, None], w[tail, None], x, y[None, :]))
            whole = _hermite_whole_mesh(k, x, y, l, math.inf)
            assert np.all(term.sum(axis=0)
                          <= _CUT_GUARD * np.abs(whole).max())

    def test_hermite_every_row_evaluated_once_per_block(self, monkeypatch):
        # at x = 2 and k = 3, l = 2: the block near x and the block near
        # y = -7 are each evaluated once, on the rows up to t_2
        x = 2.0
        y = np.concatenate([x + np.delete(np.linspace(-1.0, 1.0, 65), 32),
                            np.linspace(-8.0, -6.6, 64)])
        seen = _meshes_seen(monkeypatch, "_dplusx_heat_sw")
        vals = kn.riesz_kernel_hermite_vec(3, 2, x, y)
        _check_block_rows(x, y, seen, kn._HERMITE_DECAY / 2.5)
        assert vals.tobytes() == _hermite_whole_mesh(3, x, y, 2).tobytes()

    def test_hermite_l_zero_has_no_tail_rows(self, monkeypatch):
        # the cut at l = 0 lies past the rule's last node, so K_gamma and
        # the l = 0 kernels keep every row
        for nodes in (8, 12):
            assert kn._s_quadrature(nodes)[2].max() < kn._HERMITE_DECAY / 0.5
        seen = _meshes_seen(monkeypatch, "_dplusx_heat_sw")
        y = _hermite_sweep_y(0.3)
        vals = kn.riesz_kernel_hermite_vec(2, 0, 0.3, y)
        _check_block_rows(0.3, y, seen, math.inf)
        assert vals.tobytes() == _hermite_whole_mesh(
            2, 0.3, y, 0, math.inf).tobytes()


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

    def test_rule_end_raises_at_large_gamma(self):
        # the s-rule ends near t = 61, and t^(q-1) e^(-t/2) puts 14% of its
        # mass beyond that at gamma 50: the value is 14% low
        with pytest.raises(kn.QuadratureConvergenceError,
                           match="K_gamma quadrature stalled"):
            kn.kernel_value(kn.KernelSpec("hermite-frac", gamma=50.0),
                            0.3, 0.9)

    def test_rule_end_reported_at_gamma_16(self):
        # 3.7e-7 of the mass lies beyond the rule's end; the 8-to-12-node
        # change alone reads about 6e-11
        value, err = kn.kernel_value(kn.KernelSpec("hermite-frac",
                                                   gamma=16.0), 0.3, 0.9)
        assert err >= 3e-7 * abs(value)
        assert err == kn._frac_tail(8.0, 8) * abs(value)

    @pytest.mark.parametrize("gamma", [1.5, 2.0])
    @pytest.mark.parametrize("x,y", [(0.3, 0.8), (0.3, 1.2), (1.0, -0.5)])
    def test_small_gamma_unchanged(self, gamma, x, y):
        # the rule end's share is far below the node change here, so the
        # value is the 12-node integral and est_err that change, bit for bit
        value, err = kn.kernel_value(kn.KernelSpec("hermite-frac",
                                                   gamma=gamma), x, y)
        fine, coarse = (kn._hermite_time_integral(0, 0.5 * gamma,
                                                  *kn._pairs(x, [y]), n)[0]
                        for n in (12, 8))
        assert value == fine
        assert err == abs(fine - coarse)

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

    @pytest.mark.parametrize("x", [0.6, 1.4, 3.0])
    def test_laguerre_minus_half_is_even_hermite(self, x):
        # K^{L,-1/2}_k(x, y) = K^H_k(x, y) + K^H_k(x, -y) (ROADMAP item 6),
        # away from the diagonal; at k = 4, x = 3 the two sides differ by
        # 3.1e-11 of max|K|
        y = np.linspace(0.02, 8.0, 300)
        y = y[np.abs(y - x) >= 0.2]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in range(1, 5):
                lag = kn.riesz_kernel_laguerre_vec(k, -0.5, x, y)
                even = (kn.riesz_kernel_hermite_vec(k, k, x, y)
                        + kn.riesz_kernel_hermite_vec(k, k, x, -y))
                assert np.abs(lag - even).max() <= 1e-10 * np.abs(lag).max()

    @pytest.mark.parametrize("x", [0.6, 1.4, 3.0])
    def test_laguerre_plus_half_is_odd_hermite(self, x):
        # D_{1/2} = A - 1/x with A = d/dx + x, and D(x^-m A^j) = x^-m
        # A^(j+1) - (m+1) x^-(m+1) A^j, so D^k = sum c_mj x^-m A^j and
        # K^{L,1/2}_k(x, y) = sum c_mj x^-m [K^H_kj(x, y) - K^H_kj(x, -y)]
        # (ROADMAP item 9), away from the diagonal; at k = 4, x = 3 the two
        # sides differ by 2.3e-11 of max|K|
        y = np.linspace(0.02, 8.0, 300)
        y = y[np.abs(y - x) >= 0.2]
        c = {(0, 0): 1}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in range(1, 5):
                step = {}
                for (m, j), v in c.items():
                    step[m, j + 1] = step.get((m, j + 1), 0) + v
                    step[m + 1, j] = step.get((m + 1, j), 0) - (m + 1) * v
                c = step
                lag = kn.riesz_kernel_laguerre_vec(k, 0.5, x, y)
                her = {j: kn.riesz_kernel_hermite_vec(k, j, x, y)
                       - kn.riesz_kernel_hermite_vec(k, j, x, -y)
                       for j in range(k + 1)}
                odd = sum(v * x ** -m * her[j] for (m, j), v in c.items())
                assert np.abs(lag - odd).max() <= 1e-10 * np.abs(lag).max()

    @pytest.mark.parametrize("t", [0.3, 1.0, 2.0])
    def test_laguerre_plus_half_heat_is_odd_hermite(self, t):
        # W^{1/2}_t(x, y) = W^H_t(x, y) - W^H_t(x, -y); measured 8.8e-15 of
        # max|W| at most.  At t = 10 the difference cancels (2xy e^-t is
        # small) and reads 2.5e-12
        y = np.linspace(0.02, 8.0, 300)
        for x in (0.6, 1.4, 3.0):
            lag = kn.heat_kernel_laguerre(t, x, y, 0.5)
            odd = kn.heat_kernel_hermite(t, x, y) - kn.heat_kernel_hermite(
                t, x, -y)
            assert np.abs(lag - odd).max() <= 1e-13 * np.abs(lag).max()

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
