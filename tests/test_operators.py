import math
import warnings

import numpy as np
import pytest

from rieszlag import basis as bs
from rieszlag import kernels as kn
from rieszlag import operators as op
from rieszlag.kernels import KernelSpec
from rieszlag.specfun import gauss_legendre_panels
from conftest import basis_jet

TAG_H = bs.BasisTag("hermite")


def laguerre_tag(alpha):
    return bs.BasisTag("laguerre", alpha)


def unit(n, size):
    v = np.zeros(size)
    v[n] = 1.0
    return v


def heat(t, coeffs):
    """Spectral heat semigroup: c_n -> e^{-t lambda_n} c_n."""
    lam = coeffs.basis.eigenvalue(np.arange(len(coeffs.coeffs)))
    return bs.SpectralCoeffs(coeffs.basis, np.exp(-t * lam) * coeffs.coeffs)


class TestDiagonalOperators:
    def test_heat_eigenvalue(self):
        c = bs.SpectralCoeffs(laguerre_tag(0.0), unit(2, 6))
        out = heat(1.0, c)
        assert out.coeffs[2] == pytest.approx(math.exp(-5.0), rel=1e-15)

    def test_heat_pointwise_matches_kernel_integral(self):
        a, t = 0.5, 0.7
        f = op.bump(1.25, 0.75)
        c = bs.analyze(f, laguerre_tag(a), 220)
        x0 = 1.1
        # direct quadrature aligned to the bump support
        xs, ws = gauss_legendre_panels(np.linspace(0.5, 2.0, 25), 14)
        direct = float(ws @ (kn.heat_kernel_laguerre(t, x0, xs, a) * f(xs)))
        spectral = bs.synthesize(heat(t, c), x0)
        assert spectral == pytest.approx(direct, abs=1e-8)

    def test_negative_power_values(self):
        c = bs.SpectralCoeffs(TAG_H, unit(0, 3))
        assert op.negative_power(0.5, c).coeffs[0] == pytest.approx(
            math.sqrt(2.0), rel=1e-15)
        c = bs.SpectralCoeffs(laguerre_tag(0.0), unit(1, 3))
        assert op.negative_power(1.0, c).coeffs[1] == pytest.approx(1 / 3,
                                                                    rel=1e-15)

    def test_negative_power_linearity(self):
        tag = laguerre_tag(0.7)
        c1 = bs.SpectralCoeffs(tag, unit(1, 5))
        c2 = bs.SpectralCoeffs(tag, unit(3, 5))
        combo = bs.SpectralCoeffs(tag, 2.0 * c1.coeffs - 0.3 * c2.coeffs)
        lhs = op.negative_power(0.8, combo).coeffs
        rhs = (2.0 * op.negative_power(0.8, c1).coeffs
               - 0.3 * op.negative_power(0.8, c2).coeffs)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-15)

    def test_commutation(self):
        c = bs.SpectralCoeffs(TAG_H, np.linspace(0.3, 1.0, 9))
        lhs = op.negative_power(0.7, heat(0.5, c)).coeffs
        rhs = heat(0.5, op.negative_power(0.7, c)).coeffs
        np.testing.assert_allclose(lhs, rhs, rtol=1e-15)

    def test_negative_power_integral_form(self):
        # (1/Gamma(beta)) int t^{beta-1} e^{-lambda t} dt = lambda^-beta,
        # computed through the package's own substituted-time rule
        from rieszlag.kernels import _s_quadrature
        from rieszlag.specfun import gamma
        s, w, t, weight = _s_quadrature(8)
        for beta in (0.5, 1.0, 1.7):
            for lam in (0.5, 3.0, 10.5):
                got = float((weight * t ** (beta - 1.0)
                             * np.exp(-lam * t)).sum() / gamma(beta))
                assert got == pytest.approx(lam**-beta, rel=1e-7)


class TestSpectralRiesz:
    def test_hermite_first_order(self):
        c = bs.SpectralCoeffs(TAG_H, unit(1, 4))
        out = op.riesz_spectral_hermite(1, c)
        assert out.coeffs[0] == pytest.approx(math.sqrt(4.0 / 3.0), rel=1e-15)

    def test_hermite_below_order_vanishes(self):
        c = bs.SpectralCoeffs(TAG_H, unit(0, 4))
        assert np.abs(op.riesz_spectral_hermite(1, c).coeffs).max() == 0.0

    def test_hermite_second_order(self):
        c = bs.SpectralCoeffs(TAG_H, unit(2, 4))
        out = op.riesz_spectral_hermite(2, c)
        assert out.coeffs[0] == pytest.approx(4.0 * math.sqrt(2.0) / 5.0,
                                              rel=1e-15)

    def test_laguerre_ground_state_annihilated(self):
        a = 0.5
        c = bs.SpectralCoeffs(laguerre_tag(a), unit(0, 4))
        vals = op.riesz_apply_laguerre_spectral(1, c,
                                                np.array([0.5, 1.0, 2.0]))
        assert np.abs(vals).max() < 1e-14

    def test_laguerre_linearity(self):
        a = 0.5
        tag = laguerre_tag(a)
        c1 = bs.SpectralCoeffs(tag, unit(1, 6))
        c2 = bs.SpectralCoeffs(tag, unit(4, 6))
        combo = bs.SpectralCoeffs(tag, 1.5 * c1.coeffs + 0.25 * c2.coeffs)
        inf = float("inf")  # single basis vectors, no truncation question
        lhs = op.riesz_apply_laguerre_spectral(2, combo, 1.2, tail_tol=inf)
        rhs = (1.5 * op.riesz_apply_laguerre_spectral(2, c1, 1.2, tail_tol=inf)
               + 0.25 * op.riesz_apply_laguerre_spectral(2, c2, 1.2,
                                                         tail_tol=inf))
        assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_laguerre_single_application_is_ladder(self):
        # one application of the first-order factor sends phi_n^alpha to
        # -2 sqrt(n) phi_{n-1}^{alpha+1}; verified pointwise
        a, n, x = 0.7, 3, 1.3
        value, deriv, _ = basis_jet(n, x, a)
        got = (-(a + 0.5) / x + x) * value + deriv
        expected = -2.0 * math.sqrt(n) * bs.phi_table(n - 1, a + 1.0, x)[n - 1]
        assert got == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5, 2.0])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_each_point_is_independent_of_its_batch(self, k, alpha):
        # one table per term serves every x; each point must still get the
        # bits of a one-point call, which a whole-table product would not
        f = op.bump(1.25, 0.75)
        c = bs.analyze(f, laguerre_tag(alpha), 1200)
        xs = np.random.default_rng(k).uniform(0.55, 1.95, 9)
        ones = [op.riesz_apply_laguerre_spectral(k, c, xs[i:i + 1],
                                                 tail_tol=math.inf)
                for i in range(9)]
        for m in range(1, 10):
            batch = op.riesz_apply_laguerre_spectral(k, c, xs[:m],
                                                     tail_tol=math.inf)
            assert batch.shape == (m,)
            assert [v.tobytes() for v in batch] == [
                one.tobytes() for one in ones[:m]]
        scalar = op.riesz_apply_laguerre_spectral(k, c, float(xs[0]),
                                                  tail_tol=math.inf)
        assert type(scalar) is float
        assert scalar == batch[0]

    def test_tail_flag(self):
        a = 0.0
        c = bs.SpectralCoeffs(laguerre_tag(a), np.ones(5))
        with pytest.warns(op.TruncationTailWarning):
            op.riesz_apply_laguerre_spectral(1, c, 1.0)


class TestPVApply:
    def test_wk_values(self):
        assert op.wk(1) == 0.0
        assert op.wk(2) == -2.0
        assert op.wk(3) == 0.0
        assert op.wk(4) == 4.0
        with pytest.raises(ValueError):
            op.wk(0)

    def test_accuracy_warning_bound(self, monkeypatch):
        # the warning fires where err_estimate exceeds the bound times
        # 1 + |value|, or is NaN, and moves nothing in the result
        f = op.bump(0.0, 1.0)
        spec = KernelSpec("hermite-riesz", k=2)
        base = op.pv_apply(spec, f, 0.3, stages=3)
        limit = base.extrapolated
        edge = op._PV_ACCURACY_BOUND * (1.0 + abs(base.total))
        for err, warns in ((edge, False), (np.nextafter(edge, np.inf), True),
                           (math.nan, True)):
            monkeypatch.setattr(op, "extrapolate_to_zero",
                                lambda eps, values, err=err: (limit, err))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                res = op.pv_apply(spec, f, 0.3, stages=3)
            named = [w for w in caught
                     if issubclass(w.category, op.PVAccuracyWarning)]
            assert len(named) == warns
            assert res.values.tobytes() == base.values.tobytes()
            assert res.total == base.total
            if warns:
                assert str(named[0].message).startswith(
                    "hermite-riesz k=2 x=0.3: err_estimate ")

    def test_wk_correction_reported(self):
        f = op.bump(0.0, 1.0)
        res = op.pv_apply(KernelSpec("hermite-riesz", k=2), f, 0.3, stages=6)
        assert res.wk_correction == pytest.approx(-2.0 * f(0.3), rel=1e-15)

    def test_support_away_from_point_reduces_to_plain_integral(self):
        f = op.bump(2.5, 0.5)
        x0 = 1.0
        f.support = (0.5, 3.2)
        res = op.pv_apply(KernelSpec("hermite-riesz", k=1), f, x0, stages=6)
        xs, ws = gauss_legendre_panels(np.linspace(2.0, 3.0, 9), 14)
        direct = float(ws @ (kn.riesz_kernel_hermite_vec(1, 1, x0, xs)
                             * f(xs)))
        assert res.wk_correction == 0.0
        # the pv panels are not aligned to the bump edges, so agreement is
        # limited by plain quadrature of the flat edge, not by the pv limit
        assert res.extrapolated == pytest.approx(direct, abs=2e-5)

    def test_hermite_pv_matches_spectral_quick(self):
        f = op.bump(0.0, 1.0)
        c = bs.analyze(f, TAG_H, 1200)
        out = op.riesz_spectral_hermite(1, c)
        for x in (-0.4, 0.55):
            res = op.pv_apply(KernelSpec("hermite-riesz", k=1), f, x,
                              stages=10)
            spectral = bs.synthesize(out, x)
            assert abs(res.total - spectral) < 1e-3 * (1 + abs(spectral))

    @pytest.mark.parametrize("alpha", [-0.9, 0.5])
    def test_laguerre_pv_matches_spectral_quick(self, alpha):
        # -0.9 exercises the singular-weight end of the admissible range
        f = op.bump(1.25, 0.75)
        c = bs.analyze(f, laguerre_tag(alpha), 800)
        x = 1.4
        spectral = op.riesz_apply_laguerre_spectral(2, c, x, tail_tol=1e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", kn.KernelAgreementWarning)
            res = op.pv_apply(KernelSpec("laguerre-riesz", k=2, alpha=alpha),
                              f, x, stages=10)
        assert abs(res.total - spectral) < 1e-3 * (1 + abs(spectral))

    def test_laguerre_pv_third_order(self):
        # beyond the second order the triple-sum kernel cancels harder near
        # the diagonal, and the PV value must still match the spectral one
        a, k, x = 0.5, 3, 1.3
        f = op.bump(1.25, 0.75)
        c = bs.analyze(f, laguerre_tag(a), 800)
        spectral = op.riesz_apply_laguerre_spectral(k, c, x, tail_tol=1e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", kn.KernelAgreementWarning)
            res = op.pv_apply(KernelSpec("laguerre-riesz", k=k, alpha=a), f,
                              x, stages=10)
        assert abs(res.total - spectral) < 1e-3 * (1 + abs(spectral))

    def test_pv_k4_needs_sign_corrected_constant(self):
        # the even-order constant alternates in sign with k/2: at k = 4 the
        # principal value plus +4 f(x) matches the spectral transform, while
        # -4 f(x) is off by 8 f(x)
        f = op.bump(0.0, 1.0)
        c = bs.analyze(f, TAG_H, 1200)
        out = op.riesz_spectral_hermite(4, c)
        x = 0.3
        res = op.pv_apply(KernelSpec("hermite-riesz", k=4), f, x, stages=10)
        spectral = bs.synthesize(out, x)
        assert abs(res.total - spectral) < 1e-3 * (1 + abs(spectral))
        assert abs((-4.0 * f(x) + res.extrapolated) - spectral) > 1.0

    def test_pv_result_invariants(self):
        f = op.bump(0.0, 1.0)
        res = op.pv_apply(KernelSpec("hermite-riesz", k=1), f, 0.2, stages=6)
        assert np.all(np.diff(res.epsilons) < 0)
        assert np.all(res.epsilons > 0)
        assert res.err_estimate >= 0
        with pytest.raises(ValueError):
            op.PVResult(np.array([0.1, 0.2]), np.array([1.0, 2.0]), 0.0, 0.0,
                        0.0)

    def test_intermediate_derivative_transform_plain_integral(self):
        # for l < k the l-fold raising derivative of the negative power is
        # an absolutely convergent integral against the (k, l) kernel; the
        # spectral side applies the coefficient ladder l times
        k, l, x0 = 2, 1, 0.3
        f = op.bump(0.0, 1.0)
        c = bs.analyze(f, TAG_H, 900)
        g = op.negative_power(0.5 * k, c).coeffs
        for _ in range(l):
            m = np.arange(len(g) - 1, dtype=float)
            g = np.sqrt(2.0 * (m + 1.0)) * g[1:]
        spectral = bs.synthesize(bs.SpectralCoeffs(TAG_H, g), x0)
        from rieszlag.specfun import geometric_edges
        ys, ws = [], []
        for edges in (geometric_edges(-1.0, x0, toward="right", floor=1e-10),
                      geometric_edges(x0, 1.0, toward="left", floor=1e-10)):
            xs_, ws_ = gauss_legendre_panels(edges, 12)
            ys.append(xs_)
            ws.append(ws_)
        ys = np.concatenate(ys)
        ws = np.concatenate(ws)
        direct = float(ws @ (kn.riesz_kernel_hermite_vec(k, l, x0, ys)
                             * f(ys)))
        assert direct == pytest.approx(spectral, abs=5e-5)

    def test_pv_points_run_concurrently(self):
        from concurrent.futures import ThreadPoolExecutor
        f = op.bump(0.0, 1.0)
        spec = KernelSpec("hermite-riesz", k=1)
        pts = [-0.3, 0.1, 0.5]
        serial = [op.pv_apply(spec, f, x, stages=6).total for x in pts]
        with ThreadPoolExecutor(max_workers=3) as ex:
            threaded = list(ex.map(
                lambda x: op.pv_apply(spec, f, x, stages=6).total, pts))
        assert serial == threaded

    def test_strip_an_ulp_wide(self):
        spec = KernelSpec("hermite-riesz", k=1)
        for center, x, nearby in (
                # x + 0.05 lies one ulp below the support end -0.49, so the
                # first strip above x, (-0.49000000000000005, -0.49), is too
                # narrow for distinct panel edges
                (-0.99, -0.54, -0.54 - 1e-10),
                # x - 0.05 lies one ulp above the support end 0.49: the same
                # for the first strip below x, (0.49, 0.49000000000000005)
                (0.99, 0.54, 0.54 + 1e-10)):
            f = op.bump(center, 0.5)
            res = op.pv_apply(spec, f, x, stages=10)
            near = op.pv_apply(spec, f, nearby, stages=10)
            assert res.total == pytest.approx(near.total, rel=1e-8)

    def test_far_piece_an_ulp_wide(self):
        # x is -0.9 moved 3 ulps toward 0, so x - 0.1 lies 3 ulps above the
        # support end -1: the left far piece, 3.3e-16 wide, has no
        # increasing geometric edges and is dropped
        spec = KernelSpec("hermite-riesz", k=1)
        f = op.bump(0.0, 1.0)
        x = -0.8999999999999997
        assert x == -0.9 + 3 * 2.0 ** -53 and x - 0.1 == -1.0 + 3 * 2.0 ** -53
        res = op.pv_apply(spec, f, x, stages=10)
        near = op.pv_apply(spec, f, x - 1e-10, stages=10)
        assert res.total == pytest.approx(near.total, rel=1e-8)

    def test_support_within_the_smallest_radius(self):
        # no far piece and no strip is left to integrate over
        with pytest.raises(ValueError, match=(
                r"^the support \(-0\.001, 0\.001\) lies within the smallest "
                r"excision radius 0\.025 of x=-0\.00076$")):
            op.pv_apply(KernelSpec("hermite-riesz", k=1), op.bump(0.0, 0.001),
                        -0.00076, stages=3)

    def test_pv_validation(self):
        f = op.bump(0.0, 1.0)
        with pytest.raises(ValueError):
            op.pv_apply(KernelSpec("hermite-heat"), f, 0.0)
        with pytest.raises(ValueError):
            op.pv_apply(KernelSpec("hermite-riesz", k=2, l=1), f, 0.0)
        with pytest.raises(ValueError):
            op.pv_apply(KernelSpec("hermite-riesz", k=1), f, 2.0)
        with pytest.raises(ValueError):
            op.pv_apply(KernelSpec("laguerre-riesz", k=1, alpha=0.0),
                        op.bump(0.5, 1.0), 0.4)


class TestHermiteLaguerreIdentity:
    """At alpha = -1/2, phi_n^{-1/2} = (-1)^n sqrt(2) h_{2n} on x > 0 and
    D_{-1/2} = d/dx + x (ROADMAP item 6), so the Laguerre Riesz transform of
    f is the Hermite Riesz transform of f's even extension at x > 0."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_spectral_route(self, k):
        # the CLI's Laguerre bump against its even extension, whose
        # expansion to degree 2N holds the Laguerre one to degree N; the two
        # sides agree to 2.9e-8 at most (k = 3), so the bound is 4e-8
        f = op.bump(1.25, 0.75)

        def even(y):
            return f(np.abs(y))

        even.support = (-2.0, 2.0)
        x = np.linspace(0.05, 3.0, 23)
        lag = op.riesz_apply_laguerre_spectral(
            k, bs.analyze(f, laguerre_tag(-0.5), 1200), x, tail_tol=np.inf)
        her = bs.synthesize(
            op.riesz_spectral_hermite(k, bs.analyze(even, TAG_H, 2400)), x)
        assert np.abs(lag - her).max() <= 4e-8

    @pytest.mark.parametrize("k", [1, 2])
    def test_pv_route(self, k):
        # the even bump of radius 3 on (0, 3) (it is 0 only at 3, and the
        # piece below 1e-12 it leaves out weighs about 1e-12 |K|) against
        # the bump itself.  The Laguerre excision also cuts |y + x| < eps
        # out of the Hermite integral, a smooth term in eps that the
        # extrapolation removes.  The two sides agree to 6.3e-9 at most
        # (k = 2, x = 0.3), so the bound is 1e-8; their far-field panels
        # differ, and for the bump of radius 1 they agree only to 4e-7.
        # k >= 3 waits for ROADMAP item 5.
        g = op.bump(0.0, 3.0)

        def f(y):
            return g(y)

        f.support = (1e-12, 3.0)
        for x in (0.3, 0.9, 1.5, 2.1, 2.7):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                lag = op.pv_apply(KernelSpec("laguerre-riesz", k=k,
                                             alpha=-0.5), f, x)
                her = op.pv_apply(KernelSpec("hermite-riesz", k=k), g, x)
            assert abs(lag.total - her.total) <= 1e-8


class TestFiniteExpansionOracle:
    """The PV route against exact answers on tools/oracle_table.py's finite
    expansions, f = sum_{n <= N} c_n h_n (or c_n phi_n^alpha) with seeded
    c_n, whose spectral image is exact to rounding (ROADMAP item 20, stage
    1).  Only the bounds that hold by a factor of 4 or more are checked:
    the odd k and Laguerre k = 4 wait for items 5 and 8."""

    @pytest.mark.parametrize("k", [2, 4])
    def test_hermite(self, k, oracle_table):
        # measured 4.4e-11 (k = 2) and 9.0e-13 (k = 4)
        row, = oracle_table.table(ks=(k,), alphas=())
        assert row[:3] == ("hermite", None, k)
        assert row[3] <= 1e-9

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0])
    def test_laguerre_k2(self, alpha, oracle_table):
        # measured 6.7e-9, 5.6e-9 and 7.2e-9 (alpha 0, 0.5, 2), all at
        # x = 3: the kernel's error (ROADMAP item 5).  The table's first
        # row, Hermite k = 2, is cheap and not checked here
        row = oracle_table.table(ks=(2,), alphas=(alpha,))[-1]
        assert row[:3] == ("laguerre", alpha, 2)
        assert row[3] <= 3e-8


class TestPhiLimit:
    def test_k2(self):
        rep = op.phi_limit(2)
        assert rep["extrapolated"] == pytest.approx(-1.0, abs=1e-6)
        assert rep["closed_form"] == -1.0

    def test_k4_closed_form_magnitude(self):
        rep = op.phi_limit(4)
        assert abs(rep["extrapolated"]) == pytest.approx(2.0, abs=1e-6)
        assert rep["extrapolated"] == pytest.approx(rep["closed_form"],
                                                    abs=1e-6)

    def test_parity(self):
        # odd k: even function of eps, exactly; even k: odd function
        for eps in (0.1, 0.02):
            assert op.phi_at(3, eps) == op.phi_at(3, -eps)
            assert op.phi_at(2, eps) == -op.phi_at(2, -eps)

    def test_boundary_term_combination(self):
        # (f(x+eps) + f(x-eps)) Phi(eps) tends to the even-order constant
        # times f(x)
        f = op.bump(0.0, 1.0)
        x, k = 0.25, 2
        vals = [(f(x + e) + f(x - e)) * op.phi_at(k, e)
                for e in (0.05, 0.01, 0.002)]
        assert vals[-1] == pytest.approx(op.wk(k) * f(x), rel=5e-3)

    def test_error_decreases_along_schedule(self):
        rep = op.phi_limit(2)
        errs = np.abs(np.asarray(rep["values"]) - rep["closed_form"])
        assert np.all(np.diff(errs) < 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            op.phi_limit(3)
        with pytest.raises(ValueError):
            op.phi_at(2, 0.0)


class TestWeightedNorm:
    def test_unit_mass_bump(self):
        f = op.bump(1.0, 0.5)
        xs, ws = gauss_legendre_panels(np.linspace(0.5, 1.5, 33), 14)
        mass = float(ws @ f(xs))
        n = op.weighted_norm(f, 1.0, 0.0, f.support)
        assert n == pytest.approx(mass, rel=1e-8)

    def test_homogeneity(self):
        f = op.bump(1.0, 0.5)
        n1 = op.weighted_norm(f, 2.0, 0.3, f.support)
        n3 = op.weighted_norm(lambda x: 3.0 * f(x), 2.0, 0.3, f.support)
        assert n3 == pytest.approx(3.0 * n1, rel=1e-14)

    def test_delta_shift_bounds(self):
        f = op.bump(1.5, 0.5)  # support [1, 2]
        base = op.weighted_norm(f, 2.0, 0.0, f.support)
        shifted = op.weighted_norm(f, 2.0, 1.3, f.support)
        assert base * 1.0 ** (1.3 / 2.0) <= shifted <= base * 2.0 ** (1.3 / 2.0)

    def test_validation(self):
        f = op.bump(1.0, 0.5)
        with pytest.raises(ValueError, match="p must be >= 1"):
            op.weighted_norm(f, 0.5, 0.0, (0.0, 30.0))
        # at p = inf the quadrature would read 1.0 for every f, and a NaN or
        # infinite delta breaks the endpoint rule
        for p, delta in ((math.inf, 0.0), (2.0, math.nan), (2.0, math.inf),
                         (2.0, -math.inf)):
            with pytest.raises(ValueError, match="need finite p and delta"):
                op.weighted_norm(f, p, delta, (0.0, 30.0))


class TestBump:
    def test_support_and_smoothness(self):
        f = op.bump(1.0, 0.5)
        assert f.support == (0.5, 1.5)
        assert f(0.5) == 0.0 and f(1.5) == 0.0 and f(2.0) == 0.0
        assert f(1.0) == pytest.approx(1.0)

    def test_extrapolation_helper(self):
        eps = 0.1 * 0.5 ** np.arange(6)
        vals = 3.0 + 2.0 * eps - 5.0 * eps**2
        limit, err = op.extrapolate_to_zero(eps, vals)
        assert limit == pytest.approx(3.0, abs=1e-12)
        assert err < 1e-10

    @pytest.mark.parametrize("stages", [3, 8, 10])
    def test_extrapolation_matches_the_index_loop(self, stages):
        # the Neville table built entry by entry, as before each level became
        # one array expression: every entry takes the same IEEE operations
        def index_loop(eps, vals):
            n = len(eps)
            level = np.array(vals, dtype=float)
            diag = [level[0]]
            for m in range(1, n):
                nxt = np.empty(n - m)
                for i in range(n - m):
                    nxt[i] = ((eps[i + m] * level[i] - eps[i] * level[i + 1])
                              / (eps[i + m] - eps[i]))
                level = nxt
                diag.append(level[0])
            return float(diag[-1]), float(abs(diag[-1] - diag[-2]))

        eps = op._eps_schedule(stages)
        rng = np.random.default_rng(stages)
        for _ in range(50):
            vals = rng.standard_normal(stages) * 10.0 ** rng.uniform(-8, 3)
            got = np.array(op.extrapolate_to_zero(eps, vals))
            assert got.tobytes() == np.array(index_loop(eps, vals)).tobytes()
