import numpy as np
import pytest

from rieszlag import basis as bs
from rieszlag import operators as op
from rieszlag import verify as vf
from rieszlag.specfun import gauss_legendre_panels


class TestProp33Scans:
    def test_region_i_stable(self):
        rep = vf.check_prop33("prop33-i", 1, 0.5, nx=5, ny=4)
        assert rep.stable
        assert np.isfinite(rep.sup_ratio)
        assert rep.empirical_only

    def test_region_ii_odd_both_bounds(self):
        rep = vf.check_prop33("prop33-ii-odd", 1, 0.0, nx=5, ny=4)
        assert rep.stable
        # the weaker even-order bound also stays finite for odd k
        weaker = vf.check_prop33("prop33-ii-even", 1, 0.0, nx=5, ny=4)
        assert weaker.stable
        rep_even = vf.check_prop33("prop33-ii-even", 2, 0.0, nx=5, ny=4)
        assert rep_even.stable

    def test_region_iii_stable(self):
        rep = vf.check_prop33("prop33-iii", 2, 0.0, nx=5, ny=4)
        assert rep.stable

    def test_parity_validation(self):
        with pytest.raises(ValueError):
            vf.check_prop33("prop33-ii-odd", 2, 0.0)

    def test_report_roundtrip(self):
        rep = vf.check_prop33("prop33-i", 1, 0.0, nx=4, ny=3, levels=2)
        d = rep.to_dict()
        assert d["statement"] == "prop33-i"
        assert d["empirical_only"] is True


class TestProp31Scan:
    @pytest.mark.parametrize("k,l", [(2, 0), (2, 1), (2, 2), (3, 1)])
    def test_table_bounds(self, k, l):
        rep = vf.check_prop31(k, l)
        assert rep.stable
        assert np.isfinite(rep.sup_ratio)

    def test_validation(self):
        with pytest.raises(ValueError):
            vf.check_prop31(1, 2)


class TestMaximalDomination:
    def test_zero_input(self):
        def zero(x):
            return np.zeros_like(np.asarray(x, dtype=float))

        zero.support = (1.0, 2.0)
        rep = vf.check_maximal_domination(1, 0.5, zero, [0.5, 1.5, 4.0])
        assert rep["fitted_C"] == 0.0
        assert max(rep["lhs"]) == 0.0

    def test_far_field_regimes(self):
        f = op.bump(1.5, 0.5)  # support [1, 2]
        rep = vf.check_maximal_domination(1, 0.5, f, [0.1, 5.0])
        # far below the support the decaying-tail operator carries the
        # domination; far above it is the averaging-from-zero operator
        assert rep["hardy_inf"][0] > rep["hardy0"][0]
        assert rep["hardy0"][1] > rep["hardy_inf"][1]
        assert rep["lhs"][0] <= 2.0 * rep["fitted_C"] * (
            rep["hardy0"][0] + rep["hardy_inf"][0] + rep["local"][0]
            + rep["near_diagonal"][0] + 1e-300)

    def test_domination_holds_on_support(self):
        f = op.bump(1.5, 0.5)
        rep = vf.check_maximal_domination(1, 0.0, f, [1.2, 1.5, 1.8])
        lhs = np.array(rep["lhs"])
        rhs = (np.array(rep["hardy0"]) + np.array(rep["hardy_inf"])
               + np.array(rep["local"]) + np.array(rep["near_diagonal"]))
        assert np.all(lhs <= rep["fitted_C"] * rhs + 1e-12)
        assert rep["fitted_C"] < 10.0

    def test_fitted_constant_stable_under_refinement(self):
        f = op.bump(1.5, 0.5)
        coarse = vf.check_maximal_domination(1, 0.5, f,
                                             np.linspace(1.1, 1.9, 4))
        fine = vf.check_maximal_domination(1, 0.5, f,
                                           np.linspace(1.1, 1.9, 8))
        lo, hi = sorted((coarse["fitted_C"], fine["fitted_C"]))
        assert hi < 2.0 * lo

    def test_near_diagonal_outside_support(self):
        # off the support's closure the integrand is smooth on the local
        # window, so a fine uniform rule is a reference
        f = op.bump(1.5, 0.5)  # support [1, 2]
        grid = [0.7, 0.9, 2.5, 3.0, 3.5]
        rep = vf.check_maximal_domination(1, 0.5, f, grid)
        for x, near in zip(grid, rep["near_diagonal"]):
            lo, hi = max(0.5 * x, 1.0), min(2.0 * x, 2.0)
            ys, ws = gauss_legendre_panels(np.linspace(lo, hi, 4001), 20)
            ref = float(ws @ (f(ys) / ys
                              * (1.0 + np.sqrt(x / np.abs(x - ys)))))
            assert near == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_grid_point_an_ulp_off_an_excision_radius(self):
        # x - 0.05 lies one ulp below the support end 1.1, which left a
        # strip too narrow for distinct panel edges
        f = op.bump(0.6, 0.5)
        rep = vf.check_maximal_domination(2, 0.0, f, [1.15])
        near = vf.check_maximal_domination(2, 0.0, f, [1.15 - 1e-10])
        assert rep["lhs"][0] == pytest.approx(near["lhs"][0], rel=1e-8)


class TestLpScan:
    def test_in_range_arithmetic(self):
        assert vf.strong_type_range(1, 0.0, 2.0) == (-4.0, 2.0)
        assert vf.strong_type_range(2, 0.0, 2.0) == (-2.0, 2.0)
        rep = vf.lp_scan(1, 0.0, 2.0, 0.0, 3)
        assert rep.in_range
        rep = vf.lp_scan(1, 0.0, 2.0, 5.0, 3)
        assert not rep.in_range
        assert all(np.isfinite(rep.ratios))

    def test_family_nesting(self):
        small = vf.lp_scan(2, 0.0, 2.0, 0.0, 3, seed=11)
        large = vf.lp_scan(2, 0.0, 2.0, 0.0, 5, seed=11)
        assert large.ratios[:3] == small.ratios

    def test_scaling_invariance(self):
        # replacing f by 3f leaves the norm ratio unchanged to roundoff
        g = vf._seeded_bump(3, 0)
        from rieszlag.basis import BasisTag, analyze
        tag = BasisTag("laguerre", 0.0)
        c = analyze(g, tag, 300)
        c3 = bs.SpectralCoeffs(tag, 3.0 * c.coeffs)

        def image_of(co):
            return lambda x: op.riesz_apply_laguerre_spectral(
                1, co, x, tail_tol=np.inf)

        r1 = (op.weighted_norm(image_of(c), 2.0, 0.0, (0.0, 30.0))
              / op.weighted_norm(g, 2.0, 0.0, (0.0, 30.0)))
        r3 = (op.weighted_norm(image_of(c3), 2.0, 0.0, (0.0, 30.0))
              / op.weighted_norm(lambda x: 3.0 * g(x), 2.0, 0.0,
                                 (0.0, 30.0)))
        assert r3 == pytest.approx(r1, rel=1e-13)

    def test_seeded_bumps_inside_working_interval(self):
        for i in range(8):
            g = vf._seeded_bump(0, i)
            assert 0.1 < g.support[0] < g.support[1] < 10.0
