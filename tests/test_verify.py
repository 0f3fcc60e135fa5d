import numpy as np
import pytest

from rieszlag import basis as bs
from rieszlag import operators as op
from rieszlag import verify as vf


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
            return lambda x: op.riesz_apply_laguerre_spectral(1, co, x)

        r1 = (op.weighted_norm(image_of(c), 2.0, 0.0, (0.0, 30.0))
              / op.weighted_norm(g, 2.0, 0.0, (0.0, 30.0)))
        r3 = (op.weighted_norm(image_of(c3), 2.0, 0.0, (0.0, 30.0))
              / op.weighted_norm(lambda x: 3.0 * g(x), 2.0, 0.0,
                                 (0.0, 30.0)))
        assert r3 == pytest.approx(r1, rel=1e-13)

    @pytest.mark.parametrize("k,tables", [(1, 12), (2, 14)])
    def test_tables_built_once_per_scan(self, monkeypatch, k, tables):
        # one analysis table per two bumps (112 nodes each at seed 0), then
        # one table per term and per piece of the norm rule (the Jacobi and
        # the Gauss-Legendre nodes)
        calls = []
        table = bs.phi_table

        def counted(nmax, alpha, x):
            calls.append(np.size(x))
            return table(nmax, alpha, x)

        monkeypatch.setattr(bs, "phi_table", counted)
        monkeypatch.setattr(op, "phi_table", counted)
        vf.lp_scan(k, 0.0, 2.0, 0.0, 20)
        assert len(calls) == tables
        assert calls[:10] == [224] * 10
        assert sorted(set(calls[10:])) == [160, 480]

    @pytest.mark.parametrize("k,alpha,p,delta", [
        (1, 0.0, 2.0, 0.0), (2, 0.5, 3.0, 0.5), (3, 2.0, 2.0, -0.5)])
    def test_ratios_are_weighted_norms_to_the_bit(self, k, alpha, p, delta):
        # each image is the whole-table product d @ table on each piece of
        # weighted_norm's rule, summed over the terms in order
        def image_of(coeffs):
            def image(x):
                total = np.zeros_like(x)
                for power, shift, d in op._laguerre_terms(k, coeffs):
                    table = bs.phi_table(600, alpha + shift, x)
                    total = total + x**power * (d @ table)
                return total
            return image

        rep = vf.lp_scan(k, alpha, p, delta, 3, seed=4)
        for i, ratio in enumerate(rep.ratios):
            g = vf._seeded_bump(4, i)
            coeffs = bs.analyze(g, bs.BasisTag("laguerre", alpha), 600)
            expected = (op.weighted_norm(image_of(coeffs), p, delta,
                                         (0.0, 30.0))
                        / op.weighted_norm(g, p, delta, (0.0, 30.0)))
            assert ratio.hex() == expected.hex()

    def test_seeded_bumps_inside_working_interval(self):
        for i in range(8):
            g = vf._seeded_bump(0, i)
            assert 0.1 < g.support[0] < g.support[1] < 10.0
