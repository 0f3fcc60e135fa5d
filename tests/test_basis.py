import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rieszlag import basis as bs
from rieszlag import cli
from rieszlag import operators as op
from conftest import _mp_fn_table, basis_jet, fd_derivative, full_domain_rule

GRID = np.linspace(0.2, 4.0, 9)


class TestPointValues:
    def test_phi_zero(self):
        assert bs.phi_table(0, 0.0, 1.0)[0] == pytest.approx(
            math.sqrt(2.0) * math.exp(-0.5), rel=1e-14)

    def test_phi_one_sign_change(self):
        # phi_1^alpha is proportional to (alpha + 1 - x^2); root at sqrt(alpha+1)
        a = -0.5
        root = math.sqrt(a + 1.0)
        assert bs.phi_table(1, a, 0.9 * root)[1] > 0
        assert bs.phi_table(1, a, 1.1 * root)[1] < 0

    def test_hermite_values(self):
        assert bs.hermite_fn_table(0, 0.0)[0] == pytest.approx(math.pi**-0.25,
                                                               rel=1e-15)
        assert bs.hermite_fn_table(1, 0.0)[1] == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            bs.phi_table(0, 0.0, -1.0)

    def test_laguerre_minus_half_is_even_hermite(self):
        # phi_n^{-1/2}(x) = (-1)^n sqrt(2) h_{2n}(x) on x > 0 (ROADMAP
        # item 6): D_{-1/2} = d/dx + x and the eigenvalues 2n + 1/2 agree
        x = np.geomspace(0.05, 8.0, 200)
        even = math.sqrt(2.0) * bs.hermite_fn_table(80, x)[::2]
        sign = (-1.0) ** np.arange(41)
        diff = bs.phi_table(40, -0.5, x) - sign[:, None] * even
        assert np.abs(diff).max() < 3e-14


class TestAgainstMpmath:
    """The tables against the same recurrences at 30 digits (ROADMAP item
    3(c), basis part).  Over these 60 draws each the largest error is
    1.7e-14 (Hermite) and 4.2e-12 (Laguerre, at n = 932, alpha = -0.66,
    x = 1e-3, where the recurrence's rounding grows with n)."""

    _PROPERTY = settings(deadline=None, derandomize=True, database=None,
                         max_examples=60)

    @_PROPERTY
    @given(n=st.integers(0, 1600), x=st.floats(-37.0, 37.0))
    def test_hermite(self, n, x):
        want = np.array(_mp_fn_table(x, n, None, 30), dtype=float)
        assert np.abs(bs.hermite_fn_table(n, [x])[:, 0] - want).max() <= 1e-13

    @_PROPERTY
    @given(n=st.integers(0, 1600),
           alpha=st.floats(-1.0, 20.0, exclude_min=True),
           x=st.floats(1e-3, 37.0))
    def test_laguerre(self, n, alpha, x):
        want = np.array(_mp_fn_table(x, n, alpha, 30), dtype=float)
        got = bs.phi_table(n, alpha, [x])[:, 0]
        assert np.abs(got - want).max() <= 2e-11

    # ROADMAP item 3(b): at x = 40 the seed e^(-x^2/2) underflows to 0, so
    # the whole column reads 0
    @pytest.mark.xfail(strict=True, reason="the seed underflows (item 3(b))")
    def test_hermite_past_the_seed_underflow(self):
        want = float(_mp_fn_table(40.0, 1600, None, 30)[-1])   # -0.0954
        assert bs.hermite_fn_table(1600, [40.0])[-1, 0] == pytest.approx(
            want, abs=1e-12)

    @pytest.mark.xfail(strict=True, reason="the seed underflows (item 3(b))")
    def test_laguerre_past_the_seed_underflow(self):
        want = float(_mp_fn_table(40.0, 1200, 0.5, 30)[-1])    # 0.141
        assert bs.phi_table(1200, 0.5, [40.0])[-1, 0] == pytest.approx(
            want, abs=1e-12)


class TestOrthonormality:
    @pytest.mark.parametrize("alpha", [-0.9, -0.5, 0.0, 0.7, 2.5])
    def test_laguerre_gram(self, alpha):
        nodes, weights = full_domain_rule(30, alpha, power=2 * alpha + 1)
        table = bs.phi_table(30, alpha, nodes)
        gram = table @ (weights[:, None] * table.T)
        assert np.abs(gram - np.eye(31)).max() < 1e-8

    def test_hermite_gram(self):
        nodes, weights = full_domain_rule(30)
        table = bs.hermite_fn_table(30, nodes)
        gram = table @ (weights[:, None] * table.T)
        assert np.abs(gram - np.eye(31)).max() < 1e-8

    def test_phi_cross_orthogonality(self):
        nodes, weights = full_domain_rule(5, 0.7, power=2 * 0.7 + 1)
        table = bs.phi_table(5, 0.7, nodes)
        assert abs(float(weights @ (table[3] * table[5]))) < 1e-9

    def test_hermite_self_inner(self):
        nodes, weights = full_domain_rule(2)
        t = bs.hermite_fn_table(2, nodes)
        assert float(weights @ (t[2] * t[2])) == pytest.approx(1.0, abs=1e-10)


class TestDerivatives:
    def test_hermite_deriv_ground(self):
        assert basis_jet(0, 1.0)[1] == pytest.approx(
            -math.pi**-0.25 * math.exp(-0.5), rel=1e-14)

    def test_phi_deriv_ground_formula(self):
        a, x = 1.3, 0.8
        value, deriv, _ = basis_jet(0, x, a)
        assert deriv == pytest.approx(((a + 0.5) / x - x) * value, rel=1e-14)

    def test_phi_deriv_vs_finite_difference(self):
        a = 1.3
        ref = fd_derivative(lambda x: basis_jet(4, x, a)[0], 0.8, 1)
        assert basis_jet(4, 0.8, a)[1] == pytest.approx(ref, rel=1e-7)

    @pytest.mark.parametrize("n", [1, 3, 7])
    def test_hermite_deriv_vs_finite_difference(self, n):
        ref = fd_derivative(lambda x: basis_jet(n, x)[0], 0.6, 1)
        assert basis_jet(n, 0.6)[1] == pytest.approx(ref, rel=1e-8)

    @pytest.mark.parametrize("n", [0, 2, 5])
    def test_second_derivatives_vs_finite_difference(self, n):
        for alpha in (0.7, None):
            ref = fd_derivative(lambda x: basis_jet(n, x, alpha)[0], 1.1, 2)
            assert basis_jet(n, 1.1, alpha)[2] == pytest.approx(ref, rel=1e-6)


def d_alpha(jet, a, x, sign=1.0):
    """First-order factor -(alpha+1/2)/x + x + d/dx applied to a jet
    (value, derivative, ...) at x; sign -1 gives its adjoint D_alpha*."""
    return (-(a + 0.5) / x + x) * jet[0] + sign * jet[1]


class TestOperators:
    def test_D_alpha_annihilates_ground_state(self):
        for a in (-0.5, 0.0, 1.3):
            assert np.abs(d_alpha(basis_jet(0, GRID, a), a, GRID)).max() < 1e-14

    def test_D_alpha_matches_fd_oracle(self):
        a = 0.5
        for x in (0.6, 1.2, 2.3):
            jet = basis_jet(1, x, a)
            fd = fd_derivative(lambda u: basis_jet(1, u, a)[0], x, 1)
            oracle = (-(a + 0.5) / x + x) * jet[0] + fd
            assert d_alpha(jet, a, x) == pytest.approx(oracle, rel=1e-7)

    def test_D_alpha_linearity(self):
        a = 0.5
        f, g = basis_jet(1, 1.0, a), basis_jet(3, 1.0, a)
        combo = [2.0 * fi - 0.7 * gi for fi, gi in zip(f, g)]
        expected = 2.0 * d_alpha(f, a, 1.0) - 0.7 * d_alpha(g, a, 1.0)
        assert d_alpha(combo, a, 1.0) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.3])
    @pytest.mark.parametrize("n", [0, 1, 4, 10])
    def test_laguerre_eigen_relation(self, alpha, n):
        # L_alpha f = (1/2)(-f'' + x^2 f + (alpha^2 - 1/4) f / x^2)
        f, _, f2 = basis_jet(n, GRID, alpha)
        lhs = 0.5 * (-f2 + GRID**2 * f + (alpha**2 - 0.25) * f / GRID**2)
        rhs = (2 * n + alpha + 1) * f
        assert np.abs(lhs - rhs).max() <= 1e-8 * np.abs(rhs).max()

    @pytest.mark.parametrize("n", [0, 1, 5, 10])
    def test_hermite_eigen_relation(self, n):
        # H f = (1/2)(-f'' + x^2 f)
        f, _, f2 = basis_jet(n, GRID)
        lhs = 0.5 * (-f2 + GRID**2 * f)
        rhs = (n + 0.5) * f
        assert np.abs(lhs - rhs).max() <= 1e-8 * np.abs(rhs).max()

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.7])
    @pytest.mark.parametrize("n", [0, 1, 3, 7])
    def test_factorization(self, alpha, n):
        # (1/2) D* (D f) + (alpha + 1) f reproduces the full operator
        a, x = alpha, GRID
        f, f1, f2 = basis_jet(n, x, a)
        df = (d_alpha((f, f1), a, x),
              (-(a + 0.5) / x + x) * f1 + (1.0 + (a + 0.5) / x**2) * f + f2)
        lhs = 0.5 * d_alpha(df, a, x, -1.0) + (a + 1) * f
        rhs = 0.5 * (-f2 + x * x * f + (a * a - 0.25) * f / (x * x))
        assert np.abs(lhs - rhs).max() <= 1e-6 * np.abs(rhs).max()

    def test_adjointness(self):
        a = 0.7
        x, weights = full_domain_rule(12, a, power=2 * a + 1)
        f, g = basis_jet(3, x, a), basis_jet(5, x, a)
        lhs = float(weights @ (d_alpha(f, a, x) * g[0]))
        rhs = float(weights @ (f[0] * d_alpha(g, a, x, -1.0)))
        assert abs(lhs - rhs) < 1e-8


class TestAnalyzeSynthesize:
    def test_hermite_unit_vector(self):
        tag = bs.BasisTag("hermite")

        def h3(x):
            return bs.hermite_fn_table(3, x)[3]

        h3.support = (-12.0, 12.0)
        c = bs.analyze(h3, tag, 10)
        expected = np.zeros(11)
        expected[3] = 1.0
        assert np.abs(c.coeffs - expected).max() < 1e-10

    @pytest.mark.parametrize("alpha", [0.0, 0.7])
    def test_laguerre_round_trip(self, alpha):
        # a full-domain rule with the power-weighted endpoint piece, applied
        # by hand: analyze integrates over a compact support only
        nodes, weights = full_domain_rule(40, alpha, power=2 * alpha + 1)
        table = bs.phi_table(40, alpha, nodes)
        for m in (0, 7, 40):
            c = table @ (weights * bs.phi_table(m, alpha, nodes)[m])
            expected = np.zeros(41)
            expected[m] = 1.0
            assert np.abs(c - expected).max() < 1e-9

    def test_coefficient_space_identity(self):
        # analyze(synthesize(c)) = c
        tag = bs.BasisTag("hermite")
        vec = np.cos(np.arange(41) * 0.7) / (1.0 + np.arange(41)) ** 2
        coeffs = bs.SpectralCoeffs(tag, vec)

        def expansion(x):
            return bs.synthesize(coeffs, x)

        expansion.support = (-14.0, 14.0)
        back = bs.analyze(expansion, tag, 40)
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

    @pytest.mark.parametrize("tag, lo, hi", [
        (bs.BasisTag("hermite"), -3.0, 3.0),
        (bs.BasisTag("laguerre", 0.5), 0.2, 3.0)])
    @pytest.mark.parametrize("nmax", [0, 1, 600, 1597])
    def test_each_point_is_independent_of_its_batch(self, tag, lo, hi, nmax):
        # a product over a multi-column table sums in an order that depends
        # on the number of columns; each point must get its one-point bits
        rng = np.random.default_rng(nmax)
        c = bs.SpectralCoeffs(tag, rng.standard_normal(nmax + 1)
                              / (1.0 + np.arange(nmax + 1)))
        for m in (*range(1, 10), 64):
            xs = np.sort(rng.uniform(lo, hi, m))
            batch = bs.synthesize(c, xs)
            assert batch.shape == (m,)
            for i in range(m):
                assert (batch[i].tobytes()
                        == bs.synthesize(c, xs[i:i + 1]).tobytes())
        one = bs.synthesize(c, float(xs[0]))
        assert type(one) is float
        assert one == batch[0]

    def test_parseval_proxy(self):
        tag = bs.BasisTag("hermite")
        f = op.bump(0.0, 1.0)
        c = bs.analyze(f, tag, 80)
        nodes, weights = full_domain_rule(80)
        synth = bs.synthesize(c, nodes)
        l2 = math.sqrt(float(weights @ synth**2))
        assert l2 <= float(np.linalg.norm(c.coeffs)) + 1e-8

    def test_support_required(self):
        with pytest.raises(ValueError, match="support attribute"):
            bs.analyze(lambda x: np.exp(-x * x), bs.BasisTag("hermite"), 10)

    @pytest.mark.parametrize("support", [(1.0, 1.0), (2.0, 1.0)])
    def test_degenerate_support(self, support):
        f = op.bump(1.25, 0.75)
        f.support = support
        with pytest.raises(ValueError, match="degenerate support"):
            bs.analyze(f, bs.BasisTag("laguerre", 0.0), 10)

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


# The per-degree loops the tables were built with before they ran in place;
# the tables must keep their bytes.
def reference_hermite_table(nmax, x):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((nmax + 1, x.size))
    out[0] = math.pi ** -0.25 * np.exp(-0.5 * x * x)
    if nmax >= 1:
        out[1] = math.sqrt(2.0) * x * out[0]
    for n in range(1, nmax):
        out[n + 1] = (math.sqrt(2.0 / (n + 1)) * x * out[n]
                      - math.sqrt(n / (n + 1.0)) * out[n - 1])
    return out


def reference_phi_table(nmax, a, x):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((nmax + 1, x.size))
    x2 = x * x
    out[0] = np.exp(0.5 * (math.log(2.0) - bs.log_gamma(a + 1.0))
                    + (a + 0.5) * np.log(x) - 0.5 * x2)
    if nmax >= 1:
        out[1] = (1.0 + a - x2) / math.sqrt(1.0 + a) * out[0]
    for n in range(1, nmax):
        c1 = (2 * n + 1 + a - x2) / math.sqrt((n + 1.0) * (n + 1.0 + a))
        c2 = math.sqrt(n * (n + a) / ((n + 1.0) * (n + 1.0 + a)))
        out[n + 1] = c1 * out[n] - c2 * out[n - 1]
    return out


def reference_analyze(f, tag, nmax):
    a, b = f.support
    width = min(0.4, (b - a) / 8.0, 9.0 / math.sqrt(2.0 * nmax + 1.0))
    panels = max(8, int(math.ceil((b - a) / width)))
    nodes, weights = bs.gauss_legendre_panels(np.linspace(a, b, panels + 1),
                                              14)
    table = (reference_hermite_table(nmax, nodes) if tag.kind == "hermite"
             else reference_phi_table(nmax, tag.alpha, nodes))
    return table @ (weights * f(nodes))


class TestInPlaceTables:
    WIDTHS = (0, 1, 5, 112, 300)

    @pytest.mark.parametrize("nmax", [0, 1, 2, 3, 600, 1600])
    def test_tables_keep_their_bytes(self, nmax):
        for width in self.WIDTHS:
            # the seed e^(-x^2/2) underflows between |x| = 37 and 40
            for x in (np.linspace(-40.0, 40.0, width),
                      np.linspace(36.5, 40.0, width)):
                assert (bs.hermite_fn_table(nmax, x).tobytes()
                        == reference_hermite_table(nmax, x).tobytes())
            for x in (np.geomspace(1e-8, 40.0, width),
                      np.linspace(0.05, 12.0, width)):
                for alpha in (-0.9, 0.0, 0.5, 2.0, 40.0):
                    assert (bs.phi_table(nmax, alpha, x).tobytes()
                            == reference_phi_table(nmax, alpha, x).tobytes())

    @pytest.mark.parametrize("x", [[np.inf], [1.0, np.nan], [-np.inf, 0.5]])
    def test_non_finite_x_raises(self, x):
        with pytest.raises(ValueError, match="finite x"):
            bs.hermite_fn_table(3, x)
        with pytest.raises(ValueError):
            bs.phi_table(3, 0.5, x)
        for tag in (bs.BasisTag("hermite"), bs.BasisTag("laguerre", 0.5)):
            with pytest.raises(ValueError):
                bs.synthesize(bs.SpectralCoeffs(tag, np.ones(4)), x)


def _family(kind, size):
    """size bumps of radii 0.15 to 0.6, one of radius 5 (546 nodes at
    degree 600) among them from size 3 on."""
    rng = np.random.default_rng(size)
    lo = 0.2 if kind == "laguerre" else -8.0
    fs = [op.bump(lo + 0.7 + 8.0 * rng.uniform(), rng.uniform(0.15, 0.6))
          for _ in range(size)]
    if size >= 3:
        fs[1] = op.bump(lo + 6.0, 5.0)
    return fs


class TestAnalyzeAll:
    TAGS = (bs.BasisTag("hermite"), bs.BasisTag("laguerre", 0.5))

    @pytest.mark.parametrize("size", [1, 3, 20])
    @pytest.mark.parametrize("tag", TAGS)
    def test_equals_analyze_to_the_bit(self, tag, size):
        fs = _family(tag.kind, size)
        coeffs = bs.analyze_all(fs, tag, 600)
        assert len(coeffs) == size
        for f, c in zip(fs, coeffs):
            assert c.basis == tag
            assert (c.coeffs.tobytes()
                    == bs.analyze(f, tag, 600).coeffs.tobytes())
            assert (c.coeffs.tobytes()
                    == reference_analyze(f, tag, 600).tobytes())

    @pytest.mark.parametrize("cap", [230, bs._TABLE_COLUMNS, 500])
    def test_table_widths(self, monkeypatch, cap):
        # groups are taken in order while their nodes fit in the cap; only a
        # single function may be wider
        tag = self.TAGS[1]
        fs = _family("laguerre", 20)
        sizes = [bs._analysis_rule(f, 600)[0].size for f in fs]
        widths = []
        table = bs._basis_table

        def counted(tag, nmax, x):
            widths.append(np.size(x))
            return table(tag, nmax, x)

        monkeypatch.setattr(bs, "_basis_table", counted)
        monkeypatch.setattr(bs, "_TABLE_COLUMNS", cap)
        coeffs = bs.analyze_all(fs, tag, 600)
        assert widths == [sum(g) for g in _greedy(sizes, cap)]
        for group in _greedy(sizes, cap):
            assert len(group) == 1 or sum(group) <= cap
        assert max(sizes) > cap and len(widths) < len(fs)
        for f, c in zip(fs, coeffs):
            assert (c.coeffs.tobytes()
                    == reference_analyze(f, tag, 600).tobytes())

    def test_empty_family(self):
        assert bs.analyze_all([], self.TAGS[0], 10) == []


def _greedy(sizes, cap):
    groups = []
    for size in sizes:
        if groups and sum(groups[-1]) + size <= cap:
            groups[-1].append(size)
        else:
            groups.append([size])
    return groups


def _sampled_spline():
    """A sampled function as ``riesz --input-csv`` builds it."""
    xs = np.linspace(-1.3, 0.9, 23)
    fn = cli._cubic_spline(xs, np.sin(3.0 * xs) * (1.3 + xs) * (0.9 - xs))
    fn.support = (float(xs[0]), float(xs[-1]))
    return fn


class TestAnalyzeAt:
    TAG = bs.BasisTag("hermite")

    @pytest.mark.parametrize("nmax", [2, 1200, 1600])
    @pytest.mark.parametrize("points", [1, 2, 7])
    @pytest.mark.parametrize("f", [op.bump(0.0, 1.0), _sampled_spline()],
                             ids=["bump", "spline"])
    def test_keeps_analyze_and_synthesize_bits(self, f, points, nmax):
        # one table over the nodes and the points: the coefficients are
        # analyze's bytes, and the point columns give synthesize's bytes for
        # the expansion and its Riesz transforms, the one-coefficient zero
        # vector of nmax < k included
        a, b = f.support
        x = np.linspace(a + 0.1, b - 0.1, points)
        coeffs, table = bs.analyze_at(f, self.TAG, nmax, x)
        assert table.shape == (nmax + 1, points)
        assert (coeffs.coeffs.tobytes()
                == bs.analyze(f, self.TAG, nmax).coeffs.tobytes())
        assert (bs._column_dots(coeffs.coeffs, table).tobytes()
                == bs.synthesize(coeffs, x).tobytes())
        for k in (1, 2, 3):
            transformed = op.riesz_spectral_hermite(k, coeffs)
            if nmax < k:
                assert transformed.coeffs.tobytes() == np.zeros(1).tobytes()
            column = bs._column_dots(transformed.coeffs,
                                     table[:transformed.truncation + 1])
            assert column.tobytes() == bs.synthesize(transformed, x).tobytes()

    def test_laguerre_tag(self):
        tag = bs.BasisTag("laguerre", 0.5)
        f = op.bump(1.25, 0.75)
        x = np.linspace(0.6, 1.9, 5)
        coeffs, table = bs.analyze_at(f, tag, 600, x)
        assert (coeffs.coeffs.tobytes()
                == bs.analyze(f, tag, 600).coeffs.tobytes())
        assert table.tobytes() == bs.phi_table(600, 0.5, x).tobytes()

    def test_input_checks(self):
        f = op.bump(0.0, 1.0)
        with pytest.raises(ValueError, match="truncation must be >= 0"):
            bs.analyze_at(f, self.TAG, -1, [0.0])
        with pytest.raises(ValueError, match="finite x"):
            bs.analyze_at(f, self.TAG, 10, [0.0, np.nan])

    @pytest.mark.parametrize("nmax", [2, 1200, 1600])
    def test_strided_view_product_is_the_copy_product(self, nmax):
        # the coefficients multiply a strided view of their node columns in
        # a wider table; BLAS must sum it as it sums a contiguous copy
        rng = np.random.default_rng(nmax)
        for width in (1, 14, 182, 256):
            for before, after in ((0, 1), (0, 5), (37, 0), (3, 64)):
                x = rng.uniform(-3.0, 3.0, before + width + after)
                view = bs.hermite_fn_table(nmax, x)[:, before:before + width]
                v = rng.standard_normal(width)
                assert not view.flags.c_contiguous
                assert ((view @ v).tobytes()
                        == (np.ascontiguousarray(view) @ v).tobytes())
