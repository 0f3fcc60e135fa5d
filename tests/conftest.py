"""Shared test oracles: exact-rational Hermite polynomial values,
Richardson-extrapolated finite differences, high-precision heat-kernel
series, basis-function derivatives by the ladder relations, full-domain
quadrature nodes for integrals of basis functions, the Laguerre derivative
kernel's second route, the asymptotic Bessel loop as first written,
tools/oracle_table.py, the finite-expansion oracle's table and its 16
default rows computed once, and a wrong chain-rule coefficient for the
identity suite's failure path."""

from __future__ import annotations

import functools
import importlib
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from rieszlag import combinat
from rieszlag import kernels as kn
from rieszlag.basis import hermite_fn_table, phi_table
from rieszlag.specfun import (alpha_value, bessel_i_scaled, gauss_jacobi_01,
                              gauss_legendre_panels)


def exact_hermite(n: int, x: Fraction) -> Fraction:
    """H_n(x) by the integer-coefficient recurrence, exact in rationals."""
    prev, cur = Fraction(1), 2 * x
    if n == 0:
        return prev
    for m in range(1, n):
        prev, cur = cur, 2 * x * cur - 2 * m * prev
    return cur


_STENCILS = {
    1: ([-1, 1], [-0.5, 0.5]),
    2: ([-1, 0, 1], [1.0, -2.0, 1.0]),
    3: ([-2, -1, 1, 2], [-0.5, 1.0, -1.0, 0.5]),
    4: ([-2, -1, 0, 1, 2], [1.0, -4.0, 6.0, -4.0, 1.0]),
}


def fd_derivative(f, x: float, order: int, h: float = 0.05,
                  levels: int = 4) -> float:
    """Central finite difference of the given order, Richardson-extrapolated
    in h^2 over `levels` halvings."""
    offsets, coeffs = _STENCILS[order]

    def basic(hh):
        return sum(c * f(x + o * hh) for o, c in zip(offsets, coeffs)) / hh**order

    hs = [h * 0.5**i for i in range(levels)]
    vals = [basic(hh) for hh in hs]
    # Neville in h^2
    table = list(vals)
    for m in range(1, levels):
        for i in range(levels - m):
            r = (hs[i] / hs[i + m]) ** 2
            table[i] = (r * table[i + 1] - table[i]) / (r - 1.0)
    return table[0]


def bessel_i(nu, z):
    """I_nu(z) = e^z * bessel_i_scaled(nu, z); overflows past z ~ 709."""
    return bessel_i_scaled(nu, z) * math.exp(z)


def basis_jet(n: int, x, alpha=None):
    """h_n (alpha None) or phi_n^alpha at x with its first and second
    derivatives by the ladder relations f' = g f + c f_low, namely
    h_n' = -x h_n + sqrt(2n) h_{n-1} and (phi_n^a)' = ((a + 1/2)/x - x)
    phi_n^a - 2 sqrt(n) phi_{n-1}^(a+1), differentiated once more for f''
    (not through the eigenvalue relation, which the tests check)."""
    xa = np.atleast_1d(np.asarray(x, dtype=float))

    def value(m, a):
        if m < 0:
            return np.zeros_like(xa)
        return (hermite_fn_table(m, xa) if a is None
                else phi_table(m, a, xa))[m]

    def ladder(m, a):  # g, g', c and the type of f_low
        if a is None:
            return -xa, -1.0, math.sqrt(2.0 * m), None
        return ((a + 0.5) / xa - xa, -(a + 0.5) / xa**2 - 1.0,
                -2.0 * math.sqrt(m), a + 1.0)

    def deriv(m, a):
        if m < 0:
            return np.zeros_like(xa)
        g, _, c, low = ladder(m, a)
        return g * value(m, a) + c * value(m - 1, low)

    g, gp, c, low = ladder(n, alpha)
    jet = (value(n, alpha), deriv(n, alpha),
           gp * value(n, alpha) + g * deriv(n, alpha) + c * deriv(n - 1, low))
    return jet if np.ndim(x) else tuple(float(v[0]) for v in jet)


def full_domain_rule(nmax: int, alpha=None, *, power=None):
    """Nodes and weights resolving h_0..h_nmax on the whole line (alpha
    None) or phi_0^alpha..phi_nmax^alpha on the half line.

    Hermite: 14-node Gauss-Legendre panels of width at most 0.4 on
    |x| <= sqrt(2 nmax + 1) + 5.  Laguerre: a 200-node rule on (0, 1) for
    integrands with an x^power endpoint factor (2 alpha + 1 for products of
    two Laguerre functions), then the same panels out to
    sqrt(4 nmax + 2 |alpha| + 6) + 4, where e^(-x^2/2) is dead.
    """
    def panels(a, b):
        count = max(8, int(math.ceil((b - a) / 0.4)))
        return gauss_legendre_panels(np.linspace(a, b, count + 1), 14)

    if alpha is None:
        half = math.sqrt(2.0 * nmax + 1.0) + 5.0
        return panels(-half, half)
    xj, wj = gauss_jacobi_01(200, power)
    xg, wg = panels(1.0, math.sqrt(4.0 * nmax + 2.0 * abs(alpha) + 6.0) + 4.0)
    return np.concatenate([xj, xg]), np.concatenate([wj, wg])


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def wrong_e51(monkeypatch):
    """combinat.e_coeff with E_{5,1} off by 1/3.  The derivative identity
    on g(u) = u^q then has the residual (q)_4 / 3 at N = 5, nonzero from
    q = 4 on."""
    true_e = combinat.e_coeff
    monkeypatch.setattr(combinat, "e_coeff", lambda N, l: true_e(N, l)
                        + (Fraction(1, 3) if (N, l) == (5, 1) else 0))


TOOLS = str(Path(__file__).resolve().parents[1] / "tools")


@pytest.fixture
def oracle_table(monkeypatch):
    monkeypatch.syspath_prepend(TOOLS)
    return importlib.import_module("oracle_table")


@pytest.fixture(scope="session")
def oracle_rows():
    """oracle_table.table()'s rows at 10 stages by (family, alpha, k)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(TOOLS)
        rows = importlib.import_module("oracle_table").table()
    return {row[:3]: row for row in rows}


@functools.lru_cache(maxsize=None)
def _mp_fn_table(x, nmax, alpha, dps):
    """h_0(x)..h_nmax(x) (alpha None) or phi_0^alpha(x)..phi_nmax^alpha(x)
    by the normalized recurrences, at dps digits."""
    import mpmath as mp
    with mp.workdps(dps):
        x = mp.mpf(x)
        if alpha is None:
            hx = [mp.pi**mp.mpf("-0.25") * mp.e**(-x * x / 2)]
            if nmax >= 1:
                hx.append(mp.sqrt(2) * x * hx[0])
            for n in range(1, nmax):
                cn = mp.sqrt(mp.mpf(2) / (n + 1))
                dn = mp.sqrt(mp.mpf(n) / (n + 1))
                hx.append(cn * x * hx[n] - dn * hx[n - 1])
        else:
            a = mp.mpf(alpha)
            hx = [mp.sqrt(2 / mp.gamma(a + 1)) * x**(a + mp.mpf("0.5"))
                  * mp.e**(-x * x / 2)]
            if nmax >= 1:
                hx.append((1 + a - x * x) / mp.sqrt(1 + a) * hx[0])
            for n in range(1, nmax):
                c2 = mp.sqrt(n * (n + a) / ((n + 1) * (n + 1 + a)))
                hx.append(((2 * n + 1 + a - x * x) * hx[n]
                           / mp.sqrt((n + 1) * (n + 1 + a))) - c2 * hx[n - 1])
        return tuple(hx)


@functools.lru_cache(maxsize=None)
def _mp_heat_weights(t, nmax, alpha, dps):
    """e^{-t lambda_n}, n = 0..nmax, at dps digits."""
    import mpmath as mp
    with mp.workdps(dps):
        t = mp.mpf(t)
        if alpha is None:
            lam = [n + mp.mpf("0.5") for n in range(nmax + 1)]
        else:
            lam = [2 * n + mp.mpf(alpha) + 1 for n in range(nmax + 1)]
        return tuple(mp.e**(-t * ln) for ln in lam)


def mp_heat_series(t, x, y, nmax=80, alpha=None, dps=40):
    """Spectral-series heat kernel oracle in high-precision arithmetic.

    With alpha=None this is the Hermite series sum_{n<=nmax}
    e^{-(n+1/2)t} h_n(x) h_n(y); otherwise the Laguerre series with
    eigenvalues 2n + alpha + 1.  High precision is required because the
    partial sums cancel catastrophically for well-separated (x, y).  The
    per-point tables and the per-t weights are cached, so a grid of
    (t, x, y) builds each recurrence once.
    """
    import mpmath as mp
    hx = _mp_fn_table(x, nmax, alpha, dps)
    hy = _mp_fn_table(y, nmax, alpha, dps)
    weights = _mp_heat_weights(t, nmax, alpha, dps)
    with mp.workdps(dps):
        total = mp.mpf(0)
        for n in range(nmax + 1):
            total += weights[n] * hx[n] * hy[n]
        return float(total)


def laguerre_dw_routes(k, alpha, s, w, x, y):
    """D_alpha^k W_t^alpha in substituted time by two independent routes, as
    first written, every power and sign formed per term: (route one, route
    two, route one's sum over absolute values).

    Route one is the explicit triple sum over (j, n, m) with Bessel orders
    alpha + j - n, the production form (kernels._dw_pair_sw, which equals it
    bit for bit).  Route two expands against the Hermite heat kernel's
    raising derivatives with Bessel orders alpha - n + l.  The absolute sum
    tracks route one's cancellation."""
    s, w, x, y = (np.asarray(v, dtype=float) for v in (s, w, x, y))
    one_m_s2 = w * (2.0 - w)
    z = x * y * one_m_s2 / (2.0 * s)
    u = y * one_m_s2 / (2.0 * s)
    c2 = w * w / (4.0 * s)
    isc = [bessel_i_scaled(alpha + d, z) for d in range(k + 1)]
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


def d_alpha_pow_k_heat_pair(k: int, t: float, x: float, y: float, alpha):
    """(production route, route two) of D_alpha^k W_t^alpha at one point,
    with s = tanh(t/2) and w = 1 - s formed free of cancellation."""
    em = math.exp(-t)
    s, w = -math.expm1(-t) / (1.0 + em), 2.0 * em / (1.0 + em)
    a = alpha_value(alpha)
    return (float(kn._dw_pair_sw(k, a, s, w, x, y)),
            float(laguerre_dw_routes(k, a, s, w, x, y)[1]))


def bessel_asymptotic_masked(nu: float, z: np.ndarray) -> np.ndarray:
    """The large-argument loop of bessel_i_scaled as first written: an entry
    stops adding terms for good once its term no longer falls, and is
    finished then or once |term| <= 1e-18 |total|; finished entries leave
    the live set once they make up half of it."""
    term = np.ones_like(z)
    total = np.ones_like(z)
    prev = np.abs(term)
    active = np.ones(z.shape, dtype=bool)
    out = np.empty_like(z)
    live = np.arange(z.size)
    zl = z
    four_nu2 = 4.0 * nu * nu
    for r in range(1, 120):
        term *= (2 * r - 1) ** 2 - four_nu2
        term /= 8.0 * r * zl
        mag = np.abs(term)
        active &= mag < prev
        np.add(total, term, out=total, where=active)
        prev = mag
        done = ~active | (mag <= 1e-18 * np.abs(total))
        if 2 * np.count_nonzero(done) >= live.size:
            out[live[done]] = total[done]
            keep = ~done
            live, term, total, prev, active, zl = (
                live[keep], term[keep], total[keep], prev[keep],
                active[keep], zl[keep])
            if not live.size:
                break
    out[live] = total
    return out / np.sqrt(2.0 * np.pi * z)
