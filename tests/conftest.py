"""Shared test oracles: exact-rational Hermite polynomial values,
Richardson-extrapolated finite differences, high-precision heat-kernel
series and basis-function derivatives by the ladder relations."""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np
import pytest

from rieszlag.basis import hermite_fn_table, phi_table
from rieszlag.specfun import bessel_i_scaled


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


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


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
