"""Shared test oracles: exact-rational polynomial evaluations and
Richardson-extrapolated finite differences, independent of the library's
own evaluation paths."""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np
import pytest


def exact_laguerre(n: int, alpha: Fraction, x: Fraction) -> Fraction:
    """L_n^alpha(x) from the explicit binomial sum, exact in rationals."""
    total = Fraction(0)
    for i in range(n + 1):
        binom = Fraction(1)
        for j in range(1, n - i + 1):
            binom *= alpha + i + j
        binom /= math.factorial(n - i)
        total += Fraction(-1) ** i * binom * x**i / math.factorial(i)
    return total


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
