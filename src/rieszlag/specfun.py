"""Special functions and quadrature rules used across the toolkit.

Gamma/log-Gamma (Lanczos), the exponentially scaled modified Bessel
function e^{-z} I_nu(z) (power series plus large-argument asymptotics),
Hermite polynomials by their three-term recurrence, and construction of
the quadrature rules that host every integral evaluation.

All functions are pure and accept scalars or numpy arrays where that is
meaningful; coefficient tables are immutable after construction.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "alpha_value",
    "gamma",
    "log_gamma",
    "bessel_i_scaled",
    "hermite_poly",
    "gauss_legendre_panels",
    "gauss_legendre_spans",
    "time_panels",
    "gauss_jacobi_01",
    "geometric_edges",
]


def alpha_value(alpha) -> float:
    """Validate a Laguerre type parameter; only finite values > -1 are
    admissible.  Returns it as a plain float."""
    value = float(alpha)
    if not math.isfinite(value) or value <= -1.0:
        raise ValueError(f"alpha must be a finite number > -1, got {alpha}")
    return value


# ---------------------------------------------------------------------------
# Gamma and log-Gamma (Lanczos approximation, g = 7, 9 terms)
# ---------------------------------------------------------------------------

_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _lanczos_series(x: float) -> float:
    a = _LANCZOS_C[0]
    for i in range(1, len(_LANCZOS_C)):
        a += _LANCZOS_C[i] / (x - 1.0 + i)
    return a


def gamma(x: float) -> float:
    """Gamma function for positive real arguments.

    Accurate to better than 1e-13 relative on (0, 50); raises OverflowError
    past x ~ 171.6 (use :func:`log_gamma` there).
    """
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"gamma requires x > 0, got {x}")
    if x < 1.5:
        # shift into the sweet spot of the approximation
        return gamma(x + 2.0) / (x * (x + 1.0))
    t = x + _LANCZOS_G - 0.5
    return math.sqrt(2.0 * math.pi) * t ** (x - 0.5) * math.exp(-t) * _lanczos_series(x)


def log_gamma(x: float) -> float:
    """log Gamma(x) for x > 0, overflow-free for large arguments."""
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    if x < 1.5:
        return log_gamma(x + 2.0) - math.log(x * (x + 1.0))
    t = x + _LANCZOS_G - 0.5
    return (0.5 * math.log(2.0 * math.pi) + (x - 0.5) * math.log(t) - t
            + math.log(_lanczos_series(x)))


# ---------------------------------------------------------------------------
# Exponentially scaled modified Bessel function e^{-z} I_nu(z)
# ---------------------------------------------------------------------------

def _series_switch(nu: float) -> float:
    # Power series below, large-argument asymptotics above.  The asymptotic
    # series bottoms out near e^{-2z} relative, so the crossover must sit
    # high enough that this floor is far below the 1e-12 target.
    return max(30.0, 0.5 * nu * nu)


_SERIES_TERMS = 500


def _bessel_series_scaled(nu: float, z: np.ndarray) -> np.ndarray:
    # e^{-z} I_nu(z) summed by term ratios; all terms positive, no cancellation.
    # An entry converges once term <= 1e-17 * total: the term ratios decrease
    # in m, and a term that small cannot come while the terms still grow, so
    # every later term is below half an ulp of the total and leaves it
    # unchanged.  So the test runs only on every fourth term and on the last,
    # and the terms are added in place on a window [lo, hi) of the entries
    # that shrinks, at each test, to the span from the first to the last
    # unconverged one; converged entries left inside it add terms that change
    # nothing.  (The kernels' meshes have z falling down every column, so the
    # converged entries gather at the ends of the flat array.)  Entries not
    # converged after _SERIES_TERMS terms raise.  Once every entry has
    # converged, so do entries whose first term underflowed while the terms
    # still grow (z^2/4 > nu + 1): their sum lost its digits, or is 0 for a
    # first term of exactly 0, however large the true value.
    term = np.exp(nu * np.log(0.5 * z) - log_gamma(nu + 1.0) - z)
    total = term.copy()
    quarter_z2 = 0.25 * z * z
    lost = (term < np.finfo(float).tiny) & (quarter_z2 > nu + 1.0)
    lo, hi = 0, z.size
    for m in range(1, _SERIES_TERMS):
        step = term[lo:hi]
        step *= quarter_z2[lo:hi]
        step /= m * (nu + m)
        total[lo:hi] += step
        if m % 4 and m < _SERIES_TERMS - 1:
            continue
        going = step > 1e-17 * total[lo:hi]
        if not going.any():
            if np.any(lost):
                raise RuntimeError(
                    f"Bessel series for order {nu} underflows at "
                    f"z={z[np.argmax(lost)]}: its first term is below "
                    f"the smallest normal float while the terms grow")
            return total
        lo, hi = lo + np.argmax(going), hi - np.argmax(going[::-1])
    going = term[lo:hi] > 1e-17 * total[lo:hi]
    raise RuntimeError(
        f"Bessel series for order {nu} not converged after "
        f"{_SERIES_TERMS} terms at z={z[lo:hi][going].max()}")


def _bessel_asymptotic_scaled(nu: float, z: np.ndarray) -> np.ndarray:
    # e^{-z} I_nu(z) ~ sum_r (-1)^r [nu,r] (2z)^{-r} / sqrt(2 pi z).  The
    # series is divergent, but in this regime, z > max(30, nu^2/2), its term
    # ratio |(2r - 1)^2 - 4 nu^2| / (8 r z) is below max(r / 2z, nu^2 / 2rz)
    # < 1 for every r < 2z, so the terms fall in magnitude up to r = 2z > 60.
    # An entry is finished once |term| <= 1e-18 |total|, and every entry of
    # the regime is by r = 22 (at z just above 30), so the loop ends long
    # before any term stops falling.  A finished entry's term is below half
    # an ulp of its total, and so is every later term, so they leave the
    # total unchanged: each term is added with no mask, and the test runs
    # only on every second term.  (An older loop stopped adding at the first
    # term that did not fall; tests/test_specfun.py checks this one against
    # it, bit for bit, on a sweep of nu in [-0.99, 300] and z from the
    # regime switch to 1e300.)  The terms are added in place on a window
    # [lo, hi) of the entries that shrinks, at each test, to the span from
    # the first to the last unfinished one; finished entries left inside it
    # add terms that leave their totals unchanged.
    term = np.ones_like(z)
    total = np.ones_like(z)
    four_nu2 = 4.0 * nu * nu
    lo, hi = 0, z.size
    for r in range(1, 120):
        step = term[lo:hi]
        step *= (2 * r - 1) ** 2 - four_nu2
        step /= 8.0 * r * z[lo:hi]
        total[lo:hi] += step
        if r % 2:
            continue
        going = np.abs(step) > 1e-18 * np.abs(total[lo:hi])
        if not going.any():
            break
        lo, hi = lo + np.argmax(going), hi - np.argmax(going[::-1])
    return total / np.sqrt(2.0 * np.pi * z)


def bessel_i_scaled(nu: float, z):
    """Exponentially scaled modified Bessel function e^{-z} I_nu(z).

    Parameters
    ----------
    nu : float
        Order, must be > -1.
    z : float or ndarray
        Strictly positive argument(s).

    The scaling is applied analytically inside each regime; e^{+z} is never
    formed, so the result stays finite for arbitrarily large z.
    """
    nu = float(nu)
    if nu <= -1.0:
        raise ValueError(f"order must be > -1, got {nu}")
    arr = np.asarray(z, dtype=float)
    if arr.size and not np.all(arr > 0.0):
        raise ValueError("argument must be > 0")
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.empty_like(arr)
    lo = arr <= _series_switch(nu)
    if lo.any():
        out[lo] = _bessel_series_scaled(nu, arr[lo])
    hi = ~lo
    if hi.any():
        out[hi] = _bessel_asymptotic_scaled(nu, arr[hi])
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Hermite polynomials (recurrence)
# ---------------------------------------------------------------------------

def hermite_poly(n: int, x):
    """Hermite polynomial H_n(x) (physicists' normalization)."""
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    x = np.asarray(x, dtype=float)
    if n == 0:
        p = np.ones_like(x)
    else:
        # the three-term recurrence from H_1 = 2x; H_2 = 2x H_1 - 2
        # subtracts the scalar 2 * 1 * H_0
        two_x = p = 2.0 * x
        p_prev = 1.0
        for m in range(1, n):
            p, p_prev = two_x * p - 2.0 * m * p_prev, p
    return p if p.ndim else float(p)


# ---------------------------------------------------------------------------
# Quadrature rules
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _gl_base(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_legendre_panels(edges, nodes: int):
    """Composite Gauss-Legendre nodes/weights over consecutive panel edges."""
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or len(edges) < 2 or not np.all(np.diff(edges) > 0):
        raise ValueError("edges must be strictly increasing with >= 2 entries")
    return gauss_legendre_spans(edges[:-1], edges[1:], nodes)


def gauss_legendre_spans(lo, hi, nodes: int):
    """Gauss-Legendre nodes/weights on the panels [lo_i, hi_i], panel after
    panel; the panels need not be adjacent."""
    xb, wb = _gl_base(nodes)
    a = np.asarray(lo, dtype=float)[:, None]
    b = np.asarray(hi, dtype=float)[:, None]
    x = (0.5 * (b - a) * xb[None, :] + 0.5 * (b + a)).ravel()
    w = (0.5 * (b - a) * wb[None, :]).ravel()
    return x, w


def time_panels(floor: float, nodes: int):
    """Composite Gauss-Legendre nodes/weights over the edges 0.5 * 0.4^j,
    j = n, ..., 1, 0, where 0.5 * 0.4^n is the first one at or below
    floor: time-integral panels refined toward the endpoint 0."""
    n = int(math.ceil(math.log(floor / 0.5) / math.log(0.4)))
    edges = 0.5 * 0.4 ** np.arange(n, -1, -1, dtype=float)
    return gauss_legendre_panels(edges, nodes)


def geometric_edges(a: float, b: float, *, toward: str,
                    floor: float) -> np.ndarray:
    """Panel edges on [a, b] shrinking geometrically toward one endpoint.

    The panel adjacent to the refined endpoint has width about
    ``floor * (b - a)``; panel widths double away from it.
    """
    if not a < b:
        raise ValueError(f"degenerate interval [{a}, {b}]")
    length = b - a
    offsets = [length]
    while offsets[-1] > floor * length:
        offsets.append(offsets[-1] * 0.5)
    offsets.append(0.0)
    offsets = np.array(offsets[::-1])
    if toward == "left":
        return a + offsets
    if toward == "right":
        return b - offsets[::-1]
    raise ValueError("toward must be 'left' or 'right'")


@lru_cache(maxsize=64)
def _jacobi_base(n: int, beta_pow: float):
    # Golub-Welsch for the weight (1+u)^beta on [-1, 1] (Jacobi a=0, b=beta).
    b = beta_pow
    diag = np.empty(n)
    diag[0] = b / (b + 2.0)
    k = np.arange(1, n, dtype=float)
    diag[1:] = b * b / ((2 * k + b) * (2 * k + b + 2.0))
    off = np.empty(n - 1)
    off[0] = math.sqrt(4.0 * (1.0 + b) / ((b + 2.0) ** 2 * (b + 3.0)))
    k = np.arange(2, n, dtype=float)
    off[1:] = np.sqrt(4.0 * k * k * (k + b) ** 2
                      / ((2 * k + b) ** 2 * (2 * k + b + 1.0) * (2 * k + b - 1.0)))
    jac = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    vals, vecs = np.linalg.eigh(jac)
    mu0 = 2.0 ** (b + 1.0) / (b + 1.0)
    weights = mu0 * vecs[0, :] ** 2
    vals.setflags(write=False)
    weights.setflags(write=False)
    return vals, weights


def gauss_jacobi_01(n: int, power: float):
    """Rule on (0, 1) exact for x^power * (polynomials), weight folded in.

    Returns nodes x_i and weights w_i with sum w_i f(x_i) ~ int_0^1 f(x) dx
    for integrands behaving like x^power near 0 (power > -1).
    """
    if power <= -1.0:
        raise ValueError(f"power must be > -1, got {power}")
    if n < 1:
        raise ValueError("need at least one node")
    u, w = _jacobi_base(n, float(power))
    x = 0.5 * (u + 1.0)
    w01 = 2.0 ** (-power - 1.0) * w
    return x, w01 / x**power
