"""Operators acting on functions and expansions.

Negative powers as diagonal multipliers on spectral coefficients, the
order-k Riesz transforms by their spectral formulas, the principal-value
route with its even-order constant correction, the epsilon-limit of the
auxiliary boundary function, and weighted L^p norms.
"""

from __future__ import annotations

import math
import warnings
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from . import kernels
from .basis import SpectralCoeffs, _column_dots, _support_of, phi_table
from .kernels import KernelSpec
from .specfun import (gamma, gauss_jacobi_01, gauss_legendre_panels,
                      gauss_legendre_spans, geometric_edges, time_panels)

__all__ = [
    "PVAccuracyWarning",
    "PVResult",
    "wk",
    "bump",
    "negative_power",
    "riesz_spectral_hermite",
    "riesz_apply_laguerre_spectral",
    "pv_apply",
    "phi_at",
    "phi_limit",
    "weighted_norm",
    "extrapolate_to_zero",
]


class PVAccuracyWarning(UserWarning):
    """A principal value whose extrapolation did not settle."""


# err_estimate is the move of the last extrapolation step; above a tenth of
# 1 + |value| not even the leading digit (the first decimal, for a value
# below 1) of the extrapolated value is settled
_PV_ACCURACY_BOUND = 0.1


def wk(k: int) -> float:
    """Constant multiple of the identity in the principal-value
    representation of the order-k Riesz transform.

    Zero for odd k.  For even k the constant equals twice the one-sided
    limit of the boundary function (see :func:`phi_limit`), which works out
    to (-1)^(k/2) 2^(k/2): the flat-space multiplier model
    (i xi)^k |xi|^(-k) -> i^k fixes the sign, and the principal-value route
    cross-checks against the spectral route only with this alternating
    sign (k = 2 and k = 4 both verified numerically to < 1e-3).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k % 2:
        return 0.0
    return (-1.0) ** (k // 2) * 2.0 ** (k // 2)


@dataclass(frozen=True)
class PVResult:
    """Excised integrals over a decreasing excision schedule and their
    extrapolated limit.  ``kernel_agreement`` is a class constant 0.0, not
    a field: the Laguerre kernel has one route, and bench/spans.py is its
    only reader."""

    epsilons: np.ndarray
    values: np.ndarray
    extrapolated: float
    err_estimate: float
    wk_correction: float
    kernel_agreement = 0.0

    def __post_init__(self):
        eps = np.asarray(self.epsilons, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if eps.shape != vals.shape or eps.ndim != 1:
            raise ValueError("epsilons and values must be 1-d, equal length")
        if not (np.all(eps > 0) and np.all(np.diff(eps) < 0)):
            raise ValueError("epsilons must be positive and strictly decreasing")
        object.__setattr__(self, "epsilons", eps)
        object.__setattr__(self, "values", vals)

    @property
    def total(self) -> float:
        """Full transform value: constant correction plus the PV limit."""
        return self.wk_correction + self.extrapolated


def bump(center: float, radius: float):
    """Smooth compactly supported test function
    exp(1 - 1/(1 - u^2)), u = (x - center)/radius, whose ``support``
    attribute is (center - radius, center + radius)."""
    if not radius > 0:
        raise ValueError("radius must be > 0")
    c, r = float(center), float(radius)

    def value(x):
        u = (np.asarray(x, dtype=float) - c) / r
        inside = np.abs(u) < 1.0
        q = np.where(inside, 1.0 - u * u, 1.0)
        val = np.where(inside, np.exp(1.0 - 1.0 / q), 0.0)
        return val if np.ndim(x) else float(val)

    value.support = (c - r, c + r)
    return value


# ---------------------------------------------------------------------------
# Diagonal operators on spectral coefficients
# ---------------------------------------------------------------------------

def negative_power(beta: float, coeffs: SpectralCoeffs) -> SpectralCoeffs:
    """Negative operator power on coefficients: c_n -> c_n / lambda_n^beta."""
    if not beta > 0.0:
        raise ValueError(f"beta must be > 0, got {beta}")
    lam = coeffs.basis.eigenvalue(np.arange(len(coeffs.coeffs)))
    return SpectralCoeffs(coeffs.basis, coeffs.coeffs / lam**beta)


def riesz_spectral_hermite(k: int, coeffs: SpectralCoeffs) -> SpectralCoeffs:
    """Order-k Hermite Riesz transform by its spectral formula:

        sum_{n >= k} 2^(k/2) (n (n-1) ... (n-k+1))^(1/2) / (n+1/2)^(k/2)
                     c_n h_{n-k}.
    """
    if coeffs.basis.kind != "hermite":
        raise ValueError("expected a Hermite expansion")
    if k < 1:
        raise ValueError("k must be >= 1")
    c = coeffs.coeffs
    if coeffs.truncation < k:
        return SpectralCoeffs(coeffs.basis, np.zeros(1))
    n = np.arange(k, len(c), dtype=float)
    falling = np.ones_like(n)
    for i in range(k):
        falling *= n - i
    mult = (2.0 ** (0.5 * k) * np.sqrt(falling)
            / coeffs.basis.eigenvalue(n) ** (0.5 * k))
    return SpectralCoeffs(coeffs.basis, mult * c[k:])


# ---------------------------------------------------------------------------
# k successive first-order Laguerre derivatives of an expansion
# ---------------------------------------------------------------------------

def _laguerre_terms(k: int, f: SpectralCoeffs) -> list:
    """The terms (p, shift, d), in order, of the order-k Laguerre Riesz
    transform of f: the sum of x^p * (d @ phi^(alpha+shift)) over them.

    Starts from the negative power k/2 of f and applies the first-order
    Laguerre factor k times.  One application maps the term
    x^p * sum_m d_m phi_m^(alpha+a) to

        (p + a) x^(p-1) * sum_m d_m phi_m^(alpha+a)
        + x^p * sum_m (-2 sqrt(m+1) d_{m+1}) phi_m^(alpha+a+1),

    so the working function stays inside the family
    {x^p * (vector against phi^(alpha+a))}.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if f.basis.kind != "laguerre":
        raise ValueError("expansion basis must be laguerre")
    terms = {(0, 0): negative_power(0.5 * k, f).coeffs}
    for _ in range(k):
        new = defaultdict(float)
        for (p, a), d in terms.items():
            if p + a != 0:
                new[p - 1, a] += (p + a) * d
            shifted = np.zeros_like(d)
            if len(d) > 1:
                m = np.arange(len(d) - 1, dtype=float)
                shifted[:-1] = -2.0 * np.sqrt(m + 1.0) * d[1:]
            new[p, a + 1] += shifted
        terms = new
    return [(p, shift, d) for (p, shift), d in terms.items()]


def riesz_apply_laguerre_spectral(k: int, f: SpectralCoeffs, x):
    """Order-k Laguerre Riesz transform through the spectral route:
    negative power k/2 followed by k successive analytic applications of
    the first-order factor, evaluated pointwise.  The type parameter
    alpha is that of the expansion's basis.

    One basis table per term serves every x, and each point's value is the
    same, bit for bit, whatever other points share the call (see
    basis._column_dots)."""
    terms = _laguerre_terms(k, f)
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(xa <= 0):
        raise ValueError("x must be > 0")
    total = np.zeros_like(xa)
    for p, shift, d in terms:
        table = phi_table(len(d) - 1, f.basis.alpha + shift, xa)
        total = total + xa**p * _column_dots(d, table)
    return total if np.ndim(x) else float(total[0])


# ---------------------------------------------------------------------------
# Principal value machinery
# ---------------------------------------------------------------------------

def extrapolate_to_zero(eps, values):
    """Polynomial (Neville) extrapolation of values(eps) to eps = 0.

    Returns (limit, err_estimate) where the estimate is the difference of
    the last two diagonal entries of the extrapolation table.
    """
    eps = np.asarray(eps, dtype=float)
    level = np.asarray(values, dtype=float)
    if len(eps) < 2:
        return float(level[0]), math.inf
    diag = [level[0]]
    for m in range(1, len(eps)):
        level = ((eps[m:] * level[:-1] - eps[:-m] * level[1:])
                 / (eps[m:] - eps[:-m]))
        diag.append(level[0])
    return float(diag[-1]), float(abs(diag[-1] - diag[-2]))


def _eps_schedule(stages: int) -> np.ndarray:
    """The excision radii 0.1 * 0.5^i, i = 0, ..., stages - 1."""
    if stages < 3:
        raise ValueError(f"need stages >= 3, got {stages}")
    return 0.1 * 0.5 ** np.arange(stages)


def _excised_integrals(kern_vec, f, x: float, eps: np.ndarray,
                       support) -> np.ndarray:
    """Integrals of kern_vec(y) f(y) over the support minus |y - x| <= eps_i,
    one per excision radius, from a single kernel evaluation on 12-node
    Gauss-Legendre panels aligned so that every radius is a panel edge.

    The far field |y - x| > eps_0 takes geometric runs refined toward x,
    and each strip eps_{i+1} < |y - x| <= eps_i two panels on each side;
    each far run and each strip is summed as one dot product."""
    a, b = float(support[0]), float(support[1])
    far = []
    for lo, hi, toward in ((a, x - eps[0], "right"), (x + eps[0], b, "left")):
        if hi > lo:
            floor = min(0.3, max(1e-9, eps[0] / (3.0 * (hi - lo))))
            far.append(geometric_edges(lo, hi, toward=toward, floor=floor))
    # the strips, left then right for each i, each split into two panels
    # where np.linspace(y0, y1, 3) splits it
    y0 = np.ravel([np.maximum(a, x - eps[:-1]), np.maximum(a, x + eps[1:])],
                  order="F")
    y1 = np.ravel([np.minimum(b, x - eps[1:]), np.minimum(b, x + eps[:-1])],
                  order="F")
    mid = y0 + (y1 - y0) / 2
    strip_lo, strip_hi = np.column_stack([y0, mid]), np.column_stack([mid, y1])
    # a piece a few ulps wide, where x +- eps_i meets a support end, has no
    # distinct edges; it holds a few ulps times max |K f|
    far = [e for e in far if np.all(np.diff(e) > 0)]
    keep = np.all(strip_hi > strip_lo, axis=1)
    if not far and not keep.any():
        raise ValueError(f"the support {tuple(support)} lies within the "
                         f"smallest excision radius {eps[-1]} of x={x}")
    y, ws = gauss_legendre_spans(
        np.concatenate([e[:-1] for e in far] + [strip_lo[keep].ravel()]),
        np.concatenate([e[1:] for e in far] + [strip_hi[keep].ravel()]), 12)
    contrib = kern_vec(y) * np.asarray(f(y), dtype=float)
    ends = np.cumsum([0] + [12 * (len(e) - 1) for e in far]
                     + [24] * np.count_nonzero(keep))
    # slot 0 adds up the far runs and slot i + 1 the strips at eps_i, each
    # from +0 in the order of the nodes
    slots = [0] * len(far) + (np.flatnonzero(keep) // 2 + 1).tolist()
    totals = np.zeros(len(eps))
    np.add.at(totals, slots, [float(ws[p:q] @ contrib[p:q])
                              for p, q in zip(ends, ends[1:])])
    return totals[0] + np.concatenate([[0.0], np.cumsum(totals[1:])])


def pv_apply(spec: KernelSpec, f, x: float, *, stages: int = 8) -> PVResult:
    """Principal-value application of a Riesz kernel to a smooth function
    at an interior point x of its ``support`` attribute, outside which f
    is 0.

    The excised integrals over |y - x| > eps_i, eps_i = 0.1 * 0.5^i,
    share one kernel evaluation pass (quadrature panels are aligned to
    every excision boundary), the limit is extrapolated polynomially in
    eps, and the even-order constant correction w_k f(x) is reported
    separately.  A PVAccuracyWarning names k, alpha, x, the error estimate
    and |value| when the estimate exceeds _PV_ACCURACY_BOUND (1 + |value|).
    """
    if spec.family not in ("hermite-riesz", "laguerre-riesz"):
        raise ValueError("pv_apply expects a Riesz kernel spec")
    if spec.family == "hermite-riesz" and spec.l != spec.k:
        raise ValueError("principal value is defined for the full kernel l = k")
    a, b = _support_of(f)
    if spec.family == "laguerre-riesz" and a <= 0:
        raise ValueError("Laguerre support must lie inside (0, inf)")
    if not a < x < b:
        raise ValueError(f"x={x} must lie strictly inside the support ({a}, {b})")

    eps = _eps_schedule(stages)

    def kern(y):
        if spec.family == "hermite-riesz":
            return kernels.riesz_kernel_hermite_vec(spec.k, spec.k, x, y)
        return kernels.riesz_kernel_laguerre_vec(spec.k, spec.alpha, x, y)

    values = _excised_integrals(kern, f, x, eps, (a, b))
    limit, err = extrapolate_to_zero(eps, values)
    result = PVResult(epsilons=eps, values=values, extrapolated=limit,
                      err_estimate=err, wk_correction=wk(spec.k) * float(f(x)))
    # a NaN estimate or value warns too
    if not err <= _PV_ACCURACY_BOUND * (1.0 + abs(result.total)):
        alpha = "" if spec.alpha is None else f" alpha={spec.alpha}"
        warnings.warn(
            f"{spec.family} k={spec.k}{alpha} x={x}: err_estimate {err:.3e} "
            f"against |value| {abs(result.total):.3e}; the extrapolation in "
            "the excision radius did not settle", PVAccuracyWarning)
    return result


# ---------------------------------------------------------------------------
# The boundary function Phi and its epsilon-limit
# ---------------------------------------------------------------------------

def phi_at(k: int, eps: float) -> float:
    """Value of the boundary function

        Phi(eps) = (1/Gamma(k/2)) int_0^(1/2) (2s)^(k/2-1)/sqrt(pi s)
                   d^{k-1}/dx^{k-1} [e^{-x^2/4s}] |_{x=eps} ds,

    with the derivative expanded through the chain-rule coefficient table;
    12-node Gauss-Legendre panels shrink by 0.4 toward s = 0.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if eps == 0.0:
        raise ValueError("Phi is evaluated off 0; extrapolate for the limit")
    floor = max(eps * eps / 4000.0, 1e-300)
    s, w = time_panels(min(floor, 1e-8), 12)
    expo = np.exp(-eps * eps / (4.0 * s))
    base = (2.0 * s) ** (0.5 * k - 1.0) / np.sqrt(math.pi * s) * expo
    total = 0.0
    for l in range((k - 1) // 2 + 1):
        j = k - 1 - l
        integral = float(w @ (base * (4.0 * s) ** (-float(j))))
        total += (kernels._e_float(k - 1, l) * eps ** (k - 1 - 2 * l)
                  * (-1.0) ** j * integral)
    return total / gamma(0.5 * k)


def phi_limit(k: int) -> dict:
    """Extrapolated limit of Phi(eps) as eps -> 0+ for even k, sampled at
    the eight radii eps_i = 0.1 * 0.5^i.

    Returns a report dict with the schedule, the sampled values, the
    extrapolated limit and the closed-form value (-1)^(k/2) 2^(k/2-1),
    which is half the constant term of the principal-value representation.
    """
    if k < 2 or k % 2:
        raise ValueError("the limit is taken for even k >= 2")
    eps = _eps_schedule(8)
    vals = np.array([phi_at(k, e) for e in eps])
    limit, err = extrapolate_to_zero(eps, vals)
    return {
        "k": k,
        "epsilons": eps.tolist(),
        "values": vals.tolist(),
        "extrapolated": limit,
        "err_estimate": err,
        "closed_form": 0.5 * wk(k),
    }


# ---------------------------------------------------------------------------
# Weighted norms
# ---------------------------------------------------------------------------

def _norm_rule(p: float, delta: float, interval) -> list:
    """The rule of weighted_norm on ``interval``: a list of (nodes,
    weights) pieces, each summed on its own: the power-weighted endpoint
    rule on (0, 1) when the interval reaches down to 0, then the 40
    Gauss-Legendre panels.  Checks p, delta and the interval as
    weighted_norm states."""
    if not p >= 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    if not (math.isfinite(p) and math.isfinite(delta)):
        raise ValueError(f"need finite p and delta, got p={p}, delta={delta}")
    a, b = float(interval[0]), float(interval[1])
    if a < 0.0:
        raise ValueError("weighted norms live on (0, inf)")
    pieces = []
    if a == 0.0:
        if not delta > -1.0:
            raise ValueError("delta must be > -1 on an interval from 0, "
                             f"got delta={delta}")
        cut = min(1.0, b)
        u, w = gauss_jacobi_01(160, delta)
        pieces.append((cut * u, cut * w))
        a = cut
    if b > a:
        pieces.append(gauss_legendre_panels(np.linspace(a, b, 41), 12))
    return pieces


def _norm_sum(rule: list, values: list, p: float, delta: float) -> float:
    """The weighted L^p norm from f's values on each piece of the rule."""
    total = 0.0
    for (x, w), v in zip(rule, values):
        total += float(w @ (np.abs(np.asarray(v, dtype=float)) ** p
                            * x**delta))
    value = total ** (1.0 / p)
    if not math.isfinite(value):
        raise ValueError("weighted norm did not come out finite")
    return value


def weighted_norm(f, p: float, delta: float, interval) -> float:
    """L^p(x^delta dx) norm of f over ``interval`` = (a, b), 0 <= a, for a
    finite p >= 1 (p = inf reads 1.0 for any f), finite delta, > -1 if a = 0.

    For intervals reaching down to 0 the weight is absorbed by a
    power-weighted endpoint rule on (0, 1); the rest of the interval takes
    40 equal 12-node Gauss-Legendre panels.  The two pieces are summed
    separately (_norm_rule and _norm_sum), so a caller holding f's values
    on them, as lp_scan does, gets the same bits.
    """
    rule = _norm_rule(p, delta, interval)
    return _norm_sum(rule, [f(x) for x, _ in rule], p, delta)
