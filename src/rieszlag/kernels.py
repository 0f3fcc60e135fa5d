"""Closed-form heat and Riesz kernels.

The Mehler closed forms of the Hermite and Laguerre heat kernels, the
raising-operator derivatives (d/dx + x)^l W_t, the k-fold first-order
Laguerre derivative of the Laguerre heat kernel (evaluated two independent
ways that are cross-checked in production), and their time integrals: the
fractional-power kernel K_gamma and the Riesz kernels.

``kernel_value(KernelSpec(...), x, y, t)`` evaluates any of the kernel
families named in ``FAMILIES`` at a point; for the integrated families that
is a one-point view on their evaluators vectorized in y,
``riesz_kernel_*_vec`` for the Riesz kernels.

Time integrals are computed after the substitution t = log((1+s)/(1-s)):
s in (0, 1) with panels refined geometrically toward both endpoints and a
split at s = 1/2.  Near s = 1 the complement w = 1 - s is the integration
variable, so no 1 - s cancellation ever occurs.  Scaled Bessel evaluations
keep every exponential combined analytically; e^{+z} is never formed.

The (s x y) mesh of a time integral is evaluated in blocks of 64 y points,
which keeps its temporaries small, and the sum over s of a block runs row by
row in s order, as over the whole mesh.  Both kernels' exponents satisfy
expo <= -(x - y)^2 / 4s, so a block skips every s-row where that bound lies
below -800 for all its y: exp is exactly 0 there, so the row adds exactly +-0
to every column of a sum that numpy starts from +0, provided its other
factors are finite.  Those grow as s falls, so the first row, at the smallest
s, is always kept: where they overflow (0 * inf = NaN, as at Laguerre k >= 9)
it overflows too, and the sum is NaN as over the whole mesh, which raises.
Neither step changes a bit of any value.  A one-point call keeps the whole
rule: numpy sums a one-column array pairwise, where skipping rows would move
last bits.

Within a block the derivative kernel forms each factor its sums share once:
the Bessel table, every power, and route two's Gaussian and Hermite
recurrence.  Each product keeps its left-to-right order and leaves out only
factors that are exactly 1.0, so this moves no bit either.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import combinat
from .specfun import (alpha_value, bessel_i_scaled, gamma, hermite_poly,
                      hermite_polys, time_panels)

__all__ = [
    "FAMILIES",
    "KernelSpec",
    "KernelAgreementWarning",
    "QuadratureConvergenceError",
    "heat_kernel_hermite",
    "heat_kernel_laguerre",
    "d_alpha_pow_k_heat_pair",
    "kernel_value",
]

FAMILIES = ("hermite-heat", "laguerre-heat", "hermite-frac",
            "hermite-riesz", "laguerre-riesz")


class KernelAgreementWarning(UserWarning):
    """The two independent evaluations of the Laguerre derivative kernel
    disagree beyond the production threshold at some point."""


class QuadratureConvergenceError(RuntimeError):
    """Refinement of a kernel time-integral stalled above tolerance."""


@dataclass(frozen=True)
class KernelSpec:
    """Tagged description of which kernel is meant, with its parameters."""

    family: str
    k: int = 0
    l: int | None = None
    gamma: float | None = None
    alpha: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown kernel family: {self.family}")
        if self.family == "hermite-frac":
            if self.gamma is None or not self.gamma > 0:
                raise ValueError("hermite-frac requires gamma > 0")
        elif self.gamma is not None:
            raise ValueError(
                f"{self.family} takes no gamma, got gamma={self.gamma}")
        if self.family in ("hermite-riesz", "laguerre-riesz"):
            if self.k < 1:
                raise ValueError("Riesz kernels require k >= 1")
        elif self.k != 0:
            raise ValueError(f"{self.family} takes no k, got k={self.k}")
        if self.l is not None and self.family != "hermite-riesz":
            raise ValueError(f"{self.family} takes no l, got l={self.l}")
        if self.family == "hermite-riesz":
            l = self.k if self.l is None else self.l
            if not 0 <= l <= self.k:
                raise ValueError(f"need 0 <= l <= k, got l={self.l}, k={self.k}")
            object.__setattr__(self, "l", l)
        if self.family.startswith("laguerre"):
            if self.alpha is None:
                raise ValueError(f"{self.family} requires alpha")
            object.__setattr__(self, "alpha", alpha_value(self.alpha))
        elif self.alpha is not None:
            raise ValueError(
                f"{self.family} takes no alpha, got alpha={self.alpha}")


@lru_cache(maxsize=512)
def _e_float(n: int, l: int) -> float:
    return float(combinat.e_coeff(n, l))


# ---------------------------------------------------------------------------
# Heat kernels
# ---------------------------------------------------------------------------

def heat_kernel_hermite(t: float, x, y):
    """Hermite heat kernel W_t(x, y) via the Mehler closed form."""
    if not t > 0.0:
        raise ValueError(f"t must be > 0, got {t}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    em = math.exp(-t)
    den = -math.expm1(-2.0 * t)
    expo = (-0.5 * (x * x + y * y) * (1.0 + em * em) / den
            + 2.0 * x * y * em / den)
    return math.sqrt(em / (math.pi * den)) * np.exp(expo)


def _powers(base, exponents) -> dict:
    """{e: base ** e} for each exponent, with base ** 0 as the float 1.0
    (pow gives exactly 1 for every base, NaN and inf included)."""
    return {e: base ** e if e else 1.0 for e in exponents}


def _times(value, *factors):
    """value * factor * ..., multiplied left to right.  Factors that are
    the float 1.0 are left out: x * 1.0 is x to the bit, NaN included, so
    the product keeps every bit and skips a pass over the mesh."""
    for factor in factors:
        if not (isinstance(factor, float) and factor == 1.0):
            value = value * factor
    return value


def _heat_sw(s, w, x, y):
    """W_t(x, y) in substituted time; w = 1 - s passed separately so the
    s -> 1 endpoint loses no precision."""
    one_m_s2 = w * (2.0 - w)                       # 1 - s^2
    pref = np.sqrt(one_m_s2 / (4.0 * math.pi * s))
    expo = -0.25 * (s * (x + y) ** 2 + (x - y) ** 2 / s)
    return pref * np.exp(expo)


def _raising_sw(s, w, x, y):
    """(lam, arg) with (d/dx + x)^l W_t = W_t (-1)^l lam^{l/2} H_l(arg).

    e^{x^2/2} W_t is a Gaussian in x with curvature -(1-s)^2/(4s), so the
    l-th raising derivative is an l-th Hermite polynomial evaluation; no
    finite differences.
    """
    return w * w / (4.0 * s), (w * x - (1.0 + s) * y) / (2.0 * np.sqrt(s))


def _dplusx_heat_sw(l: int, s, w, x, y):
    """(d/dx + x)^l W_t(x, y) in substituted time (see _raising_sw)."""
    s, w, x, y = (np.asarray(v, dtype=float) for v in (s, w, x, y))
    val = _heat_sw(s, w, x, y)
    if l == 0:
        return val
    lam, arg = _raising_sw(s, w, x, y)
    return _times(val, (-1.0) ** l, lam ** (0.5 * l), hermite_poly(l, arg))


def _dplusx_heat_orders_sw(k: int, s, w, x, y) -> list:
    """[(d/dx + x)^l W_t(x, y) for l = 0..k], each bit for bit as
    _dplusx_heat_sw(l, ...) gives it, from one Gaussian and one pass of the
    Hermite recurrence."""
    val = _heat_sw(s, w, x, y)
    lam, arg = _raising_sw(s, w, x, y)
    return [val] + [_times(val, (-1.0) ** l, lam ** (0.5 * l), h)
                    for l, h in enumerate(hermite_polys(k, arg)) if l]


def heat_kernel_laguerre(t: float, x, y, alpha):
    """Laguerre heat kernel W_t^alpha(x, y) via its Mehler closed form.

    Evaluated with the scaled Bessel function and the regrouped exponent
    -((x - y e^-t)^2 + (y - x e^-t)^2) / (2 (1 - e^-2t)), which stays
    bounded as the Bessel argument grows.
    """
    a = alpha_value(alpha)
    if not t > 0.0:
        raise ValueError(f"t must be > 0, got {t}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (np.all(x > 0) and np.all(y > 0)):
        raise ValueError("x and y must be > 0")
    em = math.exp(-t)
    den = -math.expm1(-2.0 * t)
    z = 2.0 * x * y * em / den
    expo = -((x - y * em) ** 2 + (y - x * em) ** 2) / (2.0 * den)
    return (math.sqrt(2.0 * em / den) * np.sqrt(z)
            * bessel_i_scaled(a, z) * np.exp(expo))


# ---------------------------------------------------------------------------
# k-fold first-order Laguerre derivative of the Laguerre heat kernel
# ---------------------------------------------------------------------------

def _dw_pair_sw(k: int, alpha: float, s, w, x, y):
    """Both independent evaluations of the k-fold derivative kernel.

    Route one is the explicit triple sum over (j, n, m) with Bessel orders
    alpha + j - n; route two expands against the Hermite heat kernel's
    raising derivatives with Bessel orders alpha - n + l.  The scaled
    Bessel table and the powers are shared between the two.
    """
    s, w, x, y = (np.asarray(v, dtype=float) for v in (s, w, x, y))
    one_m_s2 = w * (2.0 - w)
    z = x * y * one_m_s2 / (2.0 * s)
    u = y * one_m_s2 / (2.0 * s)
    c2 = w * w / (4.0 * s)
    isc = [bessel_i_scaled(alpha + d, z) for d in range(k + 1)]
    zpow = [z ** (0.5 - d) for d in range(k + 1)]   # z^{1/2 - d}
    upow = _powers(u, {*range(k + 1), *range(0, 2 * k + 1, 2)})
    c2pow = _powers(c2, range(k + 1))
    xpow = _powers(x, range(k + 1))
    zneg = _powers(z, range(0, -(k // 2) - 1, -1))  # z^{-n}

    # route one; the same sum with absolute values tracks the cancellation
    # conditioning, which bounds the achievable route agreement
    expo = -(((1.0 + s) * x - w * y) ** 2 + ((1.0 + s) * y - w * x) ** 2) / (8.0 * s)
    pref = np.sqrt(one_m_s2 / (2.0 * s)) * np.exp(expo)
    acc = 0.0
    acc_abs = 0.0
    for j in range(k + 1):
        for n in range(j // 2 + 1):
            base = _times(math.comb(k, j) * _e_float(j, n) / 2.0 ** (j - n),
                          upow[2 * (j - n)])
            for m in range((k - j) // 2 + 1):
                term = _times(base, _e_float(k - j, m), c2pow[k - j - m],
                              xpow[k - 2 * m - 2 * n], zpow[j - n],
                              isc[j - n])
                # (-1)^e * term, exactly
                acc = acc - term if (k - j - m) % 2 else acc + term
                acc_abs = acc_abs + term
    dw1 = pref * acc
    dw1_abs = pref * acc_abs
    # free the mesh arrays route two does not use, for a lower peak
    del expo, pref, acc, acc_abs, zpow[1:]

    # route two
    raised = _dplusx_heat_orders_sw(k, s, w, x, y)
    dw2 = 0.0
    for j in range(k + 1):
        inner = 0.0
        for n in range(j // 2 + 1):
            for l in range(2 * n, j + 1):
                inner = inner + _times((-1.0) ** l * math.comb(j, l)
                                       * _e_float(l, n) / 2.0 ** (l - n),
                                       zpow[0], zneg[-n], isc[l - n])
        dw2 = dw2 + _times((-1.0) ** j * math.comb(k, j), raised[k - j],
                           upow[j], inner)
    dw2 = math.sqrt(2.0 * math.pi) * dw2
    return dw1, dw2, dw1_abs


_AGREEMENT_TOL = 1e-8


def _route_disagreement(v1, v2, vabs):
    """Relative disagreement of the two routes and the floor it may reach:
    1e-8 plus the cancellation floor 1e-12 * vabs / scale of the alternating
    sums, vabs being the same sum taken over absolute values."""
    scale = np.maximum(np.maximum(np.abs(v1), np.abs(v2)), 1e-300)
    return np.abs(v1 - v2) / scale, _AGREEMENT_TOL + 1e-12 * vabs / scale


def d_alpha_pow_k_heat_pair(k: int, t: float, x: float, y: float, alpha):
    """Both evaluation routes of the k-fold first-order Laguerre derivative
    of the Laguerre heat kernel W_t^alpha at one point (x, y)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if not t > 0.0:
        raise ValueError(f"t must be > 0, got {t}")
    if not (x > 0 and y > 0):
        raise ValueError("x and y must be > 0")
    em = math.exp(-t)  # s = tanh(t/2) and w = 1 - s, free of cancellation
    s, w = -math.expm1(-t) / (1.0 + em), 2.0 * em / (1.0 + em)
    dw1, dw2, _ = _dw_pair_sw(k, alpha_value(alpha), s, w, x, y)
    return float(dw1), float(dw2)


# ---------------------------------------------------------------------------
# Time integration in the substituted variable
# ---------------------------------------------------------------------------

_Y_BLOCK = 64
_EXPO_FLOOR = -800.0    # far below exp's underflow to exactly 0 at -745.14


@lru_cache(maxsize=16)
def _s_quadrature(nodes: int):
    """Panelled rule for integrals dt over (0, inf) in the s variable.

    Returns immutable arrays (s, w=1-s, t, weight) where weight includes
    the Jacobian dt/ds = 2/(1-s^2).  Split at 1/2; panels shrink by a
    factor 0.4 toward s = 0, down to 1e-18, and (in the complement
    variable) toward s = 1, down to w = 1e-26.
    """
    s_lo, gl_lo = time_panels(1e-18, nodes)
    w_lo = 1.0 - s_lo

    w_hi, gl_hi = time_panels(1e-26, nodes)
    w_hi = w_hi[::-1]
    gl_hi = gl_hi[::-1]
    s_hi = 1.0 - w_hi

    s = np.concatenate([s_lo, s_hi])
    w = np.concatenate([w_lo, w_hi])
    t = np.concatenate([2.0 * np.arctanh(s_lo),
                        np.log(2.0 - w_hi) - np.log(w_hi)])
    weight = np.concatenate([gl_lo, gl_hi]) * 2.0 / (w * (2.0 - w))
    for arr in (s, w, t, weight):
        arr.setflags(write=False)
    return s, w, t, weight


def _y_blocks(n: int) -> list:
    """Slices of _Y_BLOCK consecutive y points covering range(n).  A lone
    last point joins the block before it: numpy sums a one-column array
    pairwise, a wider one row by row, so only a one-point call has a
    one-column block."""
    starts = list(range(0, n, _Y_BLOCK))
    if n > 1 and n % _Y_BLOCK == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts or [0], starts[1:] + [n])]


def _s_integral(integrand, wt, x: float, y, nodes: int) -> list:
    """sum_i wt_i * F(s_i, y) over the s-rule of ``nodes``, for each array
    F of the tuple ``integrand(s, w, y)`` returns; one array per F.

    Evaluated in y-blocks (see the module docstring): each block's sum runs
    over a C-contiguous (rows, block) array, so numpy adds its rows in s
    order, and it skips the rows whose exponent bound -(x - y)^2 / 4s lies
    below _EXPO_FLOOR for every y of the block, except the first."""
    s, w, _, _ = _s_quadrature(nodes)
    blocks = []
    for cols in _y_blocks(len(y)):
        yb = y[cols]
        rows = slice(None)
        if len(yb) > 1:
            rows = -np.min((x - yb) ** 2) / (4.0 * s) >= _EXPO_FLOOR
            rows[0] = True
        parts = integrand(s[rows, None], w[rows, None], yb[None, :])
        blocks.append([(wt[rows, None] * f).sum(axis=0) for f in parts])
    return [np.concatenate(sums) for sums in zip(*blocks)]


def _check_finite(sums, y, what: str, **params) -> None:
    """Raise at the first y where a kernel sum is not finite (0 * inf = NaN
    at the smallest s, as at Laguerre k >= 9), naming the kernel ``what``
    and its parameters."""
    bad = ~np.all([np.isfinite(v) for v in sums], axis=0)
    if np.any(bad):
        named = ", ".join(f"{key}={value}" for key, value in params.items())
        raise QuadratureConvergenceError(
            f"{what} at {named}, y={y[np.argmax(bad)]} is not finite")


def _hermite_time_integral(l: int, half_order: float, x: float, y,
                           nodes: int) -> np.ndarray:
    """(1/Gamma(q)) * integral of t^{q-1} (d/dx + x)^l W_t(x, y) dt,
    q = half_order, vectorized in y."""
    _, _, t, weight = _s_quadrature(nodes)
    wt = weight * t ** (half_order - 1.0)
    vals, = _s_integral(lambda s, w, yb: (_dplusx_heat_sw(l, s, w, x, yb),),
                        wt, x, y, nodes)
    _check_finite([vals], y, "Hermite time integral", l=l, q=half_order, x=x)
    return vals / gamma(half_order)


def _at_point(vec, x: float, y: float, rel_tol: float | None, what: str):
    """(value, est_err) of a scalar kernel, a one-point view on its vector
    path ``vec(y, nodes)``, which returns the kernel at the points y and the
    relative disagreement of its routes (0 for single-route kernels).  The
    value is taken at 12 time nodes; est_err is the change from 8, or the
    route disagreement if larger.  est_err above rel_tol * |value| raises
    (never, for rel_tol None)."""
    y1 = np.array([float(y)])
    coarse, agree = vec(y1, 8)
    val = float(vec(y1, 12)[0][0])
    err = max(abs(val - float(coarse[0])), agree * abs(val))
    if rel_tol is not None and err > max(rel_tol * abs(val), 1e-250):
        raise QuadratureConvergenceError(
            f"{what} quadrature stalled at ({x}, {y}): est err {err}")
    return val, err


# ---------------------------------------------------------------------------
# Integrated kernels
# ---------------------------------------------------------------------------

def riesz_kernel_hermite_vec(k: int, l: int, x: float, y, *, nodes: int = 8):
    """Hermite Riesz-type kernel with l raising derivatives, vectorized in y."""
    if k < 1 or not 0 <= l <= k:
        raise ValueError(f"need k >= 1 and 0 <= l <= k, got k={k}, l={l}")
    y = np.asarray(y, dtype=float)
    if l >= k - 1 and np.any(y == x):
        raise ValueError("kernel singular on the diagonal for l >= k-1")
    return _hermite_time_integral(l, 0.5 * k, x, y, nodes)


def riesz_kernel_laguerre_vec(k: int, alpha, x: float, y, *, nodes: int = 8):
    """Laguerre Riesz kernel vectorized in y, with the largest relative
    disagreement of its two routes: returns (values, agreement).

    Both derivative-kernel routes are integrated and compared in
    production.  The warning threshold allows for the cancellation floor of
    the alternating sums (tracked through an absolute-value companion
    integral), so only genuine formula-level disagreement fires.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    a = alpha_value(alpha)
    y = np.asarray(y, dtype=float)
    if np.any(y == x):
        raise ValueError("Riesz kernel requires x != y")
    if not (x > 0 and np.all(y > 0)):
        raise ValueError("x and y must be > 0")
    _, _, t, weight = _s_quadrature(nodes)
    wt = weight * t ** (0.5 * k - 1.0) / gamma(0.5 * k)
    v1, v2, vabs = _s_integral(
        lambda s, w, yb: _dw_pair_sw(k, a, s, w, x, yb), wt, x, y, nodes)
    _check_finite([v1, v2, vabs], y, "Riesz kernel", k=k, alpha=a, x=x)
    disagree, floor = _route_disagreement(v1, v2, vabs)
    if np.any(disagree > floor):
        idx = int(np.argmax(disagree - floor))
        warnings.warn(
            f"Riesz kernel routes disagree ({disagree[idx]:.2e} relative, "
            f"conditioning floor {floor[idx]:.2e}) at (k={k}, alpha={a}, "
            f"x={x}, y={y.ravel()[idx]})", KernelAgreementWarning)
    return v1, float(disagree.max()) if disagree.size else 0.0


def kernel_value(spec: KernelSpec, x: float, y: float,
                 t: float | None = None):
    """(value, est_err) of the kernel described by ``spec`` at (x, y).

    Heat families need ``t``, the others reject it; K_gamma with gamma <= 1
    rejects the diagonal x == y."""
    if spec.family in ("hermite-heat", "laguerre-heat"):
        if t is None:
            raise ValueError("heat kernels need t")
        if spec.family == "hermite-heat":
            return float(heat_kernel_hermite(t, x, y)), 0.0
        return float(heat_kernel_laguerre(t, x, y, spec.alpha)), 0.0
    if t is not None:
        raise ValueError(f"{spec.family} takes no t, got t={t}")
    if spec.family == "hermite-frac":
        if spec.gamma <= 1.0 and x == y:
            raise ValueError("K_gamma on the diagonal requires gamma > 1")
        return _at_point(
            lambda ys, n: (_hermite_time_integral(0, 0.5 * spec.gamma,
                                                  float(x), ys, n), 0.0),
            x, y, 1e-5, "K_gamma")
    if spec.family == "hermite-riesz":
        return _at_point(
            lambda ys, n: (riesz_kernel_hermite_vec(spec.k, spec.l, float(x),
                                                    ys, nodes=n), 0.0),
            x, y, None, "Riesz kernel")
    return _at_point(
        lambda ys, n: riesz_kernel_laguerre_vec(spec.k, spec.alpha, float(x),
                                                ys, nodes=n),
        x, y, 1e-4, "Riesz kernel")
