"""Closed-form heat and Riesz kernels.

The Mehler closed forms of the Hermite and Laguerre heat kernels, the
raising-operator derivatives (d/dx + x)^l W_t, the k-fold first-order
Laguerre derivative of the Laguerre heat kernel (one explicit triple sum;
an independent second expansion, against the Hermite raising derivatives,
is the tests' oracle in tests/conftest.py), and their time integrals: the
fractional-power kernel K_gamma and the Riesz kernels.

``kernel_value(KernelSpec(...), x, y, t)`` evaluates any of the kernel
families named in ``FAMILIES`` at a point; for the integrated families that
is a one-point view on their evaluators at point pairs,
``riesz_kernel_*_vec`` for the Riesz kernels, which take x as a scalar or as
an array broadcast against y.

Time integrals are computed after the substitution t = log((1+s)/(1-s)):
s in (0, 1) with panels refined geometrically toward both endpoints and a
split at s = 1/2.  Near s = 1 the complement w = 1 - s is the integration
variable, so no 1 - s cancellation ever occurs.  Scaled Bessel evaluations
keep every exponential combined analytically; e^{+z} is never formed.

A time integral's integrand gives one array, its (s x pairs) mesh, and the
integral one sum per pair.  The mesh is evaluated in blocks of 64 (x, y)
pairs, which keeps its temporaries small; in a CLI process the next block
reuses them from the heap (cli._pad_heap).  Each pair's sum over s runs row
by row in s order, whatever its block: numpy adds the rows of a block of
two or more columns so, and a one-column block is accumulated the same way
(_column_sums).  So a pair's value does not depend on which pairs share its
call, and a one-point call is that pair's column of any larger call.  Both
kernels' exponents satisfy expo <= -(x - y)^2 / 4s, so a block skips every
s-row where that bound lies below -800 for all its pairs: exp is exactly 0
there, so the row adds exactly +-0 to every column of a sum that numpy
starts from +0, provided its other factors are finite.  Those grow as s
falls, so the first row, at the smallest s, is always kept: where they
overflow (0 * inf = NaN, as at Laguerre k >= 9) it overflows too, and the
sum is NaN as over the whole mesh, which raises QuadratureConvergenceError
naming the pair.  Skipping changes no bit.

The Riesz kernels' integrands decay fast in t: D_alpha^k W_t^alpha like
e^{-(2k+alpha+1)t}, and (d/dx + x)^l W_t like e^{-(l+1/2)t}.  So each
kernel ends the s-rule at a fixed cut: t = 15 for the Laguerre kernel
(401 of the 880 rows of the 8-node rule lie beyond it), and t_l =
45/(l+1/2) for the Hermite kernel with l raisings (269 rows at l = 1, 444
at l = 4; none at l = 0, whose cut lies past the rule's last node, so
K_gamma and the l = 0 kernels keep the whole rule).  The guard,
TestCertifiedTail in tests/test_kernels.py, sums the whole rule on sweeps
of k, alpha, l, x and y: neither a value's move nor the absolute sum of
the rows beyond the cut exceeds 1e-13 of the largest |K| of its call.

Within a block the derivative kernel forms each factor its sums share once:
the Bessel table of k + 1 orders and every power.  Each product keeps its
left-to-right order and leaves out only factors that are exactly 1.0, so
this moves no bit either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import combinat
from .specfun import (alpha_value, bessel_i_scaled, gamma, hermite_poly,
                      time_panels)

__all__ = [
    "FAMILIES",
    "KernelSpec",
    "KernelAgreementWarning",
    "QuadratureConvergenceError",
    "heat_kernel_hermite",
    "heat_kernel_laguerre",
    "kernel_value",
]

FAMILIES = ("hermite-heat", "laguerre-heat", "hermite-frac",
            "hermite-riesz", "laguerre-riesz")


class KernelAgreementWarning(UserWarning):
    """Once raised where two evaluations of the Laguerre derivative kernel
    disagreed.  Only one evaluation runs now, so nothing raises it; it stays
    defined while bench/run.py counts it."""


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
    """Hermite heat kernel W_t(x, y) via the Mehler closed form.

    Raises RuntimeError where e^-t is below the smallest normal float
    (t above about 708.4): it has lost bits there, or is 0."""
    if not t > 0.0:
        raise ValueError(f"t must be > 0, got {t}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    em = math.exp(-t)
    if em < np.finfo(float).tiny:
        raise RuntimeError(f"Hermite heat kernel at t={t}, x={x}, y={y}: "
                           f"e^-t = {em} is below the smallest normal float")
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


def _dplusx_heat_sw(l: int, s, w, x, y):
    """(d/dx + x)^l W_t(x, y) in substituted time.

    e^{x^2/2} W_t is a Gaussian in x with curvature -(1-s)^2/(4s), so the
    l-th raising derivative is W_t (-1)^l lam^{l/2} H_l(arg), with lam =
    (1-s)^2/(4s) and arg = ((1-s) x - (1+s) y) / (2 sqrt(s)): an l-th
    Hermite polynomial evaluation, no finite differences.
    """
    s, w, x, y = (np.asarray(v, dtype=float) for v in (s, w, x, y))
    val = _heat_sw(s, w, x, y)
    if l == 0:
        return val
    lam = w * w / (4.0 * s)
    arg = (w * x - (1.0 + s) * y) / (2.0 * np.sqrt(s))
    # (-1)^l multiplies the per-row factor, not the mesh: for finite values
    # (v * -1.0) * c is v * -c, bit for bit
    return _times(val, (-1.0) ** l * lam ** (0.5 * l), hermite_poly(l, arg))


def heat_kernel_laguerre(t: float, x, y, alpha):
    """Laguerre heat kernel W_t^alpha(x, y) via its Mehler closed form.

    Evaluated with the scaled Bessel function and the regrouped exponent
    -((x - y e^-t)^2 + (y - x e^-t)^2) / (2 (1 - e^-2t)), which stays
    bounded as the Bessel argument grows.  Raises RuntimeError where the
    Bessel argument z = 2xy e^-t / (1 - e^-2t) is below the smallest normal
    float: such a z has lost bits, and e^-t may have rounded on the way.
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
    low = z < np.finfo(float).tiny
    if np.any(low):
        i = np.argmax(low)
        xb, yb = np.broadcast_arrays(x, y)
        raise RuntimeError(
            f"Laguerre heat kernel at t={t}, x={xb.flat[i]}, y={yb.flat[i]}: "
            f"the Bessel argument {z.flat[i]} is below the smallest normal "
            "float")
    expo = -((x - y * em) ** 2 + (y - x * em) ** 2) / (2.0 * den)
    return (math.sqrt(2.0 * em / den) * np.sqrt(z)
            * bessel_i_scaled(a, z) * np.exp(expo))


# ---------------------------------------------------------------------------
# k-fold first-order Laguerre derivative of the Laguerre heat kernel
# ---------------------------------------------------------------------------

def _dw_pair_sw(k: int, alpha: float, s, w, x, y):
    """The k-fold derivative kernel D_alpha^k W_t^alpha in substituted time:
    the explicit triple sum over (j, n, m) with Bessel orders alpha + j - n,
    each scaled Bessel order and each power formed once."""
    s, w, x, y = (np.asarray(v, dtype=float) for v in (s, w, x, y))
    one_m_s2 = w * (2.0 - w)
    z = x * y * one_m_s2 / (2.0 * s)
    u = y * one_m_s2 / (2.0 * s)
    c2 = w * w / (4.0 * s)
    isc = [bessel_i_scaled(alpha + d, z) for d in range(k + 1)]
    zpow = [z ** (0.5 - d) for d in range(k + 1)]   # z^{1/2 - d}
    upow = _powers(u, range(0, 2 * k + 1, 2))
    c2pow = _powers(c2, range(k + 1))
    xpow = _powers(x, range(k + 1))
    expo = -(((1.0 + s) * x - w * y) ** 2 + ((1.0 + s) * y - w * x) ** 2) / (8.0 * s)
    pref = np.sqrt(one_m_s2 / (2.0 * s)) * np.exp(expo)
    acc = 0.0
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
    return pref * acc


# ---------------------------------------------------------------------------
# Time integration in the substituted variable
# ---------------------------------------------------------------------------

_Y_BLOCK = 64
_EXPO_FLOOR = -800.0    # far below exp's underflow to exactly 0 at -745.14
_LAGUERRE_T_CUT = 15.0  # the Laguerre kernel's end of the s-rule
_HERMITE_DECAY = 45.0   # (l + 1/2) t_l, t_l being the Hermite kernel's end


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
    """Slices of _Y_BLOCK consecutive columns covering range(n), the last
    one narrower where n is not a multiple of _Y_BLOCK; n = 0 gives one
    empty slice."""
    return [slice(a, min(a + _Y_BLOCK, n))
            for a in range(0, max(n, 1), _Y_BLOCK)]


def _pairs(x, y):
    """x and y as float arrays of y's shape, one (x, y) pair per entry: x a
    scalar or an array that broadcasts against y, copied out of the
    broadcast so that every block slices contiguous x."""
    y = np.asarray(y, dtype=float)
    return np.broadcast_to(np.asarray(x, dtype=float), y.shape).copy(), y


def _column_sums(terms) -> np.ndarray:
    """Sums over the rows of each column of ``terms``, row by row in order
    from +0: numpy adds a C-contiguous array of two or more columns so, and
    a lone column by the same sequential accumulation (its own sum would
    run pairwise); adding 0.0 turns a -0 total into +0, as sum gives."""
    if terms.shape[1] > 1:
        return terms.sum(axis=0)
    return np.cumsum(terms, axis=0)[-1] + 0.0


def _s_integral(integrand, wt, x, y, nodes: int, t_cut: float, what: str,
                **params) -> np.ndarray:
    """sum_i wt_i * integrand(s_i, w_i, x, y) over the rows of the s-rule of
    ``nodes`` with t_i <= t_cut, one entry per (x, y) pair.

    Evaluated in blocks of pairs (see the module docstring): each column's
    sum runs row by row in s order, and a block skips the rows whose
    exponent bound -(x - y)^2 / 4s lies below _EXPO_FLOOR for every pair
    of the block, except the first row.  Raises QuadratureConvergenceError
    at the first pair whose sum is not finite (0 * inf = NaN at the
    smallest s, as at Laguerre k >= 9), naming the kernel ``what``, its
    parameters and the pair."""
    s, w, t, _ = _s_quadrature(nodes)
    kept = t <= t_cut
    sums = []
    for cols in _y_blocks(len(y)):
        xb, yb = x[cols], y[cols]
        rows = kept & (-np.min((xb - yb) ** 2) / (4.0 * s) >= _EXPO_FLOOR)
        rows[0] = True
        # an overflow shows as a non-finite sum, which raises below; the
        # integrand's array dies with the block, so that it does not add to
        # the next block's peak
        with np.errstate(over="ignore", invalid="ignore"):
            sums.append(_column_sums(wt[rows, None] * integrand(
                s[rows, None], w[rows, None], xb[None, :], yb[None, :])))
    sums = np.concatenate(sums)
    bad = ~np.isfinite(sums)
    if np.any(bad):
        i = np.argmax(bad)
        named = ", ".join(f"{key}={value}" for key, value in params.items())
        raise QuadratureConvergenceError(
            f"{what} at {named}, x={x[i]}, y={y[i]} is not finite")
    return sums


def _hermite_time_integral(l: int, half_order: float, x, y,
                           nodes: int) -> np.ndarray:
    """(1/Gamma(q)) * integral of t^{q-1} (d/dx + x)^l W_t(x, y) dt,
    q = half_order, at the pairs (x, y) that _pairs gives, ended at t_l (at
    l = 0 past the rule's last node)."""
    _, _, t, weight = _s_quadrature(nodes)
    wt = weight * t ** (half_order - 1.0)
    return _s_integral(
        lambda s, w, xb, yb: _dplusx_heat_sw(l, s, w, xb, yb), wt, x, y,
        nodes, _HERMITE_DECAY / (l + 0.5), "Hermite time integral", l=l,
        q=half_order) / gamma(half_order)


def _frac_tail(q: float, nodes: int) -> float:
    """Bound on the share of the mass of t^(q-1) e^(-t/2), the n = 0 term of
    the K_gamma integrand (q = gamma/2), that lies beyond the last node
    t_end of the s-rule: Q(q, x) <= x^(q-1) e^(-x) x / (Gamma(q) (x-q+1))
    at x = t_end/2 (for q >= 1; inf when x <= q - 1).  For large gamma
    that term carries the kernel, and this is the relative error the rule's
    end leaves."""
    x = 0.5 * float(_s_quadrature(nodes)[2].max())
    if x <= q - 1.0:
        return math.inf
    return math.exp(q * math.log(x) - x - math.lgamma(q)
                    - math.log(x - q + 1.0))


def _at_point(vec, x: float, y: float, rel_tol: float | None, what: str,
              tail: float = 0.0):
    """(value, est_err) of a scalar kernel, a one-point view on its vector
    path ``vec(y, nodes)`` (the column of the pair (x, y) in any call that
    holds it).  The value is taken at 12 time nodes; est_err is the change
    from 8, or ``tail`` times |value| if larger, where ``tail`` is a
    relative error the kernel knows of (K_gamma's tail share, _frac_tail).
    est_err above rel_tol * |value| raises (never, for rel_tol None)."""
    y1 = np.array([float(y)])
    coarse = float(vec(y1, 8)[0])
    val = float(vec(y1, 12)[0])
    err = max(abs(val - coarse), tail * abs(val))
    if rel_tol is not None and err > max(rel_tol * abs(val), 1e-250):
        raise QuadratureConvergenceError(
            f"{what} quadrature stalled at ({x}, {y}): est err {err}")
    return val, err


# ---------------------------------------------------------------------------
# Integrated kernels
# ---------------------------------------------------------------------------

def riesz_kernel_hermite_vec(k: int, l: int, x, y, *, nodes: int = 8):
    """Hermite Riesz-type kernel with l raising derivatives at the pairs
    (x, y), x a scalar or an array broadcast against y."""
    if k < 1 or not 0 <= l <= k:
        raise ValueError(f"need k >= 1 and 0 <= l <= k, got k={k}, l={l}")
    x, y = _pairs(x, y)
    if l >= k - 1 and np.any(y == x):
        raise ValueError("kernel singular on the diagonal for l >= k-1")
    return _hermite_time_integral(l, 0.5 * k, x, y, nodes)


def riesz_kernel_laguerre_vec(k: int, alpha, x, y, *, nodes: int = 8):
    """Laguerre Riesz kernel at the pairs (x, y), x a scalar or an array
    broadcast against y."""
    if k < 1:
        raise ValueError("k must be >= 1")
    a = alpha_value(alpha)
    x, y = _pairs(x, y)
    if np.any(y == x):
        raise ValueError("Riesz kernel requires x != y")
    if not (np.all(x > 0) and np.all(y > 0)):
        raise ValueError("x and y must be > 0")
    _, _, t, weight = _s_quadrature(nodes)
    wt = weight * t ** (0.5 * k - 1.0) / gamma(0.5 * k)
    return _s_integral(
        lambda s, w, xb, yb: _dw_pair_sw(k, a, s, w, xb, yb), wt, x, y,
        nodes, _LAGUERRE_T_CUT, "Riesz kernel", k=k, alpha=a)


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
        q = 0.5 * spec.gamma
        return _at_point(
            lambda ys, n: _hermite_time_integral(0, q, *_pairs(float(x), ys),
                                                 n),
            x, y, 1e-5, "K_gamma", tail=_frac_tail(q, 8))
    if spec.family == "hermite-riesz":
        return _at_point(
            lambda ys, n: riesz_kernel_hermite_vec(spec.k, spec.l, float(x),
                                                   ys, nodes=n),
            x, y, None, "Riesz kernel")
    return _at_point(
        lambda ys, n: riesz_kernel_laguerre_vec(spec.k, spec.alpha, float(x),
                                                ys, nodes=n),
        x, y, 1e-4, "Riesz kernel")
