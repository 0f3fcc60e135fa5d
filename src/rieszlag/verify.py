"""Empirical certification of the kernel estimates and mapping properties.

Bound scans compute the sup over region samples of |kernel| divided by the
claimed bound, repeat at doubled sample density, and record the growth; a
stable, finite sup is evidence for the bound at desk scale.  Weighted-norm
ratio scans over seeded bump families probe uniform boundedness on
L^p(x^delta dx).  Finite sampling cannot prove an estimate, so every
report carries an explicit empirical-only marker.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import kernels, operators
# analyze and gauss_legendre_panels have no use here; they stay imported
# because the benchmark tracer (bench/spans.py) wraps verify.analyze and
# verify.gauss_legendre_panels by name
from .basis import BasisTag, analyze, analyze_all
from .specfun import alpha_value, gauss_legendre_panels

__all__ = [
    "BoundCheckReport",
    "LpScanReport",
    "STATEMENTS",
    "check_prop33",
    "check_prop31",
    "lp_scan",
    "strong_type_range",
]

# the Prop 3.3 estimates: the band of y/x each is sampled on and its bound
# on |kernel| at (x, y, alpha)
_PROP33 = {
    "prop33-i": ((0.02, 0.45),
                 lambda x, y, a: y ** (a + 0.5) / x ** (a + 1.5)),
    "prop33-ii-even": ((2.2, 8.0),
                       lambda x, y, a: x ** (a + 0.5) / y ** (a + 1.5)),
    "prop33-ii-odd": ((2.2, 8.0),
                      lambda x, y, a: x ** (a + 1.5) / y ** (a + 2.5)),
    "prop33-iii": ((0.55, 1.9),
                   lambda x, y, a: (1.0 + np.sqrt(x / np.abs(x - y))) / x),
}

STATEMENTS = (*_PROP33, "prop31-l-table")


@dataclass(frozen=True)
class BoundCheckReport:
    """Sup of |kernel| over a region sample against a claimed bound."""

    statement: str
    k: int
    alpha: float | None
    sample_spec: dict
    sup_ratio: float
    argmax: tuple
    refinement_history: list
    empirical_only: bool = True

    def __post_init__(self):
        if self.statement not in STATEMENTS:
            raise ValueError(f"unknown statement: {self.statement}")
        if not math.isfinite(self.sup_ratio):
            raise ValueError("sup_ratio must be finite")

    @property
    def stable(self) -> bool:
        """Growth of the sup under refinement stayed below a factor 2."""
        h = self.refinement_history
        return len(h) >= 2 and h[-1] < 2.0 * h[0]

    def to_dict(self) -> dict:
        return {**asdict(self), "stable": self.stable}


@dataclass(frozen=True)
class LpScanReport:
    """Weighted-norm ratios of the transform over a seeded bump family."""

    k: int
    alpha: float
    p: float
    delta: float
    ratios: list
    max_ratio: float
    in_range: bool
    seed: int
    empirical_only: bool = True

    def to_dict(self) -> dict:
        return asdict(self)


def _check_sampling(levels: int, **counts) -> None:
    """Reject scans that cannot pass: the stability check compares at least
    two levels, and an empty sample axis has no sup."""
    if levels < 2:
        raise ValueError(f"levels must be >= 2, got {levels}")
    for name, n in counts.items():
        if n < 1:
            raise ValueError(f"{name} must be >= 1, got {n}")


def _refined_sup(level_scan, levels: int):
    """Sup, argmax and per-level history of a scan refined ``levels`` times.

    ``level_scan(mult)`` gives the level at sample density ``mult`` (1, 2,
    4, ...) as three flat arrays, in order of x and then of y: the sampled
    x, the sampled y and the ratios |kernel| / bound there.  Ties go to the
    first pair in that order.
    """
    history = []
    argmax = (math.nan, math.nan)
    for level in range(levels):
        x, y, r = level_scan(2 ** level)
        j = int(np.argmax(r))
        sup = max(float(r[j]), 0.0)
        if sup > 0.0:
            argmax = (float(x[j]), float(y[j]))
        history.append(sup)
    return sup, argmax, history


def _ratio_sample(statement: str, n: int) -> np.ndarray:
    lo, hi = _PROP33[statement][0]
    if statement == "prop33-iii":
        # stay off the diagonal: split the band around y = x
        nn = max(2, n // 2)
        return np.concatenate([np.geomspace(lo, 0.98, nn),
                               np.geomspace(1.02, hi, nn)])
    return np.geomspace(lo, hi, n)


def check_prop33(statement: str, k: int, alpha, *, nx: int = 8, ny: int = 6,
                 levels: int = 2) -> BoundCheckReport:
    """Scan one of the Laguerre-kernel estimates over its region.

    ``statement`` is one of prop33-i (y < x/2), prop33-ii-even / -ii-odd
    (y > 2x, bound depending on the parity of k), prop33-iii (comparison
    against the Hermite kernel for x/2 < y < 2x).  x runs over
    [0.05, 20].  The scan runs at ``levels`` sample densities (doubling
    each time); the sup ratios per level form the refinement history.
    """
    x_range = (0.05, 20.0)
    if statement not in _PROP33:
        raise ValueError(f"not a prop33 statement: {statement}")
    ratio_bounds, bound = _PROP33[statement]
    a = alpha_value(alpha)
    if k < 1:
        raise ValueError("k must be >= 1")
    if statement == "prop33-ii-odd" and k % 2 == 0:
        # the improved far-field decay holds for odd orders only; the
        # "even" bound below is valid (if weaker) for every order
        raise ValueError("prop33-ii-odd applies to odd k")
    _check_sampling(levels, nx=nx, ny=ny)

    def level_scan(mult):
        # one kernel call for every (x, y) pair of the level; the bound is
        # taken row by row at each x as a scalar, since a scalar's power
        # can differ from an array's in the last bit
        xs = np.geomspace(x_range[0], x_range[1], nx * mult)
        ys = np.multiply.outer(xs, _ratio_sample(statement, ny * mult))
        x, y = np.repeat(xs, ys.shape[1]), ys.ravel()
        kern = kernels.riesz_kernel_laguerre_vec(k, a, x, y)
        if statement == "prop33-iii":
            kern = kern - kernels.riesz_kernel_hermite_vec(k, k, x, y)
        bounds = np.concatenate([bound(xi, yi, a) for xi, yi in zip(xs, ys)])
        return x, y, np.abs(kern) / bounds

    sup, argmax, history = _refined_sup(level_scan, levels)
    return BoundCheckReport(
        statement=statement, k=k, alpha=a,
        sample_spec={"x_range": list(x_range), "nx": nx, "ny": ny,
                     "ratio_bounds": list(ratio_bounds),
                     "levels": levels},
        sup_ratio=sup, argmax=argmax, refinement_history=history)


def check_prop31(k: int, l: int, *, levels: int = 2) -> BoundCheckReport:
    """Scan the Hermite derivative-kernel size table: bounded for
    l <= k-2, |x-y|^(-1/2) for l = k-1, |x-y|^(-1) for l = k, at x = -1.5,
    -0.4, 0.3, 1.0, 2.0 and 6 * 2^level distances |x - y| in [1e-3, 1]."""
    x_values = (-1.5, -0.4, 0.3, 1.0, 2.0)
    dist_range = (1e-3, 1.0)
    nd = 6
    if not 0 <= l <= k or k < 1:
        raise ValueError(f"need k >= 1 and 0 <= l <= k, got k={k}, l={l}")
    _check_sampling(levels)

    def bound(d):
        if l <= k - 2:
            return np.ones_like(d)
        if l == k - 1:
            return d ** -0.5
        return 1.0 / d

    def level_scan(mult):
        # one kernel call for every (x, y) pair of the level
        dists = np.geomspace(dist_range[0], dist_range[1], nd * mult)
        x = np.repeat(x_values, 2 * len(dists))
        y = np.ravel([(v - dists, v + dists) for v in x_values])
        kern = kernels.riesz_kernel_hermite_vec(k, l, x, y)
        b = np.tile(bound(np.concatenate([dists, dists])), len(x_values))
        return x, y, np.abs(kern) / b

    sup, argmax, history = _refined_sup(level_scan, levels)
    return BoundCheckReport(
        statement="prop31-l-table", k=k, alpha=None,
        sample_spec={"l": l, "x_values": list(x_values),
                     "dist_range": list(dist_range), "nd": nd,
                     "levels": levels},
        sup_ratio=sup, argmax=argmax, refinement_history=history)


def strong_type_range(k: int, alpha, p: float) -> tuple:
    """Admissible delta interval for strong (p, p) boundedness on
    L^p(x^delta dx): the odd range is symmetric, the even range loses half
    a power on the left."""
    a = alpha_value(alpha)
    hi = (a + 1.5) * p - 1.0
    lo = -(a + 1.5) * p - 1.0 if k % 2 else -(a + 0.5) * p - 1.0
    return lo, hi


def _seeded_bump(seed: int, index: int):
    rng = np.random.default_rng([seed, index])
    radius = rng.uniform(0.15, 0.6)
    center = rng.uniform(0.1 + radius + 0.05, 10.0 - radius - 0.05)
    return operators.bump(center, radius)


def lp_scan(k: int, alpha, p: float, delta: float, family_size: int, *,
            seed: int = 0) -> LpScanReport:
    """Weighted-norm ratios ||R f_i|| / ||f_i|| over a deterministic family
    of bump functions (member i depends only on (seed, i), so growing the
    family keeps earlier members fixed), with both norms taken over
    (0, 30) and R f_i from the Laguerre expansion of f_i to degree 600.

    The expansions come from analyze_all, a few bumps to a table.  The
    images share their tables: for each term of the transform and each
    piece of weighted_norm's rule, one table serves every bump.  On each
    piece an image is the sum over the terms, in order, of x^p (d @ table),
    one whole-table product per term, so its norm is what weighted_norm
    gives for that function, bit for bit."""
    if family_size < 1:
        raise ValueError("family_size must be >= 1")
    a = alpha_value(alpha)
    tag = BasisTag("laguerre", a)
    lo, hi = strong_type_range(k, a, p)
    rule = operators._norm_rule(p, delta, (0.0, 30.0))
    bumps = [_seeded_bump(seed, i) for i in range(family_size)]
    terms = [operators._laguerre_terms(k, coeffs)
             for coeffs in analyze_all(bumps, tag, 600)]
    images = [[np.zeros_like(x) for x, _ in rule] for _ in bumps]
    # terms outside, so that one table is alive at a time; every bump has
    # the same (power, shift) sequence
    for j, (power, shift, _) in enumerate(terms[0]):
        for r, (x, _) in enumerate(rule):
            table = operators.phi_table(600, a + shift, x)
            for image, bump_terms in zip(images, terms):
                image[r] = image[r] + x**power * (bump_terms[j][2] @ table)
    ratios = [operators._norm_sum(rule, image, p, delta)
              / operators.weighted_norm(g, p, delta, (0.0, 30.0))
              for g, image in zip(bumps, images)]
    return LpScanReport(k=k, alpha=a, p=p, delta=delta,
                        ratios=[float(r) for r in ratios],
                        max_ratio=float(max(ratios)), in_range=lo < delta < hi,
                        seed=seed)
