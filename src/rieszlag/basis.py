"""Orthonormal Hermite and Laguerre function systems.

Provides the tables of point values h_0..h_N and phi_0^alpha..phi_N^alpha
by normalized three-term recurrences, and expansion/synthesis between
point values and spectral coefficients.  ``KINDS`` names the two systems.
A table is built in place: one broadcast operation writes each degree's
x-dependent factor into the row it will become, and the recurrence then
costs three ufunc calls per degree, whatever the table's width.  Every
entry is elementwise in x, so a point's column does not depend on the
other points of the table; this is what lets analyze_all share one table
among several functions, analyze_at serve a function's coefficients and
its values at other points from one recurrence, and synthesize give each
point its one-point bits.  Expansion takes compactly supported functions
only: it integrates over ``f.support``.

The recurrences start from the seed e^(-x^2/2), which is subnormal from
|x| ~ 37.6 and 0 from about 38.7.  Wrong values come first: at degree 1600
the Hermite value is off by 3.1e-12 relative at x = 37.9, 8.4e-11 at 38.0,
1.5e-2 at 38.5 and 1.3 at 38.6.  From 38.7 every degree is exactly 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# gauss_jacobi_01 has no use here; it stays imported because the benchmark
# tracer (bench/spans.py) wraps basis.gauss_jacobi_01 by name
from .specfun import (alpha_value, gauss_jacobi_01, gauss_legendre_panels,
                      log_gamma)

__all__ = [
    "KINDS",
    "BasisTag",
    "SpectralCoeffs",
    "hermite_fn_table",
    "phi_table",
    "analyze",
    "analyze_all",
    "analyze_at",
    "synthesize",
]


KINDS = ("hermite", "laguerre")

# The most points analyze_all evaluates in one table.  A 20-bump lp-scan
# (112 nodes a bump, degree 600) keeps its peak memory at 256 columns; at
# 480 or 2240 columns its analysis ran faster still, but its peak resident
# memory rose by 4 and 8.5 MB.
_TABLE_COLUMNS = 256


@dataclass(frozen=True)
class BasisTag:
    """Which orthonormal system: Hermite functions on R or Laguerre
    functions of type alpha on (0, infinity)."""

    kind: str
    alpha: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown basis kind: {self.kind}")
        if self.kind == "laguerre":
            if self.alpha is None:
                raise ValueError("laguerre basis requires alpha")
            object.__setattr__(self, "alpha", alpha_value(self.alpha))
        elif self.alpha is not None:
            raise ValueError("hermite basis takes no alpha")

    def eigenvalue(self, n) -> np.ndarray:
        """Eigenvalue of the generating operator on basis element n."""
        n = np.asarray(n, dtype=float)
        if self.kind == "hermite":
            return n + 0.5
        return 2.0 * n + self.alpha + 1.0


@dataclass(frozen=True)
class SpectralCoeffs:
    """Truncated coefficient vector of a function in a named basis."""

    basis: BasisTag
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coeffs must be a nonempty 1-d vector")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coeffs", c)

    @property
    def truncation(self) -> int:
        return len(self.coeffs) - 1


# ---------------------------------------------------------------------------
# Tables of Hermite functions h_n and Laguerre functions phi_n^alpha
# ---------------------------------------------------------------------------

def _finite_points(x) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(x)):
        raise ValueError("basis functions are evaluated at finite x only")
    return x


def _three_term(out: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """Run a normalized three-term recurrence in place.

    On entry row 0 holds the seed and row n + 1 holds the factor c1_n(x);
    on exit row n + 1 holds c1_n(x) row_n - c2[n] row_{n-1}, multiplied
    and subtracted in that order (row 1 is c1_0(x) row_0).  Three ufunc
    calls per degree and no allocation in the loop.
    """
    if len(out) > 1:
        out[1] *= out[0]
    tmp = np.empty(out.shape[1])
    for row, prev, prev2, c in zip(out[2:], out[1:-1], out[:-2],
                                   c2[1:].tolist()):
        row *= prev
        np.multiply(c, prev2, out=tmp)
        row -= tmp
    return out


def hermite_fn_table(nmax: int, x) -> np.ndarray:
    """Values h_0(x)..h_nmax(x); shape (nmax+1, len(x)).

    Uses the normalized recurrence
    h_{n+1} = sqrt(2/(n+1)) x h_n - sqrt(n/(n+1)) h_{n-1},
    stable because every iterate stays O(1).  x must be finite.
    """
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    x = _finite_points(x)
    out = np.empty((nmax + 1, x.size))
    out[0] = math.pi ** -0.25 * np.exp(-0.5 * x * x)
    n = np.arange(nmax)
    np.multiply.outer(np.sqrt(2.0 / (n + 1)), x, out=out[1:])
    return _three_term(out, np.sqrt(n / (n + 1.0)))


def phi_table(nmax: int, alpha, x) -> np.ndarray:
    """Values phi_0^alpha(x)..phi_nmax^alpha(x); shape (nmax+1, len(x)).

    phi_n^alpha(x) = (2 n! / Gamma(n+alpha+1))^(1/2) e^(-x^2/2)
                     x^(alpha+1/2) L_n^alpha(x^2),
    evaluated by the normalized recurrence
    phi_{n+1} = (2n+1+alpha-x^2) / sqrt((n+1)(n+1+alpha)) phi_n
                - sqrt(n(n+alpha) / ((n+1)(n+1+alpha))) phi_{n-1};
    the n = 0 seed is formed in log space so large |alpha| and small x
    cannot overflow.  x must be finite and > 0.
    """
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    a = alpha_value(alpha)
    x = _finite_points(x)
    if not np.all(x > 0.0):
        raise ValueError("Laguerre functions live on x > 0")
    out = np.empty((nmax + 1, x.size))
    x2 = x * x
    out[0] = np.exp(0.5 * (math.log(2.0) - log_gamma(a + 1.0))
                    + (a + 0.5) * np.log(x) - 0.5 * x2)
    n = np.arange(nmax)
    np.subtract.outer(2 * n + 1 + a, x2, out=out[1:])
    norm = (n + 1.0) * (n + 1.0 + a)
    out[1:] /= np.sqrt(norm)[:, None]
    return _three_term(out, np.sqrt(n * (n + a) / norm))


# ---------------------------------------------------------------------------
# Expansion and synthesis
# ---------------------------------------------------------------------------

def _basis_table(tag: BasisTag, nmax: int, x) -> np.ndarray:
    if tag.kind == "hermite":
        return hermite_fn_table(nmax, x)
    return phi_table(nmax, tag.alpha, x)


def _support_of(f):
    """The interval (a, b) of ``f.support``, outside which f is 0."""
    support = getattr(f, "support", None)
    if support is None:
        raise ValueError("f has no support attribute (a, b)")
    return float(support[0]), float(support[1])


def _analysis_rule(f, nmax: int):
    """analyze's nodes and weights on ``f.support``."""
    a, b = _support_of(f)
    if not a < b:
        raise ValueError(f"degenerate support [{a}, {b}]")
    # panel width tied to the shortest basis wavelength ~ 2 pi / sqrt(2 nmax)
    width = min(0.4, (b - a) / 8.0, 9.0 / math.sqrt(2.0 * nmax + 1.0))
    panels = max(8, int(math.ceil((b - a) / width)))
    return gauss_legendre_panels(np.linspace(a, b, panels + 1), 14)


def _analyze_group(tag: BasisTag, nmax: int, fs, rules, x) -> tuple:
    """The coefficients of each function of ``fs``, and the table at x, from
    one basis table over the functions' nodes in order followed by x.

    Each function's coefficients are one product of its columns of the
    table, taken as a strided view (no copy), with its weighted values.  A
    strided view and a contiguous copy of the same columns give the same
    product, bit for bit, and the recurrences are elementwise in x, so the
    coefficients are those of a table over the function's nodes alone.
    The table at x is a view that keeps the whole table alive.
    """
    table = _basis_table(tag, nmax, np.concatenate(
        [nodes for nodes, _ in rules] + [x]))
    coeffs, start = [], 0
    for f, (nodes, weights) in zip(fs, rules):
        cols = table[:, start:start + nodes.size]
        start += nodes.size
        fx = np.asarray(f(nodes), dtype=float)
        coeffs.append(SpectralCoeffs(tag, cols @ (weights * fx)))
    return coeffs, table[:, start:]


def analyze_all(fs, tag: BasisTag, nmax: int) -> list:
    """analyze for each function of ``fs``, in order, with shared tables.

    The functions are taken in order into groups whose nodes together are
    at most _TABLE_COLUMNS; a group's nodes share one basis table (a
    function with more nodes than that has a table of its own), and each
    function's coefficients are those of analyze(f, tag, nmax), bit for bit
    (see _analyze_group).
    """
    if nmax < 0:
        raise ValueError("truncation must be >= 0")
    fs = list(fs)
    rules = [_analysis_rule(f, nmax) for f in fs]
    groups, width = [], 0
    for i, (nodes, _) in enumerate(rules):
        if groups and width + nodes.size <= _TABLE_COLUMNS:
            groups[-1].append(i)
            width += nodes.size
        else:
            groups.append([i])
            width = nodes.size
    coeffs = []
    for members in groups:
        coeffs += _analyze_group(tag, nmax, [fs[i] for i in members],
                                 [rules[i] for i in members], np.empty(0))[0]
    return coeffs


def analyze_at(f, tag: BasisTag, nmax: int, x) -> tuple:
    """(analyze(f, tag, nmax), the table h_0..h_nmax or phi_0..phi_nmax at
    x) from one recurrence over f's analysis nodes followed by x.

    Both keep their bits: the coefficients are analyze's, and a point's
    column is that of a one-point table (see _analyze_group).  The table at
    x, shape (nmax+1, len(x)), is a view into the shared table, so the
    node columns live as long as it does.
    """
    if nmax < 0:
        raise ValueError("truncation must be >= 0")
    rule = _analysis_rule(f, nmax)
    coeffs, at_x = _analyze_group(tag, nmax, [f], [rule],
                                  np.atleast_1d(np.asarray(x, dtype=float)))
    return coeffs[0], at_x


def analyze(f, tag: BasisTag, nmax: int) -> SpectralCoeffs:
    """Expand a compactly supported function into the first nmax+1 basis
    coefficients.

    ``f.support = (a, b)`` is the interval outside which f is 0; a function
    without that attribute raises.  The coefficient integrals use 14-node
    Gauss-Legendre panels on [a, b], at least 8 of them, each no wider
    than min(0.4, (b - a)/8, 9/sqrt(2 nmax + 1)).
    """
    return analyze_all([f], tag, nmax)[0]


def _column_dots(c: np.ndarray, table: np.ndarray) -> np.ndarray:
    """c @ column for each column of a basis table, each its own contiguous
    1-D dot product.  A point's value is then the same, bit for bit,
    whatever other points share the table (the recurrences are
    elementwise); a product over the whole table would sum in an order that
    depends on the number of points."""
    return np.array([c @ column for column in np.ascontiguousarray(table.T)])


def synthesize(coeffs: SpectralCoeffs, x):
    """Evaluate the truncated expansion at point(s) x.

    One table serves every x, and each point's value is the same, bit for
    bit, whatever other points share the call (see _column_dots).
    """
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    vals = _column_dots(coeffs.coeffs,
                        _basis_table(coeffs.basis, coeffs.truncation, xa))
    return vals if np.ndim(x) else float(vals[0])
