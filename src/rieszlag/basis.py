"""Orthonormal Hermite and Laguerre function systems.

Provides the tables of point values h_0..h_N and phi_0^alpha..phi_N^alpha
by normalized three-term recurrences, and expansion/synthesis between
point values and spectral coefficients.  ``KINDS`` names the two systems.
Expansion takes compactly supported functions only: it integrates over
``f.support``.

The recurrences start from the seed e^(-x^2/2), which underflows to 0 at
|x| >~ 38.6; from there on every degree evaluates to exactly 0, however
large the true value.
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
    "synthesize",
]


KINDS = ("hermite", "laguerre")


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

    @property
    def tail_bound(self) -> float:
        """Crude truncation indicator |c_N| + |c_{N-1}|."""
        c = self.coeffs
        return float(abs(c[-1]) + (abs(c[-2]) if len(c) > 1 else 0.0))


# ---------------------------------------------------------------------------
# Tables of Hermite functions h_n and Laguerre functions phi_n^alpha
# ---------------------------------------------------------------------------

def hermite_fn_table(nmax: int, x) -> np.ndarray:
    """Values h_0(x)..h_nmax(x); shape (nmax+1, len(x)).

    Uses the normalized recurrence
    h_{n+1} = sqrt(2/(n+1)) x h_n - sqrt(n/(n+1)) h_{n-1},
    stable because every iterate stays O(1).
    """
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((nmax + 1, x.size))
    out[0] = math.pi ** -0.25 * np.exp(-0.5 * x * x)
    if nmax >= 1:
        out[1] = math.sqrt(2.0) * x * out[0]
    for n in range(1, nmax):
        out[n + 1] = (math.sqrt(2.0 / (n + 1)) * x * out[n]
                      - math.sqrt(n / (n + 1.0)) * out[n - 1])
    return out


def phi_table(nmax: int, alpha, x) -> np.ndarray:
    """Values phi_0^alpha(x)..phi_nmax^alpha(x); shape (nmax+1, len(x)).

    phi_n^alpha(x) = (2 n! / Gamma(n+alpha+1))^(1/2) e^(-x^2/2)
                     x^(alpha+1/2) L_n^alpha(x^2),
    evaluated by the normalized recurrence; the n = 0 seed is formed in log
    space so large |alpha| and small x cannot overflow.
    """
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    a = alpha_value(alpha)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.size and not np.all(x > 0.0):
        raise ValueError("Laguerre functions live on x > 0")
    out = np.empty((nmax + 1, x.size))
    x2 = x * x
    out[0] = np.exp(0.5 * (math.log(2.0) - log_gamma(a + 1.0))
                    + (a + 0.5) * np.log(x) - 0.5 * x2)
    if nmax >= 1:
        out[1] = (1.0 + a - x2) / math.sqrt(1.0 + a) * out[0]
    for n in range(1, nmax):
        c1 = (2 * n + 1 + a - x2) / math.sqrt((n + 1.0) * (n + 1.0 + a))
        c2 = math.sqrt(n * (n + a) / ((n + 1.0) * (n + 1.0 + a)))
        out[n + 1] = c1 * out[n] - c2 * out[n - 1]
    return out


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


def analyze(f, tag: BasisTag, nmax: int) -> SpectralCoeffs:
    """Expand a compactly supported function into the first nmax+1 basis
    coefficients.

    ``f.support = (a, b)`` is the interval outside which f is 0; a function
    without that attribute raises.  The coefficient integrals use 14-node
    Gauss-Legendre panels on [a, b], at least 8 of them, each no wider
    than min(0.4, (b - a)/8, 9/sqrt(2 nmax + 1)).
    """
    if nmax < 0:
        raise ValueError("truncation must be >= 0")
    a, b = _support_of(f)
    if not a < b:
        raise ValueError(f"degenerate support [{a}, {b}]")
    # panel width tied to the shortest basis wavelength ~ 2 pi / sqrt(2 nmax)
    width = min(0.4, (b - a) / 8.0, 9.0 / math.sqrt(2.0 * nmax + 1.0))
    panels = max(8, int(math.ceil((b - a) / width)))
    nodes, weights = gauss_legendre_panels(np.linspace(a, b, panels + 1), 14)
    table = _basis_table(tag, nmax, nodes)
    fx = np.asarray(f(nodes), dtype=float)
    return SpectralCoeffs(tag, table @ (weights * fx))


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
