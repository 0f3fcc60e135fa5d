"""Orthonormal Hermite and Laguerre function systems.

Provides pointwise evaluation (via normalized three-term recurrences that
keep every iterate O(1) up to degree ~200), exact first and second
derivatives, the first- and second-order differential operators acting on
smooth functions, and expansion/synthesis between point values and
spectral coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import (QuadratureRule, alpha_value, gauss_jacobi_01,
                      gauss_legendre_panels, log_gamma)

__all__ = [
    "BasisTag",
    "SpectralCoeffs",
    "SmoothFunction",
    "hermite_fn",
    "hermite_fn_table",
    "hermite_fn_deriv",
    "hermite_fn_deriv2",
    "phi_fn",
    "phi_table",
    "phi_fn_deriv",
    "phi_fn_deriv2",
    "apply_D_alpha",
    "apply_D_alpha_star",
    "apply_L_alpha",
    "apply_H",
    "analyze",
    "synthesize",
    "hermite_rule",
    "laguerre_rule",
]


@dataclass(frozen=True)
class BasisTag:
    """Which orthonormal system: Hermite functions on R or Laguerre
    functions of type alpha on (0, infinity)."""

    kind: str
    alpha: float | None = None

    def __post_init__(self):
        if self.kind not in ("hermite", "laguerre"):
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
# Hermite functions h_n
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


def hermite_fn(n: int, x):
    """Hermite function h_n(x) = (sqrt(pi) 2^n n!)^(-1/2) e^(-x^2/2) H_n(x)."""
    vals = hermite_fn_table(n, x)[n]
    return vals if np.ndim(x) else float(vals[0])


def hermite_fn_deriv(n: int, x):
    """Exact derivative h_n'(x) = -x h_n(x) + sqrt(2n) h_{n-1}(x)."""
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    tab = hermite_fn_table(n, xa)
    d = -xa * tab[n]
    if n >= 1:
        d = d + math.sqrt(2.0 * n) * tab[n - 1]
    return d if np.ndim(x) else float(d[0])


def hermite_fn_deriv2(n: int, x):
    """Second derivative via the first-derivative recurrence (not via the
    eigenvalue relation, so eigen-equation tests stay independent)."""
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    tab = hermite_fn_table(n, xa)
    d2 = (xa * xa - 1.0) * tab[n]
    if n >= 1:
        d2 = d2 - 2.0 * xa * math.sqrt(2.0 * n) * tab[n - 1]
    if n >= 2:
        d2 = d2 + math.sqrt(4.0 * n * (n - 1)) * tab[n - 2]
    return d2 if np.ndim(x) else float(d2[0])


# ---------------------------------------------------------------------------
# Laguerre functions phi_n^alpha
# ---------------------------------------------------------------------------

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


def phi_fn(n: int, alpha, x):
    """Laguerre function phi_n^alpha(x), x > 0."""
    vals = phi_table(n, alpha, x)[n]
    return vals if np.ndim(x) else float(vals[0])


def phi_fn_deriv(n: int, alpha, x):
    """Exact derivative via the product rule and the Laguerre-polynomial
    derivative recurrence:

        (phi_n^alpha)'(x) = ((alpha+1/2)/x - x) phi_n^alpha(x)
                            - 2 sqrt(n) phi_{n-1}^{alpha+1}(x).
    """
    a = alpha_value(alpha)
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    d = ((a + 0.5) / xa - xa) * phi_table(n, a, xa)[n]
    if n >= 1:
        d = d - 2.0 * math.sqrt(n) * phi_table(n - 1, a + 1.0, xa)[n - 1]
    return d if np.ndim(x) else float(d[0])


def phi_fn_deriv2(n: int, alpha, x):
    """Second derivative by differentiating the first-derivative formula."""
    a = alpha_value(alpha)
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    g = (a + 0.5) / xa - xa
    gp = -(a + 0.5) / (xa * xa) - 1.0
    d2 = gp * phi_table(n, a, xa)[n] + g * np.atleast_1d(phi_fn_deriv(n, a, xa))
    if n >= 1:
        d2 = d2 - 2.0 * math.sqrt(n) * np.atleast_1d(
            phi_fn_deriv(n - 1, a + 1.0, xa))
    return d2 if np.ndim(x) else float(d2[0])


# ---------------------------------------------------------------------------
# Smooth function handles and differential operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmoothFunction:
    """A function handle carrying analytic derivatives.

    ``deriv2`` may be omitted when only first-order operators are applied.
    """

    value: object
    deriv: object
    deriv2: object = None
    support: tuple[float, float] | None = None

    def __call__(self, x):
        return self.value(x)

    @classmethod
    def hermite(cls, n: int) -> "SmoothFunction":
        return cls(value=lambda x: hermite_fn(n, x),
                   deriv=lambda x: hermite_fn_deriv(n, x),
                   deriv2=lambda x: hermite_fn_deriv2(n, x))

    @classmethod
    def laguerre_phi(cls, n: int, alpha) -> "SmoothFunction":
        a = alpha_value(alpha)
        return cls(value=lambda x: phi_fn(n, a, x),
                   deriv=lambda x: phi_fn_deriv(n, a, x),
                   deriv2=lambda x: phi_fn_deriv2(n, a, x))


def apply_D_alpha(f: SmoothFunction, alpha, x):
    """First-order factor (-(alpha+1/2)/x + x + d/dx) applied to f at x."""
    a = alpha_value(alpha)
    x = np.asarray(x, dtype=float)
    return (-(a + 0.5) / x + x) * f.value(x) + f.deriv(x)


def apply_D_alpha_star(f: SmoothFunction, alpha, x):
    """Formal adjoint (-(alpha+1/2)/x + x - d/dx) applied to f at x.

    Only the derivative changes sign under the L^2((0,inf), dx) adjoint;
    the multiplication part is self-adjoint.
    """
    a = alpha_value(alpha)
    x = np.asarray(x, dtype=float)
    return (-(a + 0.5) / x + x) * f.value(x) - f.deriv(x)


def apply_L_alpha(f: SmoothFunction, alpha, x):
    """Laguerre operator (1/2)(-f'' + x^2 f + (alpha^2 - 1/4) f / x^2)."""
    a = alpha_value(alpha)
    x = np.asarray(x, dtype=float)
    return 0.5 * (-f.deriv2(x) + x * x * f.value(x)
                  + (a * a - 0.25) * f.value(x) / (x * x))


def apply_H(f: SmoothFunction, x):
    """Hermite operator (1/2)(-f'' + x^2 f)."""
    x = np.asarray(x, dtype=float)
    return 0.5 * (-f.deriv2(x) + x * x * f.value(x))


# ---------------------------------------------------------------------------
# Quadrature defaults, expansion and synthesis
# ---------------------------------------------------------------------------

def _capped_panels(a: float, b: float, width: float):
    """14-node Gauss-Legendre nodes/weights on [a, b] over
    max(8, ceil((b - a) / width)) equal panels."""
    panels = max(8, int(math.ceil((b - a) / width)))
    return gauss_legendre_panels(np.linspace(a, b, panels + 1), 14)


def hermite_rule(nmax: int) -> QuadratureRule:
    """Full-line rule resolving Hermite functions up to degree nmax:
    14-node Gauss-Legendre panels of width at most 0.4 on
    |x| <= sqrt(2 nmax + 1) + 5."""
    halfwidth = math.sqrt(2.0 * nmax + 1.0) + 5.0
    return QuadratureRule(*_capped_panels(-halfwidth, halfwidth, 0.4))


def laguerre_rule(alpha, nmax: int, *,
                  power: float | None = None) -> QuadratureRule:
    """Half-line rule for integrands with an x^power endpoint factor.

    Splits at 1: a 200-node power-weighted rule on (0, 1) absorbs the
    x^(alpha+1/2) behaviour of the Laguerre functions (power defaults to
    alpha + 1/2; use 2 alpha + 1 for products of two of them), then 14-node
    Gauss-Legendre panels of width at most 0.4 out to
    sqrt(4 nmax + 2 |alpha| + 6) + 4, where e^(-x^2/2) is dead.
    """
    a = alpha_value(alpha)
    if power is None:
        power = a + 0.5
    x_max = math.sqrt(4.0 * nmax + 2.0 * abs(a) + 6.0) + 4.0
    xj, wj = gauss_jacobi_01(200, power)
    xg, wg = _capped_panels(1.0, x_max, 0.4)
    return QuadratureRule(np.concatenate([xj, xg]), np.concatenate([wj, wg]))


def _basis_table(tag: BasisTag, nmax: int, x) -> np.ndarray:
    if tag.kind == "hermite":
        return hermite_fn_table(nmax, x)
    return phi_table(nmax, tag.alpha, x)


def _default_rule(tag: BasisTag, nmax: int,
                  support: tuple[float, float] | None) -> QuadratureRule:
    if support is not None:
        a, b = float(support[0]), float(support[1])
        if not a < b:
            raise ValueError(f"degenerate support [{a}, {b}]")
        # panel width tied to the shortest basis wavelength ~ 2 pi / sqrt(2 nmax)
        width = min(0.4, (b - a) / 8.0, 9.0 / math.sqrt(2.0 * nmax + 1.0))
        return QuadratureRule(*_capped_panels(a, b, width))
    if tag.kind == "hermite":
        return hermite_rule(nmax)
    return laguerre_rule(tag.alpha, nmax)


def analyze(f, tag: BasisTag, nmax: int, *,
            rule: QuadratureRule | None = None) -> SpectralCoeffs:
    """Expand a function into the first nmax+1 basis coefficients.

    A function with a ``support`` attribute has its coefficient quadrature
    restricted to that compact interval (appropriate for bump-type inputs);
    otherwise a full-domain rule resolving degree nmax is used.
    """
    if nmax < 0:
        raise ValueError("truncation must be >= 0")
    if rule is None:
        rule = _default_rule(tag, nmax, getattr(f, "support", None))
    table = _basis_table(tag, nmax, rule.nodes)
    fx = np.asarray(f(rule.nodes), dtype=float)
    return SpectralCoeffs(tag, table @ (rule.weights * fx))


def synthesize(coeffs: SpectralCoeffs, x):
    """Evaluate the truncated expansion at point(s) x."""
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    table = _basis_table(coeffs.basis, coeffs.truncation, xa)
    vals = coeffs.coeffs @ table
    return vals if np.ndim(x) else float(vals[0])
