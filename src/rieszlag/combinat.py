"""Exact rational verification of the finite combinatorial identities.

Everything in this module is computed in arbitrary-precision rational
arithmetic (``fractions.Fraction``); there are no tolerances.  Floating
point enters only when a caller converts a coefficient for numerical use.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .specfun import alpha_value

__all__ = [
    "e_coeff",
    "bracket_coeff",
    "a_sum",
    "lemma_n1_check",
    "identity_2_3_check",
    "identities_report",
]


def e_coeff(N: int, l: int) -> Fraction:
    """Coefficient E_{N,l} = 2^(N-2l) N! / (l! (N-2l)!).

    Defined for 0 <= l <= floor(N/2); these drive the chain-rule expansion
    of d^N/dx^N g(x^2).
    """
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    if not 0 <= l <= N // 2:
        raise ValueError(f"l out of range for N={N}: {l}")
    return Fraction(2 ** (N - 2 * l) * math.factorial(N),
                    math.factorial(l) * math.factorial(N - 2 * l))


def bracket_coeff(alpha, r: int) -> Fraction:
    """Asymptotic-series coefficient [alpha, r] of the modified Bessel function.

    [alpha, 0] = 1 and for r >= 1

        [alpha, r] = (4 alpha^2 - 1)(4 alpha^2 - 3^2) ... (4 alpha^2 - (2r-1)^2)
                     / (2^(2r) r!).
    """
    if r < 0:
        raise ValueError(f"r must be >= 0, got {r}")
    a = Fraction(alpha)
    num = Fraction(1)
    for i in range(1, r + 1):
        num *= 4 * a * a - (2 * i - 1) ** 2
    return num / Fraction(2 ** (2 * r) * math.factorial(r))


def a_sum(j: int, s: int) -> int:
    """Alternating binomial power sum A_{j,s} = sum_l (-1)^l C(j,l) l^s.

    Uses the convention 0^0 = 1.  A_{j,s} vanishes for s < j and equals
    (-1)^j j! at s = j.
    """
    if j < 0 or s < 0:
        raise ValueError("j and s must be nonnegative")
    total = 0
    for l in range(j + 1):
        power = 1 if (l == 0 and s == 0) else l**s
        total += (-1) ** l * math.comb(j, l) * power
    return total


def lemma_n1_check(j: int, m: int, alpha) -> Fraction:
    """Exact value of the double sum that the kernel comparison rests on.

    For j >= 1 and 0 <= m <= floor(j/2) returns

        sum_{n=0}^{m} sum_{l=2n}^{j} (-1)^(l+n) C(j,l) E_{l,n} / 2^(l-2n)
                                      * [alpha + l - n, m - n]

    which must be exactly zero.
    """
    if j < 1:
        raise ValueError(f"j must be >= 1, got {j}")
    if not 0 <= m <= j // 2:
        raise ValueError(f"m out of range for j={j}: {m}")
    a = Fraction(alpha)
    alpha_value(a)  # range check only; the sum below stays exact
    total = Fraction(0)
    for n in range(m + 1):
        for l in range(2 * n, j + 1):
            total += ((-1) ** (l + n) * math.comb(j, l)
                      * e_coeff(l, n) / Fraction(2 ** (l - 2 * n))
                      * bracket_coeff(a + l - n, m - n))
    return total


# -- dense polynomials over Fraction, used by the derivative identity -------

def _poly_diff(coeffs: list[Fraction]) -> list[Fraction]:
    return [Fraction(i) * coeffs[i] for i in range(1, len(coeffs))] or [Fraction(0)]

def _poly_diff_n(coeffs: list[Fraction], n: int) -> list[Fraction]:
    for _ in range(n):
        coeffs = _poly_diff(coeffs)
    return coeffs

def _poly_compose_square(coeffs: list[Fraction]) -> list[Fraction]:
    # p(u) -> p(x^2): interleave zero coefficients
    out = [Fraction(0)] * (2 * len(coeffs) - 1)
    out[::2] = coeffs
    return out

def _poly_shift_add(acc: list[Fraction], coeffs: list[Fraction], shift: int,
                    scale: Fraction) -> list[Fraction]:
    need = shift + len(coeffs)
    if len(acc) < need:
        acc = acc + [Fraction(0)] * (need - len(acc))
    for i, c in enumerate(coeffs):
        acc[shift + i] += scale * c
    return acc


def identity_2_3_check(N: int, q: int) -> Fraction:
    """Residual of the chain-rule expansion of d^N/dx^N [g(x^2)] for g(u) = u^q.

    Both sides are exact polynomials in x with rational coefficients; the
    return value is the maximum absolute coefficient of their difference
    (zero when the identity holds).
    """
    if N < 0 or q < 0:
        raise ValueError("N and q must be nonnegative")
    g = [Fraction(0)] * q + [Fraction(1)]          # u^q
    lhs = _poly_diff_n(_poly_compose_square(g), N)  # d^N/dx^N x^(2q)
    rhs: list[Fraction] = [Fraction(0)]
    for l in range(N // 2 + 1):
        dg = _poly_diff_n(g, N - l)                 # (d^{N-l} g)(u)
        rhs = _poly_shift_add(rhs, _poly_compose_square(dg), N - 2 * l,
                              e_coeff(N, l))
    width = max(len(lhs), len(rhs))
    lhs += [Fraction(0)] * (width - len(lhs))
    rhs += [Fraction(0)] * (width - len(rhs))
    return max((abs(a - b) for a, b in zip(lhs, rhs)), default=Fraction(0))


# Type parameters at which lemma N1 is checked.
_REPORT_ALPHAS = (Fraction(-1, 2), Fraction(0), Fraction(1, 3), Fraction(2),
                  Fraction(9, 4))


def identities_report(jmax_a: int = 15, jmax_n1: int = 12, nmax_23: int = 8,
                      qmax_23: int = 8) -> list[dict]:
    """Run the full exact identity suite and return JSON-ready entries.

    Each entry carries ``identity``, ``parameters``, ``status`` (either
    "exact-pass" or "fail") and a ``witness`` (the exact residual as a
    string).  Lemma N1 is checked at alpha = -1/2, 0, 1/3, 2 and 9/4.
    """
    entries = []

    def record(identity, parameters, residual):
        entries.append({
            "identity": identity,
            "parameters": parameters,
            "status": "exact-pass" if residual == 0 else "fail",
            "witness": str(residual),
        })

    for j in range(1, jmax_a + 1):
        for s in range(j):
            record("A[j,s]=0 for s<j", {"j": j, "s": s}, Fraction(a_sum(j, s)))
        record("A[j,j]=(-1)^j j!", {"j": j},
               Fraction(a_sum(j, j) - (-1) ** j * math.factorial(j)))
        if j >= 1:
            record("A[j,j]=-j*A[j-1,j-1]", {"j": j},
                   Fraction(a_sum(j, j) + j * a_sum(j - 1, j - 1)))
    for j in range(1, jmax_n1 + 1):
        for m in range(j // 2 + 1):
            for a in _REPORT_ALPHAS:
                record("lemma-N1", {"j": j, "m": m, "alpha": str(a)},
                       lemma_n1_check(j, m, a))
    for N in range(nmax_23 + 1):
        for q in range(qmax_23 + 1):
            record("derivative-of-g(x^2)", {"N": N, "q": q},
                   identity_2_3_check(N, q))
    if not entries:
        raise ValueError("the identity report has no entries")
    return entries
