"""Exact rational verification of the finite combinatorial identities.

Everything in this module is computed in arbitrary-precision rational
arithmetic (``fractions.Fraction``); there are no tolerances.  Floating
point enters only when a caller converts a coefficient for numerical use.
The chain-rule expansion of d^N/dx^N g(x^2) is checked on the monomials
g(u) = u^q, where both sides are falling factorials times x^(2q-N).
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
    num = math.prod((4 * a * a - (2 * i - 1) ** 2 for i in range(1, r + 1)),
                    start=Fraction(1))
    return num / Fraction(2 ** (2 * r) * math.factorial(r))


def a_sum(j: int, s: int) -> int:
    """Alternating binomial power sum A_{j,s} = sum_l (-1)^l C(j,l) l^s.

    Uses the convention 0^0 = 1.  A_{j,s} vanishes for s < j and equals
    (-1)^j j! at s = j.
    """
    if j < 0 or s < 0:
        raise ValueError("j and s must be nonnegative")
    return sum((-1) ** l * math.comb(j, l) * l**s for l in range(j + 1))


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


def identity_2_3_check(N: int, q: int) -> Fraction:
    """Residual of the chain-rule expansion of d^N/dx^N [g(x^2)] for g(u) = u^q.

    Both sides are one multiple of x^(2q-N): the falling factorial (2q)_N
    on the left and sum_l E_{N,l} (q)_{N-l} on the right, with (n)_m =
    n!/(n-m)! and 0 for m > n.  The return value is the absolute
    difference of the two multiples (zero when the identity holds).
    """
    if N < 0 or q < 0:
        raise ValueError("N and q must be nonnegative")
    return abs(math.perm(2 * q, N) - sum(e_coeff(N, l) * math.perm(q, N - l)
                                         for l in range(N // 2 + 1)))


# Type parameters at which lemma N1 is checked.
_REPORT_ALPHAS = (Fraction(-1, 2), Fraction(0), Fraction(1, 3), Fraction(2),
                  Fraction(9, 4))


def identities_report(jmax_a: int, jmax_n1: int, nmax_23: int,
                      qmax_23: int) -> list[dict]:
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
