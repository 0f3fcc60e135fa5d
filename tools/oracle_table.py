"""Print the principal-value route's error against exact answers, per
family, alpha and k.

    python3 tools/oracle_table.py --tree ../parent

The input is a finite expansion f = sum_{n <= N} c_n h_n (Hermite, N = 6)
or sum c_n phi_n^alpha (Laguerre, N = 5), with c_n = N(0, 1)/(n + 1) drawn
from seed 0.  Its spectral image is exact to rounding, so the error of
pv_apply is measured against exact answers.  f's support is (-13, 13) or
(1e-8, 13), where it is negligible.  For Hermite, and for Laguerre at alpha
0, 0.5 and 2, each at k = 1..4, the table gives the largest |pv - exact|
and the largest err_estimate of pv_apply at 10 stages over four points:
-2, -0.5, 1 and 2.5 (Hermite), 0.5, 1.5, 3 and 5 (Laguerre).
TestFiniteExpansionOracle in tests/test_operators.py checks its bounds on
these rows.

--tree names a source checkout; its src/ is imported, so two trees give
their before and after tables.  Running all 16 rows takes a few seconds.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

import numpy as np

ALPHAS = (0.0, 0.5, 2.0)
KS = (1, 2, 3, 4)
# (degree, support, points) of each family's expansion
HERMITE = (6, (-13.0, 13.0), (-2.0, -0.5, 1.0, 2.5))
LAGUERRE = (5, (1e-8, 13.0), (0.5, 1.5, 3.0, 5.0))


def expansion(tag, degree: int, support: tuple):
    """(coeffs, f): the seeded coefficients N(0, 1)/(n + 1), n <= degree,
    and their synthesis with its support attribute."""
    from rieszlag import basis

    c = np.random.default_rng(0).standard_normal(degree + 1)
    coeffs = basis.SpectralCoeffs(tag, c / np.arange(1, degree + 2))

    def f(y):
        return basis.synthesize(coeffs, y)

    f.support = support
    return coeffs, f


def table(stages: int = 10, ks=KS, alphas=ALPHAS):
    """Rows (family, alpha, k, max |pv - exact|, max err_estimate): the
    Hermite rows, then the Laguerre rows of each alpha."""
    from rieszlag import basis, operators
    from rieszlag.kernels import KernelSpec

    rows = []
    for alpha in [None, *alphas]:
        family = "hermite" if alpha is None else "laguerre"
        degree, support, points = HERMITE if alpha is None else LAGUERRE
        coeffs, f = expansion(basis.BasisTag(family, alpha), degree, support)
        x = np.array(points)
        for k in ks:
            if alpha is None:
                spec = KernelSpec("hermite-riesz", k=k)
                exact = basis.synthesize(
                    operators.riesz_spectral_hermite(k, coeffs), x)
            else:
                spec = KernelSpec("laguerre-riesz", k=k, alpha=alpha)
                # the expansion ends at its degree: no tail is truncated
                exact = operators.riesz_apply_laguerre_spectral(
                    k, coeffs, x, tail_tol=np.inf)
            # Laguerre k = 4 warns that its answer is unsettled; the table
            # shows it
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                pv = [operators.pv_apply(spec, f, float(xi), stages=stages)
                      for xi in x]
            rows.append((family, alpha, k,
                         max(abs(r.total - e) for r, e in zip(pv, exact)),
                         max(r.err_estimate for r in pv)))
    return rows


def format_table(rows) -> str:
    lines = ["family    alpha  k  max|pv-exact|  max err_estimate"]
    for family, alpha, k, err, est in rows:
        shown = "" if alpha is None else f"{alpha:g}"
        lines.append(f"{family:<9} {shown:>5}  {k}  {err:13.2e}  {est:16.2e}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=Path, default=Path("."),
                        help="source checkout whose src/ is imported")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.tree.resolve() / "src"))
    sys.stdout.write(format_table(table()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
