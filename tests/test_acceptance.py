"""Acceptance criteria.

One test per criterion (criterion 7 is split per order), each printing a
pass/fail line; run with ``pytest -s tests/test_acceptance.py`` to see the
lines.  Criterion 7's order-4 expectation is asserted exactly as stated
even though the implemented formula provably converges to the opposite
sign; see the decisions ledger accompanying the build for the analysis.
"""

import json
import math
import time
import warnings

import numpy as np
import pytest

from rieszlag import basis as bs
from rieszlag import combinat as cb
from rieszlag import kernels as kn
from rieszlag import operators as op
from rieszlag import verify as vf
from rieszlag.cli import main as cli_main
from rieszlag.kernels import KernelSpec
from conftest import mp_heat_series


def _report(num, name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    return ok


def test_criterion_1_exact_identity_suite():
    start = time.monotonic()
    ok = True
    for j in range(1, 16):
        for s in range(j):
            ok = ok and cb.a_sum(j, s) == 0
        ok = ok and cb.a_sum(j, j) == (-1) ** j * math.factorial(j)
    from fractions import Fraction
    alphas = [Fraction(-1, 2), Fraction(0), Fraction(1, 3), Fraction(2),
              Fraction(9, 4)]
    for j in range(1, 13):
        for m in range(j // 2 + 1):
            for a in alphas:
                ok = ok and cb.lemma_n1_check(j, m, a) == 0
    for n in range(9):
        for q in range(9):
            ok = ok and cb.identity_2_3_check(n, q) == 0
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 5.0
    assert _report(1, "exact identity suite", ok, f"{elapsed:.2f}s")


def test_criterion_2_mehler_equivalence():
    # The series oracle is summed well past the stated 80 terms: at t = 0.1
    # with separated (x, y) the 80-term truncation error (~1e-5 absolute)
    # dwarfs both the kernel and the 1e-8 tolerance, so more terms (and
    # high-precision partial sums) are required for the oracle to be valid;
    # see the decisions ledger.
    start = time.monotonic()
    pts = [0.2, 0.7, 1.0, 2.0, 4.0]
    ts = [0.1, 0.5, 1.0, 2.0]
    worst = 0.0
    for t in ts:
        for x in pts:
            for y in pts:
                ref = mp_heat_series(t, x, y, nmax=1000, dps=60)
                got = float(kn.heat_kernel_hermite(t, x, y))
                worst = max(worst, abs(got - ref) / abs(ref))
    for alpha in (-0.5, 0.0, 1.3):
        for t in ts:
            for x in pts:
                for y in pts:
                    ref = mp_heat_series(t, x, y, nmax=600, dps=60,
                                         alpha=alpha)
                    got = float(kn.heat_kernel_laguerre(t, x, y, alpha))
                    worst = max(worst, abs(got - ref) / abs(ref))
    elapsed = time.monotonic() - start
    ok = worst < 1e-8 and elapsed < 30.0
    assert _report(2, "Mehler closed form vs converged spectral series", ok,
                   f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_derivative_kernel_routes():
    worst = 0.0
    for k in (1, 2, 3):
        for alpha in (0.0, 0.5, 2.0):
            for t in (0.3, 1.0, 2.5):
                for x in (0.5, 1.0, 2.0):
                    for y in (0.6, 1.1, 1.8):
                        d1, d2 = kn.d_alpha_pow_k_heat_pair(k, t, x, y, alpha)
                        worst = max(worst, abs(d1 - d2)
                                    / max(abs(d1), abs(d2)))
    ok = worst < 1e-10
    assert _report(3, "two derivative-kernel routes agree", ok,
                   f"max rel disagreement {worst:.2e}")


def test_criterion_4_hermite_spectral_constants():
    worst = 0.0
    for k in (1, 2, 3):
        for n in range(13):
            c = np.zeros(14)
            c[n] = 1.0
            out = op.riesz_spectral_hermite(
                k, bs.SpectralCoeffs(bs.BasisTag("hermite"), c))
            if n < k:
                got = float(np.abs(out.coeffs).max())
                worst = max(worst, got)
                continue
            falling = 1.0
            for i in range(k):
                falling *= n - i
            expected = 2.0 ** (0.5 * k) * math.sqrt(falling) \
                / (n + 0.5) ** (0.5 * k)
            got = float(out.coeffs[n - k])
            worst = max(worst, abs(got - expected))
    ok = worst < 1e-12
    assert _report(4, "Hermite Riesz multipliers", ok, f"max err {worst:.2e}")


def test_criterion_5_hermite_pv_equals_spectral():
    start = time.monotonic()
    f = op.bump(0.0, 1.0)
    coeffs = bs.analyze(f, bs.BasisTag("hermite"), 1600)
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", kn.KernelAgreementWarning)
        for k in (1, 2, 3):
            out = op.riesz_spectral_hermite(k, coeffs)
            for x in (-0.6, -0.25, 0.1, 0.45, 0.8):
                spectral = bs.synthesize(out, x)
                pv = op.pv_apply(KernelSpec("hermite-riesz", k=k), f, x,
                                 stages=10)
                worst = max(worst, abs(pv.total - spectral)
                            / (1.0 + abs(spectral)))
    elapsed = time.monotonic() - start
    ok = worst < 1e-3 and elapsed < 120.0
    assert _report(5, "Hermite principal value = spectral", ok,
                   f"max scaled diff {worst:.2e}, {elapsed:.1f}s")


def test_criterion_6_laguerre_pv_equals_spectral():
    start = time.monotonic()
    f = op.bump(1.25, 0.75)
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", kn.KernelAgreementWarning)
        for alpha in (0.0, 0.5, 2.0):
            tag = bs.BasisTag("laguerre", alpha)
            coeffs = bs.analyze(f, tag, 800)
            for k in (1, 2):
                for x in (0.7, 1.0, 1.3, 1.6, 1.9):
                    spectral = op.riesz_apply_laguerre_spectral(
                        k, coeffs, x, tail_tol=1e-3)
                    pv = op.pv_apply(
                        KernelSpec("laguerre-riesz", k=k, alpha=alpha), f, x,
                        stages=10)
                    worst = max(worst, abs(pv.total - spectral)
                                / (1.0 + abs(spectral)))
    elapsed = time.monotonic() - start
    ok = worst < 1e-3 and elapsed < 300.0
    assert _report(6, "Laguerre principal value = spectral", ok,
                   f"max scaled diff {worst:.2e}, {elapsed:.1f}s")


def test_criterion_7a_phi_limit_k2():
    rep = op.phi_limit(2)
    ok = abs(rep["extrapolated"] - (-1.0)) < 1e-4
    assert _report("7a", "boundary-function limit, order 2 -> -1", ok,
                   f"extrapolated {rep['extrapolated']:.8f}")


def test_criterion_7b_phi_limit_k4_as_stated():
    # The stated target is -2.  The implemented formula (independently
    # cross-checked in high precision and in closed form) converges to +2:
    # the sign of the limit alternates with k/2.  Asserted as stated; the
    # failure is expected and analyzed in the decisions ledger.
    rep = op.phi_limit(4)
    ok = abs(rep["extrapolated"] - (-2.0)) < 1e-4
    _report("7b", "boundary-function limit, order 4 -> -2 as stated", ok,
            f"extrapolated {rep['extrapolated']:.8f}, "
            f"closed form {rep['closed_form']:.1f}")
    assert ok, (
        "the order-4 limit of the stated integral is +2, not -2; "
        "see decisions ledger (sign alternates as (-1)^(k/2) 2^(k/2-1))")


def test_criterion_8_bound_scans():
    start = time.monotonic()
    ok = True
    details = []
    for k in (1, 2):
        statements = ["prop33-i", "prop33-iii",
                      "prop33-ii-odd" if k % 2 else "prop33-ii-even"]
        for alpha in (-0.5, 0.0, 2.0):
            for st in statements:
                rep = vf.check_prop33(st, k, alpha, nx=6, ny=5, levels=2)
                good = rep.stable and math.isfinite(rep.sup_ratio)
                ok = ok and good
                if not good:
                    details.append(f"{st} k={k} a={alpha}")
    elapsed = time.monotonic() - start
    assert _report(8, "kernel bound scans stable", ok,
                   f"{elapsed:.1f}s" + ("; failing: " + ", ".join(details)
                                        if details else ""))


def test_criterion_9_lp_scan_uniformity():
    start = time.monotonic()
    ok = True
    details = []
    for k in (1, 2):
        small = vf.lp_scan(k, 0.0, 2.0, 0.0, 20, seed=1)
        large = vf.lp_scan(k, 0.0, 2.0, 0.0, 40, seed=1)
        change = abs(large.max_ratio - small.max_ratio) / small.max_ratio
        good = small.in_range and change < 0.10
        ok = ok and good
        details.append(f"k={k}: max {small.max_ratio:.4f} -> "
                       f"{large.max_ratio:.4f} ({100 * change:.1f}%)")
    elapsed = time.monotonic() - start
    assert _report(9, "weighted-norm ratio family doubling", ok,
                   "; ".join(details) + f", {elapsed:.1f}s")


_DETERMINISM_JOBS = [
    ["identities", "--jmax", "6", "--jmax-n1", "5", "--nmax", "5",
     "--qmax", "5", "--out", "{d}/identities.json"],
    ["kernel-table", "--family", "laguerre-riesz", "--k", "1", "--alpha",
     "0.5", "--x", "1.0", "--y", "0.5,2.0", "--out", "{d}/kernel.csv"],
    ["riesz", "--family", "hermite", "--k", "1", "--points", "2",
     "--stages", "8", "--out", "{d}/riesz.csv"],
    ["lp-scan", "--k", "1", "--alpha", "0.0", "--p", "2.0", "--delta", "0.0",
     "--family-size", "4", "--seed", "3", "--out", "{d}/lp.json",
     "--threads", "{threads}"],
    ["scan-bounds", "--statement", "prop33-i", "--k", "1", "--alpha", "0.5",
     "--nx", "4", "--ny", "3", "--out", "{d}/bounds.json",
     "--threads", "{threads}"],
    ["phi-limit", "--k", "2", "--out", "{d}/phi.json"],
    ["basis", "--family", "laguerre", "--alpha", "0.5", "--n", "2",
     "--points", "40", "--out", "{d}/basis.csv"],
]


def test_criterion_10_determinism(tmp_path):
    start = time.monotonic()
    dirs = {}
    for name, threads in (("one", 1), ("two", 3)):
        d = tmp_path / name
        d.mkdir()
        for job in _DETERMINISM_JOBS:
            argv = [tok.format(d=d, threads=threads) for tok in job]
            assert cli_main(argv) == 0
        dirs[name] = d
    ok = True
    mism = []
    for artifact in sorted(p.name for p in dirs["one"].iterdir()):
        b1 = (dirs["one"] / artifact).read_bytes()
        b2 = (dirs["two"] / artifact).read_bytes()
        if b1 != b2:
            ok = False
            mism.append(artifact)
    elapsed = time.monotonic() - start
    assert _report(10, "byte-identical artifacts across runs/threads", ok,
                   f"{len(_DETERMINISM_JOBS)} artifacts, {elapsed:.1f}s"
                   + ("; mismatched: " + ", ".join(mism) if mism else ""))
