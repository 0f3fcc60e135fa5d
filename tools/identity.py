"""Check that two source trees give the same CLI output and library values,
bit for bit.

    python3 tools/identity.py --parent ../parent --change .

Each tree is a source checkout with its own src/.  One subprocess per tree
imports that tree's rieszlag, evaluates every item and prints one SHA-256
digest per item over the exact bytes of what it returned (arrays by dtype,
shape and buffer, floats by their IEEE bits) and the category and text of
every warning it raised; a raise is part of the result.  The items that
differ are listed by name, and the exit code is 1 if any do.

Each differing item also gets a value report.  Every number it holds is
taken in order: the entries of its arrays and floats, and the numbers
written in its text, its warnings' and its raise's included.  Where both
trees give the same count, the report gives how many moved, the largest
absolute move, the largest move relative to the entry's parent value, and
the largest absolute move relative to the item's largest parent |value|; a
NaN on one side only counts as a move of inf.  Otherwise it gives the two
counts.

CLI items: each job of JOBS runs once through ``rieszlag.cli.main`` and
gives three items, its exit code, its stdout and its stderr, so a
difference names the part that moved.  An argparse error counts with its
SystemExit code, an uncaught exception as exit 1 with the last line of its
traceback.  The warnings of a job count in its stderr item by category and
text, so a warning that only moves to another source line is no change.
The tree's own path reads <tree> in the output, and the sample files of
the --input-csv jobs are written once, to one directory that both trees
read.

Library items: scaled Bessel arrays for 8 orders across the power-series
and asymptotic regimes, on z up to 900, on z from the regime switch to 1e18
shuffled among those, on the z mesh of one Laguerre PV block as the kernel
passes it and reversed, and on the z mesh of one check_prop33 block; the
derivative kernel on a production mesh; the Laguerre Riesz kernel at k =
1..4 on 1-, 2-, 64-, 65- and 129-point y sets at 8 and 12 time nodes, and
on the sweep of k = 1..5, seven alphas from -0.9 to 10 and five x from 0.05
to 20, 64 y each, where the cut of the s-rule at t = 15 moves last bits
against the whole rule; the Hermite Riesz kernel for l <= k <= 4, and on
the sweep of l = 1..4 at l = k and l < k <= 5 and four x from -1.5 to 26,
two 64-y blocks each (near x, and near -x and across (-8, 8)), where the
cut of the s-rule at t_l = 45/(l + 1/2) moves last bits against the whole
rule; pv_apply stage tables for both families, and for the Hermite
kernel at k = 1, 10 stages, where the rule drops a strip one ulp wide at
either support end or a far piece 3 ulps wide; hermite_fn_table and
phi_table (four alphas) at degrees 0, 1 and 2, and at degree 1600 or 1200
on x from 36.5 to 40, where the seed e^(-x^2/2) underflows; check_prop33
for each statement; lp_scan reports at k = 1..3 for three alphas; and
riesz_apply_laguerre_spectral and synthesize called once per point, for
both bases at the points of riesz.
The lp-scan jobs at --family-size 1, 4, 5 and 20 cover analyze_all's
groups of bumps: one alone, pairs, and pairs with a lone last bump.  The
Hermite riesz jobs at --nmax 1600, 2 (below --k) and -1 (invalid) cover the
one table its analysis and its spectral column share.  The hermite-frac
kernel-table jobs at gamma 16 and 50 and the hermite-riesz job at k = 40
cover K_gamma's tail share in est_err, its stalled raise and the time
integral's not-finite raise.  The identities job at --nmax 24 --qmax 24
checks the derivative identity of g(x^2) far past the default N, q <= 8.
The riesz jobs at --bump-radius 0.001 --stages 3 cover pv_apply's raise
where the support lies within the smallest excision radius.  The
scan-bounds and lp-scan jobs without --alpha cover its default 0 there,
and the jobs given only one of --bump-center and --bump-radius cover each
family's default for the other.  The lp-scan job at --delta -1.5 covers
the rejection of a weight x^delta that is not integrable at 0.

JOBS ends with every job any seed can put into a benchmark workload
(bench/workloads.py's every_job, 116 argvs over lag_riesz, her_riesz and
scans), so each job the benchmark times and checks is compared bit for
bit.  workloads.py is read from the tree that holds this tool, and run
without writing anything into bench/, so both trees run the same jobs.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import inspect
import io
import json
import math
import os
import re
import runpy
import struct
import subprocess
import sys
import tempfile
import traceback
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

# the --input-csv jobs name their sample files under this placeholder
SAMPLES = "<samples>"
# a number written in text: a decimal with optional exponent, inf or nan
NUMBER = re.compile(
    r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?\binf\b|\bnan\b")
# the benchmark's job lists; run_path compiles the file without caching it
WORKLOADS = runpy.run_path(
    str(Path(__file__).resolve().parents[1] / "bench" / "workloads.py"))


def _riesz(family: str, k: int, *extra: str) -> list:
    return ["riesz", "--family", family, "--k", str(k),
            "--max-abs-diff", "1e-3", *extra]


JOBS = [
    *[_riesz(family, k) for family in ("hermite", "laguerre")
      for k in (1, 2, 3, 4)],
    *[_riesz("laguerre", k, "--alpha", "2") for k in (1, 2, 3, 4)],
    *[_riesz(family, k, "--stages", "6") for family in ("hermite", "laguerre")
      for k in (1, 2, 3, 4)],
    # the Hermite spectral column comes from one table at any --points
    *[_riesz("hermite", 2, "--points", n) for n in ("1", "2", "9")],
    # that table at the benchmark's degree, below --k (a zero column) and
    # at an invalid --nmax
    *[_riesz("hermite", k, "--nmax", "1600", "--points", "5", "--stages",
             "10") for k in (1, 2, 3)],
    _riesz("hermite", 3, "--nmax", "2"),
    _riesz("hermite", 1, "--nmax", "-1"),
    _riesz("laguerre", 2, "--alpha", "0.5", "--points", "2"),
    # sampled input: a natural cubic spline through the rows of a file
    _riesz("hermite", 1, "--points", "2", "--input-csv",
           f"{SAMPLES}/hermite.csv"),
    _riesz("laguerre", 2, "--alpha", "0.5", "--points", "2", "--stages", "6",
           "--input-csv", f"{SAMPLES}/laguerre.csv"),
    _riesz("hermite", 1, "--input-csv", f"{SAMPLES}/one-row.csv"),
    # the support lies within the smallest excision radius: exit 2
    *[["riesz", "--family", family, "--k", k, "--bump-radius", "0.001",
       "--stages", "3", "--points", "2"]
      for family, k in (("hermite", "1"), ("laguerre", "2"))],
    # the kernel's factors overflow at k = 9: QuadratureConvergenceError,
    # exit 1 and no CSV
    ["riesz", "--family", "laguerre", "--k", "9", "--alpha", "0.5",
     "--points", "1", "--stages", "3", "--max-abs-diff", "1e-3"],
    ["kernel-table", "--family", "hermite-heat", "--t", "0.5",
     "--x", "0.3,1.0", "--y=-0.4,0.7"],
    ["kernel-table", "--family", "laguerre-heat", "--t", "0.5", "--alpha",
     "0.5", "--x", "0.3,1.0", "--y", "0.4,2.0"],
    ["kernel-table", "--family", "hermite-frac", "--gamma", "1.5",
     "--x", "0.3", "--y", "0.8,1.2"],
    # K_gamma's share of mass beyond the rule's end: it sets est_err at
    # gamma 16 and stalls the quadrature at gamma 50
    *[["kernel-table", "--family", "hermite-frac", "--gamma", gamma,
       "--x", "0.3", "--y", "0.9"] for gamma in ("16", "50")],
    # the Hermite kernel's factors overflow at k = 40: not finite, exit 1
    ["kernel-table", "--family", "hermite-riesz", "--k", "40", "--x", "0.3",
     "--y=-1.0"],
    ["kernel-table", "--family", "hermite-riesz", "--k", "2", "--l", "1",
     "--x", "0.3", "--y", "0.8,1.2"],
    ["kernel-table", "--family", "laguerre-riesz", "--k", "2", "--alpha",
     "0.5", "--x", "1.0", "--y", "0.7,1.6", "--format", "json"],
    # an uncaught RuntimeError: the Bessel series does not converge
    ["kernel-table", "--family", "laguerre-heat", "--t", "1", "--alpha", "42",
     "--x", "32", "--y", "32"],
    # tiny x, where the kernel still scales like x^(alpha + 3/2)
    ["kernel-table", "--family", "laguerre-riesz", "--k", "1", "--alpha",
     "0.5", "--x", "1e-30", "--y", "3"],
    # an uncaught RuntimeError: the Bessel argument underflows
    ["kernel-table", "--family", "laguerre-heat", "--t", "800", "--alpha",
     "0.5", "--x", "1", "--y", "1"],
    # an uncaught RuntimeError where e^-t is subnormal (740) or 0 (800)
    *[["kernel-table", "--family", "hermite-heat", "--t", t, "--x", "1",
       "--y", "1"] for t in ("740", "800")],
    # --alpha is an error for the Hermite families
    ["kernel-table", "--family", "hermite-riesz", "--k", "1", "--alpha", "3",
     "--x", "0.3", "--y", "0.8"],
    ["basis", "--family", "hermite", "--alpha", "3", "--n", "2",
     "--points", "3"],
    ["riesz", "--family", "hermite", "--k", "1", "--alpha", "3"],
    ["scan-bounds", "--statement", "prop33-i", "--k", "1", "--alpha", "0.5"],
    ["scan-bounds", "--statement", "prop33-ii-even", "--k", "2", "--alpha",
     "0.5"],
    ["scan-bounds", "--statement", "prop33-ii-odd", "--k", "1", "--alpha",
     "0.5"],
    ["scan-bounds", "--statement", "prop33-iii", "--k", "2", "--alpha",
     "0.5"],
    ["scan-bounds", "--statement", "prop31-l-table", "--k", "2", "--l", "1"],
    ["scan-bounds", "--statement", "prop31-l-table", "--k", "1", "--alpha",
     "7"],
    ["lp-scan", "--k", "1", "--family-size", "4"],
    # alpha defaults to 0 for the scans
    ["scan-bounds", "--statement", "prop33-ii-even", "--k", "2"],
    # analyze_all's groups at seed 0: one bump alone, and two pairs and a
    # lone last bump
    ["lp-scan", "--k", "1", "--family-size", "1"],
    ["lp-scan", "--k", "2", "--family-size", "5"],
    ["lp-scan", "--k", "2", "--alpha", "0.5", "--p", "3", "--delta", "0.5",
     "--family-size", "4", "--seed", "3"],
    # the benchmark's k = 2 job, and k = 3 (three terms) at alpha 2
    ["lp-scan", "--k", "2", "--family-size", "20", "--seed", "3"],
    ["lp-scan", "--k", "3", "--alpha", "2", "--family-size", "4"],
    # the endpoint rule's weight x^delta is not integrable at 0: exit 2
    ["lp-scan", "--k", "1", "--delta", "-1.5", "--family-size", "2"],
    ["phi-limit", "--k", "2"],
    ["phi-limit", "--k", "4"],
    ["basis", "--family", "hermite", "--n", "5", "--points", "50"],
    ["basis", "--family", "laguerre", "--alpha", "0.5", "--n", "7",
     "--points", "50"],
    ["basis", "--family", "hermite", "--mode", "coeffs", "--n", "40"],
    # one bump field given, the family's default for the other
    ["basis", "--family", "hermite", "--mode", "coeffs", "--n", "20",
     "--bump-radius", "0.8"],
    ["riesz", "--family", "laguerre", "--k", "1", "--bump-center", "1.3",
     "--points", "2", "--stages", "3"],
    ["basis", "--family", "laguerre", "--alpha", "1.5", "--mode", "coeffs",
     "--n", "40"],
    ["identities"],
    ["identities", "--nmax", "24", "--qmax", "24"],
    # argparse's usage text and invalid-choice messages list the choices
    ["basis", "--family", "nope"],
    ["kernel-table", "--family", "nope", "--x", "1", "--y", "1"],
    ["riesz", "--family", "nope", "--k", "1"],
    ["scan-bounds", "--statement", "nope", "--k", "1"],
    ["kernel-table", "--help"],
    ["scan-bounds", "--help"],
    *[argv for workload in WORKLOADS["TEMPLATES"]
      for argv in WORKLOADS["every_job"](workload)],
]

ALPHAS = (-0.5, 0.0, 0.5, 2.0)
X = 1.4


def _write_samples(folder: Path) -> None:
    """The files of the --input-csv jobs: a C-infinity bump sampled on 201
    points for each family's job, and a file with one row."""
    for name, (a, b) in (("hermite", (-1.0, 1.0)), ("laguerre", (0.5, 2.0))):
        u = np.linspace(-1.0, 1.0, 201)
        f = np.zeros_like(u)
        f[1:-1] = np.exp(-1.0 / (1.0 - u[1:-1] ** 2))
        x = a + 0.5 * (b - a) * (u + 1.0)
        (folder / f"{name}.csv").write_text("x,f\n" + "".join(
            f"{float(xi)!r},{float(fi)!r}\n" for xi, fi in zip(x, f)))
    (folder / "one-row.csv").write_text("x,f\n0.5,1.0\n")


def _warning_texts(caught) -> list:
    return [f"{w.category.__name__}: {w.message}" for w in caught]


def _run_job(argv: list, samples: str) -> dict:
    """Exit code, stdout and stderr of one CLI job, with the tree's path (the
    working directory) read as <tree> and each warning appended to stderr
    by category and text."""
    from rieszlag.cli import main

    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main([arg.replace(SAMPLES, samples) for arg in argv])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # the interpreter would exit 1
            code = 1
            err.write(traceback.format_exception_only(exc)[-1])
    err.write("".join(f"{text}\n" for text in _warning_texts(caught)))
    tree = os.getcwd()
    return {"exit": code, "stdout": out.getvalue().replace(tree, "<tree>"),
            "stderr": err.getvalue().replace(tree, "<tree>")}


def _y_sets() -> dict:
    # near and far from x = 1.4, with |x - y| down to 2e-4 in the larger sets
    near = X + np.array([-2e-4, 2e-4, -3e-3, 5e-2])
    wide = np.concatenate([near, np.geomspace(0.01, 60.0, 125)])
    return {1: np.array([X + 2e-4]), 2: np.array([0.3, X - 2e-4]),
            64: wide[:64], 65: wide[:65], 129: wide}


def _items(samples: str) -> dict:
    """name -> zero-argument callable; built inside the tree's process."""
    from rieszlag import kernels, operators, verify
    from rieszlag.basis import (BasisTag, analyze, hermite_fn_table,
                                phi_table, synthesize)
    from rieszlag.specfun import bessel_i_scaled

    items = {}
    for argv in JOBS:
        run = functools.cache(functools.partial(_run_job, argv, samples))
        for part in ("exit", "stdout", "stderr"):
            items[f"cli {' '.join(argv)}: {part}"] = (
                lambda run=run, part=part: run()[part])

    s, w, _, _ = kernels._s_quadrature(8)
    z = np.geomspace(1e-6, 900.0, 500)
    # the Bessel arguments of one PV block: 64 y about x = 1.4
    pv_y = X + np.concatenate([-np.geomspace(2e-4, 0.7, 32),
                               np.geomspace(2e-4, 0.9, 32)])
    pv_z = (X * pv_y[None, :] * (w * (2.0 - w))[:, None]
            / (2.0 * s[:, None]))
    # the Bessel arguments of the first block of check_prop33's
    # prop33-ii-even scan at level 1: 64 (x, y) pairs, on the s rows the
    # block keeps; its flat order is not monotone
    p33_x = np.repeat(np.geomspace(0.05, 20.0, 16), 12)[:64]
    p33_y = np.multiply.outer(np.geomspace(0.05, 20.0, 16),
                              np.geomspace(2.2, 8.0, 12)).ravel()[:64]
    _, _, t, _ = kernels._s_quadrature(8)
    rows = ((t <= 15.0)
            & (-np.min((p33_x - p33_y) ** 2) / (4.0 * s) >= -800.0))
    rows[0] = True
    p33_z = (p33_x * p33_y * (w[rows] * (2.0 - w[rows]))[:, None]
             / (2.0 * s[rows, None]))
    for nu in (-0.5, 0.0, 0.3, 0.5, 1.5, 2.0, 4.5, 11.0):
        items[f"bessel_i_scaled nu={nu}"] = (
            lambda nu=nu: bessel_i_scaled(nu, z))
        # the two orderings that keep finished entries longest in the
        # Bessel loops' window
        items[f"bessel_i_scaled nu={nu} pv block reversed"] = (
            lambda nu=nu: bessel_i_scaled(nu, pv_z[::-1, ::-1]))
        items[f"bessel_i_scaled nu={nu} prop33 block"] = (
            lambda nu=nu: bessel_i_scaled(nu, p33_z))
        wide = np.random.default_rng(0).permutation(np.concatenate([
            np.geomspace(max(30.0, 0.5 * nu * nu), 1e18, 500), z[::2]]))
        items[f"bessel_i_scaled nu={nu} to 1e18"] = (
            lambda nu=nu, wide=wide: bessel_i_scaled(nu, wide))
        items[f"bessel_i_scaled nu={nu} pv block"] = (
            lambda nu=nu: bessel_i_scaled(nu, pv_z))

    mesh_y = np.array([0.05, X - 2e-4, X + 2e-4, 3.0, 12.0])
    for k in range(6):
        for a in ALPHAS:
            items[f"_dw_pair_sw k={k} alpha={a}"] = (
                lambda k=k, a=a: kernels._dw_pair_sw(
                    k, a, s[:, None], w[:, None], X, mesh_y[None, :]))

    for k in range(1, 5):
        for a in ALPHAS:
            for n, y in _y_sets().items():
                for nodes in (8, 12):
                    items[f"riesz_kernel_laguerre_vec k={k} alpha={a} "
                          f"points={n} nodes={nodes}"] = (
                        lambda k=k, a=a, y=y, nodes=nodes:
                        kernels.riesz_kernel_laguerre_vec(k, a, X, y,
                                                          nodes=nodes))
    for k in range(1, 6):
        for a in (-0.9, -0.5, 0.0, 0.5, 2.0, 5.0, 10.0):
            for x in (0.05, 0.3, 1.4, 6.0, 20.0):
                y = np.concatenate([
                    x * (1.0 + np.array([-0.3, -0.1, -1e-2, -1e-3, 1e-3,
                                         1e-2, 0.1, 0.3])),
                    np.geomspace(0.01, 40.0, 56)])
                items[f"riesz_kernel_laguerre_vec sweep k={k} alpha={a} "
                      f"x={x}"] = (
                    lambda k=k, a=a, x=x, y=y:
                    kernels.riesz_kernel_laguerre_vec(k, a, x, y))
    herm_y = np.concatenate([_y_sets()[129], -_y_sets()[129][:40]])
    for k in range(1, 5):
        for l in range(k + 1):
            items[f"riesz_kernel_hermite_vec k={k} l={l}"] = (
                lambda k=k, l=l: kernels.riesz_kernel_hermite_vec(
                    k, l, 0.3, herm_y))
    near = np.array([-0.3, -0.1, -1e-2, -1e-3, 1e-3, 1e-2, 0.1, 0.3])
    for k in range(1, 6):
        for l in range(1, min(k, 4) + 1):
            for x in (-1.5, 0.3, 2.0, 26.0):
                y = np.concatenate([x + near, x + np.linspace(-1.0, 1.0, 56),
                                    -x + near, np.linspace(-8.0, 8.0, 56)])
                items[f"riesz_kernel_hermite_vec sweep k={k} l={l} "
                      f"x={x}"] = (
                    lambda k=k, l=l, x=x, y=y:
                    kernels.riesz_kernel_hermite_vec(k, l, x, y))

    # the tables' first degrees, and the seed e^(-x^2/2) underflowing to 0
    # between |x| = 38 and 39 at high degree
    small = np.linspace(0.05, 4.0, 9)
    edge = np.linspace(36.5, 40.0, 29)
    for nmax in (0, 1, 2):
        items[f"hermite_fn_table nmax={nmax}"] = (
            lambda nmax=nmax: hermite_fn_table(nmax, np.concatenate(
                [-small[::-1], small])))
        for a in ALPHAS:
            items[f"phi_table nmax={nmax} alpha={a}"] = (
                lambda nmax=nmax, a=a: phi_table(nmax, a, small))
    items["hermite_fn_table nmax=1600 underflow edge"] = (
        lambda: hermite_fn_table(1600, np.concatenate([-edge, edge])))
    for a in ALPHAS:
        items[f"phi_table nmax=1200 alpha={a} underflow edge"] = (
            lambda a=a: phi_table(1200, a, edge))

    def stage_table(spec, f, x, stages=6):
        r = operators.pv_apply(spec, f, x, stages=stages)
        return r.values, r.extrapolated, r.err_estimate, r.wk_correction

    lag_f, her_f = operators.bump(1.25, 0.75), operators.bump(0.0, 1.0)
    for k in (1, 2, 3):
        for a in (0.5, 2.0):
            items[f"pv_apply laguerre k={k} alpha={a}"] = (
                lambda k=k, a=a: stage_table(
                    kernels.KernelSpec("laguerre-riesz", k=k, alpha=a),
                    lag_f, 1.4))
        items[f"pv_apply hermite k={k}"] = (
            lambda k=k: stage_table(kernels.KernelSpec("hermite-riesz", k=k),
                                    her_f, 0.3))
    # pieces of the PV rule too narrow for distinct edges, which it drops:
    # the strip above x and the strip below x one ulp wide at a support
    # end, and the left far piece 3 ulps wide
    for center, radius, x in ((-0.99, 0.5, -0.54), (0.99, 0.5, 0.54),
                              (0.0, 1.0, -0.8999999999999997)):
        items[f"pv_apply hermite k=1 bump({center}, {radius}) x={x}"] = (
            lambda center=center, radius=radius, x=x: stage_table(
                kernels.KernelSpec("hermite-riesz", k=1),
                operators.bump(center, radius), x, stages=10))

    def prop33(statement, k):
        r = verify.check_prop33(statement, k, 0.5)
        return (r.sup_ratio, r.argmax, r.refinement_history)

    for statement, k in (("prop33-i", 1), ("prop33-ii-even", 2),
                         ("prop33-ii-odd", 1), ("prop33-iii", 2)):
        items[f"check_prop33 {statement} k={k}"] = (
            lambda statement=statement, k=k: prop33(statement, k))

    # one call per point, at the 5 points of riesz: a multi-point call
    # sums in an order that depends on the number of points in older trees
    xs = np.linspace(0.68, 1.82, 5)
    # trees before the spectral route lost its tail check warned by default
    spectral = operators.riesz_apply_laguerre_spectral
    no_tail = ({"tail_tol": np.inf} if "tail_tol" in inspect.signature(
        spectral).parameters else {})
    for a in (0.5, 2.0):
        coeffs = analyze(lag_f, BasisTag("laguerre", a), 1200)
        for k in (1, 2, 3):
            items[f"riesz_apply_laguerre_spectral k={k} alpha={a}"] = (
                lambda k=k, coeffs=coeffs: [
                    spectral(k, coeffs, float(x), **no_tail) for x in xs])

    def lp_scan(k, a):
        r = verify.lp_scan(k, a, 3.0, 0.5, 20, seed=k)
        return (r.ratios, r.max_ratio, r.in_range)

    for k in (1, 2, 3):
        for a in (-0.5, 0.5, 2.0):
            items[f"lp_scan k={k} alpha={a} p=3 delta=0.5"] = (
                lambda k=k, a=a: lp_scan(k, a))

    def per_point(coeffs, f):
        a, b = f.support
        pad = 0.12 * (b - a)
        return [synthesize(coeffs, float(x))
                for x in np.linspace(a + pad, b - pad, 5)]

    her_coeffs = analyze(her_f, BasisTag("hermite"), 1200)
    for k in (1, 2, 3):
        items[f"synthesize hermite riesz k={k}"] = (
            lambda k=k: per_point(
                operators.riesz_spectral_hermite(k, her_coeffs), her_f))
    for a in (0.5, 2.0):
        items[f"synthesize laguerre alpha={a}"] = (
            lambda a=a: per_point(
                analyze(lag_f, BasisTag("laguerre", a), 1200), lag_f))
    return items


def _feed(h, obj) -> None:
    if isinstance(obj, np.ndarray):
        h.update(f"a{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (float, np.floating)):
        h.update(b"f" + struct.pack("<d", float(obj)))
    elif isinstance(obj, (tuple, list)):
        h.update(f"l{len(obj)}".encode())
        for part in obj:
            _feed(h, part)
    else:
        h.update(f"{type(obj).__name__}:{obj!r}".encode())


def _numbers(obj) -> list:
    """The numbers an item's result holds, in order (see the docstring)."""
    if isinstance(obj, np.ndarray):
        return obj.astype(float).ravel().tolist()
    if isinstance(obj, (bool, int, float, np.number)):
        return [float(obj)]
    if isinstance(obj, (tuple, list)):
        return [v for part in obj for v in _numbers(part)]
    if isinstance(obj, str):
        return [float(v) for v in NUMBER.findall(obj)]
    return []


def value_report(old: np.ndarray, new: np.ndarray) -> str:
    """The moves from the parent's numbers to the change's."""
    if old.shape != new.shape:
        return f"{old.size} numbers against {new.size}"
    same = (old == new) | (np.isnan(old) & np.isnan(new))
    with np.errstate(invalid="ignore", divide="ignore"):
        move = np.where(same, 0.0, np.abs(new - old))
        move[np.isnan(move)] = math.inf
        moved = move > 0
        rel = move[moved] / np.abs(old[moved])
    if not moved.any():
        return f"0 of {old.size} numbers move"
    top = np.max(np.abs(old[np.isfinite(old)]), initial=0.0)
    return (f"{np.count_nonzero(moved)} of {old.size} numbers move: largest "
            f"{move.max():.2e} absolute, {rel.max():.2e} relative to its "
            f"entry, {move.max() / top if top else math.inf:.2e} relative "
            "to max |value|")


def run_items(samples: str, values: str) -> None:
    """Evaluate every item with the rieszlag of the tree in the working
    directory, print the digests by name as JSON and save the numbers of
    each item, in the same order, to the .npz file ``values``."""
    import rieszlag

    if not rieszlag.__file__.startswith(os.getcwd()):
        raise RuntimeError(f"{os.getcwd()}: imported {rieszlag.__file__}")
    digests, numbers = {}, []
    for name, fn in _items(samples).items():
        h = hashlib.sha256()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                result = fn()
            except Exception as exc:  # a raise is part of the result
                result = f"{type(exc).__name__}: {exc}"
            _feed(h, result)
        for text in _warning_texts(caught):
            _feed(h, text)
        digests[name] = h.hexdigest()
        numbers.append(np.array(_numbers([result, _warning_texts(caught)])))
    np.savez(values, *numbers)
    sys.stdout.write(json.dumps(digests))


def _tree_digests(tree: Path, samples: str, values: Path) -> tuple:
    """The digests of a tree's items by name, and their numbers."""
    env = {**os.environ, "COLUMNS": "80",
           "PYTHONPATH": os.pathsep.join([str(tree / "src"),
                                          str(Path(__file__).parent)])}
    res = subprocess.run(
        [sys.executable, "-c",
         "import sys, identity; identity.run_items(*sys.argv[1:])", samples,
         str(values)], cwd=tree, env=env, stdout=subprocess.PIPE, text=True,
        check=True)
    digests = json.loads(res.stdout)
    with np.load(values) as saved:
        numbers = [saved[f"arr_{i}"] for i in range(len(digests))]
    return digests, dict(zip(digests, numbers))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as scratch:
        samples = Path(scratch) / "samples"
        samples.mkdir()
        _write_samples(samples)
        parent, old = _tree_digests(args.parent.resolve(), str(samples),
                                    Path(scratch) / "parent.npz")
        change, new = _tree_digests(args.change.resolve(), str(samples),
                                    Path(scratch) / "change.npz")
    names = list(parent) + [n for n in change if n not in parent]
    differ = [n for n in names if parent.get(n) != change.get(n)]
    for name in differ:
        report = (value_report(old[name], new[name])
                  if name in old and name in new else "only in one tree")
        print(f"differs: {name}: {report}")
    print(f"{len(names)} items: {len(names) - len(differ)} identical, "
          f"{len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
