"""Command-line interface.

Subcommands cover basis dumps, kernel tables, the spectral/principal-value
Riesz comparison, the exact identity suite, kernel bound scans, weighted
norm-ratio scans, and the boundary-function limit.  Grid and curve data go
to CSV, structured reports to JSON; diagnostics go to stderr.  Identical
configurations (including the seed) produce byte-identical artifacts.

Exit codes: 0 success, 1 an enabled assertion failed (a JSON witness is
printed to stderr), 2 invalid input.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import math
import sys

import numpy as np

from . import combinat, kernels, operators, verify
# synthesize has no use here; it stays imported because the benchmark tracer
# (bench/spans.py) wraps cli.synthesize by name
from .basis import (KINDS, BasisTag, _basis_table, _column_dots, analyze,
                    analyze_at, synthesize)
from .kernels import KernelSpec

__all__ = ["main"]


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _csv(rows, header) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(v)) if isinstance(v, float) else str(v)
                              for v in row))
    return "\n".join(lines) + "\n"


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _fail(witness: dict) -> int:
    sys.stderr.write(_json_text({"assertion-failure": witness}))
    return 1


def _float_list(text: str, name: str) -> list:
    values = [float(v) for v in text.split(",") if v.strip()]
    if not values or not all(math.isfinite(v) for v in values):
        raise ValueError(f"{name} must be a non-empty list of finite numbers, "
                         f"got {text!r}")
    return values


def _check_points(points: int) -> None:
    if points < 1:
        raise ValueError(f"points must be >= 1, got {points}")


def _check_tolerance(name: str, value) -> None:
    # a NaN or infinite tolerance would pass every comparison
    if value is not None and not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {value}")


def _alpha(args, laguerre: bool):
    # a Laguerre family defaults to alpha 0; a Hermite one rejects --alpha
    return 0.0 if laguerre and args.alpha is None else args.alpha


def _default_bump(family: str, args):
    center = args.bump_center
    radius = args.bump_radius
    if center is None:
        center = 0.0 if family == "hermite" else 1.25
    if radius is None:
        radius = 1.0 if family == "hermite" else 0.75
    return operators.bump(center, radius)


def _cubic_spline(xs: np.ndarray, ys: np.ndarray):
    """Natural cubic spline through sorted samples, zero outside the range."""
    n = len(xs)
    h = np.diff(xs)
    rhs = np.zeros(n)
    rhs[1:-1] = 6.0 * ((ys[2:] - ys[1:-1]) / h[1:]
                       - (ys[1:-1] - ys[:-2]) / h[:-1])
    mat = np.zeros((n, n))
    mat[0, 0] = mat[-1, -1] = 1.0
    for i in range(1, n - 1):
        mat[i, i - 1] = h[i - 1]
        mat[i, i] = 2.0 * (h[i - 1] + h[i])
        mat[i, i + 1] = h[i]
    mom = np.linalg.solve(mat, rhs)

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        inside = (x >= xs[0]) & (x <= xs[-1])
        xi = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, n - 2)
        lo, hi = xs[xi], xs[xi + 1]
        dl, dh = x - lo, hi - x
        hh = hi - lo
        val = (mom[xi] * dh**3 + mom[xi + 1] * dl**3) / (6.0 * hh) \
            + (ys[xi] / hh - mom[xi] * hh / 6.0) * dh \
            + (ys[xi + 1] / hh - mom[xi + 1] * hh / 6.0) * dl
        out[inside] = val[inside]
        return out

    return evaluate


def _load_sampled_function(path: str):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not any(line.split("#", 1)[0].strip() for line in lines):
        raise ValueError(f"{path}: empty file, expected columns x,f")
    data = np.genfromtxt(lines, delimiter=",", names=True)
    xs = np.atleast_1d(np.asarray(data["x"], dtype=float))
    ys = np.atleast_1d(np.asarray(data["f"], dtype=float))
    if xs.size < 2:
        raise ValueError(f"{path}: need at least 2 sample rows, got {xs.size}")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise ValueError(f"{path}: sample values must be finite numbers")
    order = np.argsort(xs)
    xs, ys = xs[order], ys[order]
    if not np.all(np.diff(xs) > 0):
        raise ValueError(f"{path}: repeated x value")
    fn = _cubic_spline(xs, ys)
    fn.support = (float(xs[0]), float(xs[-1]))
    return fn


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_basis(args) -> int:
    tag = BasisTag(args.family, _alpha(args, args.family == "laguerre"))
    if args.mode == "samples":
        _check_points(args.points)
        for name in ("xmin", "xmax"):
            value = getattr(args, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        lo = args.xmin
        if lo is None:
            lo = -args.xmax if args.family == "hermite" else 1e-3
        xs = np.linspace(lo, args.xmax, args.points)
        table = _basis_table(tag, args.n, xs)
        rows = [(float(x), float(v)) for x, v in zip(xs, table[args.n])]
        _write_text(args.out, _csv(rows, ["x", "f"]))
        return 0
    f = _default_bump(args.family, args)
    coeffs = analyze(f, tag, args.n)
    rows = [(n, float(c)) for n, c in enumerate(coeffs.coeffs)]
    _write_text(args.out, _csv(rows, ["n", "c_n"]))
    return 0


def _cmd_kernel_table(args) -> int:
    spec = KernelSpec(args.family, k=args.k, l=args.l, gamma=args.gamma,
                      alpha=_alpha(args, "laguerre" in args.family))
    xs = _float_list(args.x, "x")
    ys = _float_list(args.y, "y")
    # only the parameter the family uses can be given (Riesz: neither)
    t_or_gamma = next((v for v in (args.t, args.gamma) if v is not None), "")
    rows = []
    for x in xs:
        for y in ys:
            value, est = kernels.kernel_value(spec, x, y, t=args.t)
            rows.append((spec.family, spec.k, spec.l if spec.l is not None else "",
                         spec.alpha if spec.alpha is not None else "",
                         t_or_gamma, float(x), float(y), float(value),
                         float(est)))
    header = ["family", "k", "l", "alpha", "t_or_gamma", "x", "y", "value",
              "est_err"]
    if args.format == "json":
        _write_text(args.out, _json_text([dict(zip(header, r)) for r in rows]))
    else:
        _write_text(args.out, _csv(rows, header))
    return 0


def _hermite_spectral_column(k: int, f, tag: BasisTag, nmax: int,
                             pts: np.ndarray) -> np.ndarray:
    """The Hermite Riesz transform of f's expansion at pts, the values
    synthesize would give, from one basis recurrence over the analysis
    nodes and pts.  The table dies on return, before the PV loop."""
    coeffs, table = analyze_at(f, tag, nmax, pts)
    transformed = operators.riesz_spectral_hermite(k, coeffs)
    return _column_dots(transformed.coeffs,
                        table[:transformed.truncation + 1])


def _cmd_riesz(args) -> int:
    _check_points(args.points)
    _check_tolerance("max-abs-diff", args.max_abs_diff)
    if args.input_csv:
        f = _load_sampled_function(args.input_csv)
    else:
        f = _default_bump(args.family, args)
    tag = BasisTag(args.family, _alpha(args, args.family == "laguerre"))
    a, b = f.support
    pad = 0.12 * (b - a)
    pts = np.linspace(a + pad, b - pad, args.points)
    # each point of the spectral column gets the bits of a one-point call
    if args.family == "hermite":
        column = _hermite_spectral_column(args.k, f, tag, args.nmax, pts)
        spec = KernelSpec("hermite-riesz", k=args.k)
    else:
        coeffs = analyze(f, tag, args.nmax)
        spec = KernelSpec("laguerre-riesz", k=args.k, alpha=tag.alpha)
        column = operators.riesz_apply_laguerre_spectral(
            args.k, coeffs, pts, tail_tol=np.inf)
    rows = []
    for i, x in enumerate(pts):
        pv = operators.pv_apply(spec, f, float(x), stages=args.stages)
        sval = float(column[i])
        rows.append((float(x), sval, pv.extrapolated, pv.wk_correction,
                     abs(sval - pv.total), pv.err_estimate))
    _write_text(args.out, _csv(rows, ["x", "spectral", "pv", "wk_term",
                                      "abs_diff", "err_est"]))
    if args.max_abs_diff is None:
        return 0
    check = {"check": "riesz spectral vs principal value",
             "allowed": args.max_abs_diff}
    # a NaN abs_diff compares False against any tolerance
    non_finite = [row[0] for row in rows if not math.isfinite(row[4])]
    if non_finite:
        return _fail({**check, "non_finite_abs_diff_at_x": non_finite})
    worst = max(row[4] for row in rows)
    if worst > args.max_abs_diff:
        return _fail({**check, "worst_abs_diff": worst})
    return 0


def _cmd_identities(args) -> int:
    entries = combinat.identities_report(jmax_a=args.jmax,
                                         jmax_n1=args.jmax_n1,
                                         nmax_23=args.nmax, qmax_23=args.qmax)
    _write_text(args.out, _json_text(entries))
    bad = [e for e in entries if e["status"] != "exact-pass"]
    if bad:
        return _fail({"check": "exact identities", "failures": bad})
    return 0


def _cmd_scan_bounds(args) -> int:
    prop31 = args.statement == "prop31-l-table"
    # a flag that only the other statement family computes with is an error
    for name in ("alpha", "nx", "ny") if prop31 else ("l",):
        if getattr(args, name) is not None:
            raise ValueError(f"{args.statement} does not take --{name}")
    if prop31:
        report = verify.check_prop31(args.k, args.k if args.l is None
                                     else args.l, levels=args.levels)
    else:
        sampling = {name: getattr(args, name) for name in ("nx", "ny")
                    if getattr(args, name) is not None}
        report = verify.check_prop33(
            args.statement, args.k, 0.0 if args.alpha is None else args.alpha,
            levels=args.levels, **sampling)
    _write_text(args.out, _json_text(report.to_dict()))
    if not report.stable:
        return _fail({"check": "bound scan stability",
                      "report": report.to_dict()})
    return 0


def _cmd_lp_scan(args) -> int:
    report = verify.lp_scan(args.k, args.alpha, args.p, args.delta,
                            args.family_size, seed=args.seed)
    _write_text(args.out, _json_text(report.to_dict()))
    if report.in_range and not all(np.isfinite(report.ratios)):
        return _fail({"check": "lp scan finiteness",
                      "report": report.to_dict()})
    return 0


def _cmd_phi_limit(args) -> int:
    _check_tolerance("tol", args.tol)
    report = operators.phi_limit(args.k)
    _write_text(args.out, _json_text(report))
    if abs(report["extrapolated"] - report["closed_form"]) > args.tol:
        return _fail({"check": "phi limit", "report": report})
    return 0


# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by every main call
    (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="rieszlag",
        description="Riesz transforms for Hermite and Laguerre expansions")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--out", default="-", help="output path ('-' = stdout)")

    def threads(p):
        p.add_argument("--threads", type=int, default=1,
                       help="no effect; the scans run on one thread")

    p = sub.add_parser("basis", help="dump basis function samples or bump coefficients")
    common(p)
    p.add_argument("--family", choices=KINDS, required=True)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--mode", choices=["samples", "coeffs"], default="samples")
    p.add_argument("--xmin", type=float, default=None)
    p.add_argument("--xmax", type=float, default=8.0)
    p.add_argument("--points", type=int, default=400)
    p.add_argument("--bump-center", type=float, default=None)
    p.add_argument("--bump-radius", type=float, default=None)
    p.set_defaults(handler=_cmd_basis)

    p = sub.add_parser("kernel-table", help="evaluate kernels on a grid")
    common(p)
    p.add_argument("--family", choices=kernels.FAMILIES, required=True)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--x", required=True, help="comma-separated x values")
    p.add_argument("--y", required=True, help="comma-separated y values")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(handler=_cmd_kernel_table)

    p = sub.add_parser("riesz", help="spectral vs principal-value comparison")
    common(p)
    p.add_argument("--family", choices=KINDS, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--input-csv", default=None,
                   help="columns x,f; compactly supported samples")
    p.add_argument("--points", type=int, default=5)
    p.add_argument("--stages", type=int, default=10,
                   help="number of excision radii 0.1 * 0.5^i (at least 3)")
    p.add_argument("--nmax", type=int, default=1200)
    p.add_argument("--bump-center", type=float, default=None)
    p.add_argument("--bump-radius", type=float, default=None)
    p.add_argument("--max-abs-diff", type=float, default=None,
                   help="exit 1 if any |spectral - pv| exceeds this")
    p.set_defaults(handler=_cmd_riesz)

    p = sub.add_parser("identities", help="exact rational identity suite")
    common(p)
    p.add_argument("--jmax", type=int, default=15)
    p.add_argument("--jmax-n1", type=int, default=12)
    p.add_argument("--nmax", type=int, default=8)
    p.add_argument("--qmax", type=int, default=8)
    p.set_defaults(handler=_cmd_identities)

    p = sub.add_parser("scan-bounds", help="kernel bound region scans")
    common(p)
    threads(p)
    p.add_argument("--statement", choices=verify.STATEMENTS, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--nx", type=int, default=None)
    p.add_argument("--ny", type=int, default=None)
    p.add_argument("--levels", type=int, default=2)
    p.set_defaults(handler=_cmd_scan_bounds)

    p = sub.add_parser("lp-scan", help="weighted norm ratio scan")
    common(p)
    p.add_argument("--seed", type=int, default=0)
    threads(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--family-size", type=int, default=20)
    p.set_defaults(handler=_cmd_lp_scan)

    p = sub.add_parser("phi-limit", help="boundary function epsilon-limit")
    common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-4)
    p.set_defaults(handler=_cmd_phi_limit)

    return parser


@functools.cache
def _pad_heap() -> None:
    """Keep 16 MiB of freed heap (glibc's M_TOP_PAD), so that kernel blocks
    do not fault their temporaries in again; allocation moves no value."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # no glibc
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-2, 16 << 20)  # M_TOP_PAD


def main(argv=None) -> int:
    _pad_heap()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OverflowError, OSError) as exc:
        sys.stderr.write(f"invalid input: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
