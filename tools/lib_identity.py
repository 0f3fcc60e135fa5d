"""Check that two source trees compute the same library values, bit for bit.

    python3 tools/lib_identity.py --parent ../parent --change .

The library-level twin of tools/cli_identity.py.  Each tree is a source
checkout with its own src/.  One subprocess per tree imports that tree's
rieszlag, evaluates every item and prints one SHA-256 digest per item
over the exact bytes of what it returned (arrays by dtype, shape and
buffer, floats by their IEEE bits) and the category and text of every
warning it raised.  The items that differ are listed, and the exit code is
1 if any do.

The items: scaled Bessel arrays for 8 orders across the power-series and
asymptotic regimes, on z up to 900, on z from the regime switch to 1e18
shuffled among those, and on the z mesh of one Laguerre PV block; the
derivative kernel's three outputs on a production mesh; the Laguerre Riesz
kernel with its route agreement at k = 1..4 on 1-, 2-, 64-, 65- and
129-point y sets at 8 and 12 time nodes, and on the sweep of k = 1..5,
seven alphas from -0.9 to 10 and five x from 0.05 to 20, 64 y each, where
ending the s-rule at t = 20 or 15 without a certificate moves last bits;
the Hermite Riesz kernel for l <= k <= 4; pv_apply stage tables for both
families; check_prop33 for each statement; lp_scan reports at k = 1..3 for
three alphas; and riesz_apply_laguerre_spectral and synthesize called once
per point, for both bases at the points of riesz.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np

ALPHAS = (-0.5, 0.0, 0.5, 2.0)
X = 1.4


def _y_sets() -> dict:
    # near and far from x = 1.4, with |x - y| down to 2e-4 in the larger sets
    near = X + np.array([-2e-4, 2e-4, -3e-3, 5e-2])
    wide = np.concatenate([near, np.geomspace(0.01, 60.0, 125)])
    return {1: np.array([X + 2e-4]), 2: np.array([0.3, X - 2e-4]),
            64: wide[:64], 65: wide[:65], 129: wide}


def _items() -> dict:
    """name -> zero-argument callable; built inside the tree's process."""
    from rieszlag import kernels, operators, verify
    from rieszlag.basis import BasisTag, analyze, synthesize
    from rieszlag.specfun import bessel_i_scaled

    items = {}
    s, w, _, _ = kernels._s_quadrature(8)
    z = np.geomspace(1e-6, 900.0, 500)
    # the Bessel arguments of one PV block: 64 y about x = 1.4
    pv_y = X + np.concatenate([-np.geomspace(2e-4, 0.7, 32),
                               np.geomspace(2e-4, 0.9, 32)])
    pv_z = (X * pv_y[None, :] * (w * (2.0 - w))[:, None]
            / (2.0 * s[:, None]))
    for nu in (-0.5, 0.0, 0.3, 0.5, 1.5, 2.0, 4.5, 11.0):
        items[f"bessel_i_scaled nu={nu}"] = (
            lambda nu=nu: bessel_i_scaled(nu, z))
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

    def stage_table(spec, f, x):
        r = operators.pv_apply(spec, f, x, stages=6)
        return (r.values, r.extrapolated, r.err_estimate, r.wk_correction,
                r.kernel_agreement)

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
    for a in (0.5, 2.0):
        coeffs = analyze(lag_f, BasisTag("laguerre", a), 1200)
        for k in (1, 2, 3):
            items[f"riesz_apply_laguerre_spectral k={k} alpha={a}"] = (
                lambda k=k, coeffs=coeffs: [
                    operators.riesz_apply_laguerre_spectral(
                        k, coeffs, float(x), tail_tol=np.inf) for x in xs])

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


def run_items() -> None:
    """Evaluate every item with the importable rieszlag and print the
    digests by name as JSON, with the path of the tree (the working
    directory) replaced by <tree>."""
    import rieszlag

    digests = {}
    for name, fn in _items().items():
        h = hashlib.sha256()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                _feed(h, fn())
            except Exception as exc:  # a raise is part of the result
                _feed(h, f"{type(exc).__name__}: {exc}")
        for w in caught:
            _feed(h, f"{w.category.__name__}: {w.message}")
        digests[name] = h.hexdigest()
    sys.stdout.write(json.dumps({"package": rieszlag.__file__,
                                 "digests": digests}).replace(os.getcwd(),
                                                              "<tree>"))


def _tree_digests(tree: Path) -> dict:
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(tree / "src"),
                                          str(Path(__file__).parent)])}
    res = subprocess.run(
        [sys.executable, "-c", "import lib_identity; lib_identity.run_items()"],
        cwd=tree, env=env, stdout=subprocess.PIPE, text=True, check=True)
    out = json.loads(res.stdout)
    if not out["package"].startswith("<tree>"):
        raise RuntimeError(f"{tree}: imported rieszlag from {out['package']}")
    return out["digests"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    args = parser.parse_args(argv)
    parent = _tree_digests(args.parent.resolve())
    change = _tree_digests(args.change.resolve())
    names = list(parent) + [n for n in change if n not in parent]
    differ = [n for n in names if parent.get(n) != change.get(n)]
    for name in differ:
        print(f"differs: {name}")
    print(f"{len(names)} items: {len(names) - len(differ)} identical, "
          f"{len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
