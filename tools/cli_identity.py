"""Check that two source trees give the same CLI output, job by job.

    python3 tools/cli_identity.py --parent ../parent --change .

Each tree is a source checkout with its own src/.  One subprocess per tree
imports that tree's rieszlag and runs every job of JOBS through
``rieszlag.cli.main`` in turn, recording its stdout, stderr and exit code.
An argparse error counts with its SystemExit code, an uncaught exception
as exit 1 with the last line of its traceback.  Each job starts with a clean
warnings registry, as in a fresh interpreter, and the tree's own path in an
output reads <tree>, so a warning that names a source file compares across
checkouts.  The jobs that differ are listed, and the exit code is 1 if any
do.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
import traceback
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path


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
    _riesz("laguerre", 2, "--alpha", "0.5", "--points", "2"),
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
    ["kernel-table", "--family", "hermite-riesz", "--k", "2", "--l", "1",
     "--x", "0.3", "--y", "0.8,1.2"],
    ["kernel-table", "--family", "laguerre-riesz", "--k", "2", "--alpha",
     "0.5", "--x", "1.0", "--y", "0.7,1.6", "--format", "json"],
    # an uncaught RuntimeError: the Bessel series does not converge
    ["kernel-table", "--family", "laguerre-heat", "--t", "1", "--alpha", "42",
     "--x", "32", "--y", "32"],
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
    ["lp-scan", "--k", "2", "--alpha", "0.5", "--p", "3", "--delta", "0.5",
     "--family-size", "4", "--seed", "3"],
    # the benchmark's k = 2 job, and k = 3 (three terms) at alpha 2
    ["lp-scan", "--k", "2", "--family-size", "20", "--seed", "3"],
    ["lp-scan", "--k", "3", "--alpha", "2", "--family-size", "4"],
    ["phi-limit", "--k", "2"],
    ["phi-limit", "--k", "4"],
    ["basis", "--family", "hermite", "--n", "5", "--points", "50"],
    ["basis", "--family", "laguerre", "--alpha", "0.5", "--n", "7",
     "--points", "50"],
    ["basis", "--family", "hermite", "--mode", "coeffs", "--n", "40"],
    ["basis", "--family", "laguerre", "--alpha", "1.5", "--mode", "coeffs",
     "--n", "40"],
    ["identities"],
    # argparse's usage text and invalid-choice messages list the choices
    ["basis", "--family", "nope"],
    ["kernel-table", "--family", "nope", "--x", "1", "--y", "1"],
    ["riesz", "--family", "nope", "--k", "1"],
    ["scan-bounds", "--statement", "nope", "--k", "1"],
    ["kernel-table", "--help"],
    ["scan-bounds", "--help"],
]


def _run_job(main, argv: list) -> dict:
    out, err = io.StringIO(), io.StringIO()
    # entering catch_warnings clears the registry of warnings already shown
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # the interpreter would exit 1
            code = 1
            err.write(traceback.format_exception_only(exc)[-1])
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_jobs() -> None:
    """Run JOBS with the importable rieszlag and print the results as JSON,
    with the path of the tree (the working directory) replaced by <tree>."""
    import rieszlag
    from rieszlag.cli import main

    tree = os.getcwd()
    results = [_run_job(main, argv) for argv in JOBS]
    sys.stdout.write(json.dumps({"package": rieszlag.__file__,
                                 "results": results}).replace(tree, "<tree>"))


def _tree_results(tree: Path) -> list:
    env = {**os.environ, "COLUMNS": "80",
           "PYTHONPATH": os.pathsep.join([str(tree / "src"),
                                          str(Path(__file__).parent)])}
    res = subprocess.run(
        [sys.executable, "-c", "import cli_identity; cli_identity.run_jobs()"],
        cwd=tree, env=env, stdout=subprocess.PIPE, text=True, check=True)
    out = json.loads(res.stdout)
    if not out["package"].startswith("<tree>"):
        raise RuntimeError(f"{tree}: imported rieszlag from {out['package']}")
    return out["results"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    args = parser.parse_args(argv)
    parent = _tree_results(args.parent.resolve())
    change = _tree_results(args.change.resolve())
    differ = 0
    for argv_, old, new in zip(JOBS, parent, change):
        parts = [key for key in ("stdout", "stderr") if old[key] != new[key]]
        if old["exit"] != new["exit"]:
            parts.append(f"exit {old['exit']} -> {new['exit']}")
        if parts:
            differ += 1
            print(f"differs ({', '.join(parts)}): {' '.join(argv_)}")
    print(f"{len(JOBS)} jobs: {len(JOBS) - differ} identical, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
