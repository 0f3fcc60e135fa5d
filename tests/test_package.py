"""Every exported name resolves: each module's ``__all__`` and every name
the package ``__init__`` imports."""

import ast
import importlib
from pathlib import Path

import rieszlag

MODULES = ("basis", "cli", "combinat", "kernels", "operators", "specfun",
           "verify")


def test_exports_resolve():
    missing = []
    for name in MODULES:
        mod = importlib.import_module(f"rieszlag.{name}")
        missing += [f"{name}.{attr}" for attr in mod.__all__
                    if not hasattr(mod, attr)]
    tree = ast.parse(Path(rieszlag.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            missing += [f"rieszlag.{a.name}" for a in node.names
                        if not hasattr(rieszlag, a.asname or a.name)]
    assert not missing, missing


def test_benchmark_tracer_installs(monkeypatch):
    # bench/spans.py wraps module attributes by name, and bench/run.py's
    # fresh interpreter calls a few entry points; both must keep resolving
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parents[1] / "bench"))
    spans = importlib.import_module("spans")
    from rieszlag import cli, kernels, operators, specfun

    wrapped = [(kernels, "bessel_i_scaled"), (operators, "pv_apply"),
               (cli, "analyze")]
    before = [getattr(mod, name) for mod, name in wrapped]
    tracer = spans.Tracer()
    tracer.install(rieszlag)
    try:
        kernels.riesz_kernel_laguerre_vec(1, 0.0, 1.0, [2.0])
        kernels.riesz_kernel_hermite_vec(1, 1, 0.0, [1.0])
        for n in (12, 14):
            specfun.gauss_legendre_panels([0.0, 1.0], n)
        specfun.gauss_jacobi_01(160, 0.0)
    finally:
        tracer.uninstall()
    assert tracer.layer_metrics()["kernels.laguerre_vec.calls"] == 1
    assert [getattr(mod, name) for mod, name in wrapped] == before
