"""Every exported name resolves and has a caller: each module's ``__all__``
and every name the package ``__init__`` imports.  Every module-level import
in a package module other than ``__init__`` is used there."""

import ast
import importlib
from pathlib import Path

import rieszlag

MODULES = ("basis", "cli", "combinat", "kernels", "operators", "specfun",
           "verify")

# Exported names with no caller in the package or the acceptance criteria
# that stay on purpose, each with its reason.
UNCALLED_ALLOWED = {
    "verify.check_maximal_domination":
        "the paper's maximal-operator domination argument is part of the "
        "verification spine, though no CLI command calls it",
}

# Module-level imports with no use in their module that stay on purpose,
# each with its reason.
UNUSED_IMPORT_ALLOWED = {
    "basis.gauss_jacobi_01": "bench/spans.py wraps it",
}


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


def _references(path):
    """(name, enclosing top-level definition) of each name a file uses."""
    refs = set()
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, (ast.Name, ast.Attribute)):
                refs.add((getattr(node, "id", None) or node.attr, owner))
    return refs


def test_every_export_has_a_caller():
    # a name counts as called when code in the package outside its own
    # definition, or an acceptance criterion, uses it
    src = Path(rieszlag.__file__).parent
    refs = [(p.stem, name, owner) for p in src.glob("*.py")
            for name, owner in _references(p)]
    acceptance = {name for name, _ in _references(
        Path(__file__).with_name("test_acceptance.py"))}
    uncalled = [f"{mod}.{attr}" for mod in MODULES
                for attr in importlib.import_module(f"rieszlag.{mod}").__all__
                if attr not in acceptance
                and not any(name == attr and (stem, owner) != (mod, attr)
                            for stem, name, owner in refs)]
    assert sorted(uncalled) == sorted(UNCALLED_ALLOWED), ", ".join(uncalled)


def test_every_import_is_used():
    # __init__ imports to re-export; every other module imports to use
    unused = []
    for path in sorted(Path(rieszlag.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = []
        for node in tree.body:
            if isinstance(node, ast.Import):
                imported += [a.asname or a.name.split(".")[0]
                             for a in node.names]
            elif isinstance(node, ast.ImportFrom) and \
                    node.module != "__future__":
                imported += [a.asname or a.name for a in node.names]
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += [f"{path.stem}.{name}" for name in imported
                   if name not in used]
    assert sorted(unused) == sorted(UNUSED_IMPORT_ALLOWED), ", ".join(unused)


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
