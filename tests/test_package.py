"""Every exported name resolves and has a caller: each module's ``__all__``
and every name the package ``__init__`` imports.  Every defaulted parameter
of an exported function is set by some caller in the package.  Every
module-level import in a package module other than ``__init__`` is used
there."""

import ast
import importlib
import inspect
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


# Defaulted parameters of exported functions that no package code passes by
# keyword but that stay on purpose, each with its reason.
DEFAULT_UNSET_ALLOWED = {
    "cli.main.argv": "the entry point; the console script passes none",
    "verify.check_prop33.nx": "cli passes it through **sampling",
    "verify.check_prop33.ny": "cli passes it through **sampling",
}


def test_every_default_has_a_caller():
    # a defaulted parameter is an option only when some caller in the
    # package sets it by keyword; one that nothing sets is a constant
    keywords = set()
    for path in Path(rieszlag.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", None) or \
                    getattr(node.func, "attr", None)
                keywords |= {(callee, kw.arg) for kw in node.keywords}
    unset = []
    for mod in MODULES:
        module = importlib.import_module(f"rieszlag.{mod}")
        for attr in module.__all__:
            fn = getattr(module, attr)
            if not inspect.isfunction(fn):
                continue
            params = inspect.signature(fn).parameters.values()
            unset += [f"{mod}.{attr}.{p.name}" for p in params
                      if p.default is not p.empty
                      and (attr, p.name) not in keywords]
    assert sorted(unset) == sorted(DEFAULT_UNSET_ALLOWED), ", ".join(unset)


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
    metrics = tracer.layer_metrics()
    assert metrics["kernels.laguerre_vec.calls"] == 1
    assert metrics["kernels.laguerre_vec.y_points"] == 1
    assert [getattr(mod, name) for mod, name in wrapped] == before


def test_scalar_kernel_wrappers_removed():
    # kernel_value(KernelSpec(...), x, y) is the one way to name a kernel
    from rieszlag import kernels
    for name in ("frac_kernel", "riesz_kernel_hermite",
                 "riesz_kernel_laguerre"):
        assert not hasattr(rieszlag, name), name
        assert not hasattr(kernels, name), name


def test_no_environment_switches():
    # settings such as the kernels' y-block size are module constants, not
    # knobs read from the environment
    reads = []
    for path in sorted(Path(rieszlag.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = []
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = [a.name for a in node.names]
            reads += [f"{path.stem}:{node.lineno}" for name in names
                      if name in ("environ", "getenv", "environb")]
    assert not reads, reads
