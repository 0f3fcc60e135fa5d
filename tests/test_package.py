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
