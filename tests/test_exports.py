import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import roagrow

MODULES = sorted(m.name for m in pkgutil.iter_modules(roagrow.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(f"roagrow.{name}")
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert missing == []


def test_package_imports_resolve():
    # every name the package re-exports exists in, and is exported by, its module
    tree = ast.parse(Path(roagrow.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"roagrow.{node.module}")
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
            assert alias.name in module.__all__, f"{node.module}.{alias.name}"
            assert hasattr(roagrow, alias.asname or alias.name)
