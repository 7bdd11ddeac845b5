import ast
import importlib
import pkgutil
import re
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


ROOT = Path(roagrow.__file__).resolve().parent
# the reader for the mask format: a run writes masks and nothing reads them back
TEST_ONLY = {"oracle.load_mask_pgm"}


def _library_text() -> str:
    """The package's source without its ``__all__`` lists and the package's
    re-export imports, which name every export without using it."""
    parts = []
    for path in sorted(ROOT.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        for node in ast.parse(source).body:
            is_all = isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets)
            if is_all or (path.name == "__init__.py" and isinstance(node, ast.ImportFrom)):
                lines[node.lineno - 1:node.end_lineno] = [""] * (node.end_lineno - node.lineno + 1)
        parts += lines
    return "\n".join(parts)


def test_every_public_name_has_a_caller():
    # a public name that only the tests use belongs in the tests
    library = _library_text()
    outside = "\n".join(path.read_text(encoding="utf-8")
                        for folder in ("perfbench", "tools")
                        for path in sorted((ROOT.parents[1] / folder).glob("*.py")))
    unused = []
    for name in MODULES:
        for export in getattr(importlib.import_module(f"roagrow.{name}"), "__all__", []):
            word = re.compile(rf"\b{re.escape(export)}\b")
            own_line = re.compile(rf"^\s*(?:def|class) {re.escape(export)}\b", re.M)
            if not (word.search(own_line.sub("", library)) or word.search(outside)):
                unused.append(f"{name}.{export}")
    assert sorted(set(unused) - TEST_ONLY) == []
