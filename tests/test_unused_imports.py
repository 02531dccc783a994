"""Every name a module of the package, a test module or the golden
corpus script imports is used there; the package ``__init__`` re-exports,
so it is exempt."""
import ast
from pathlib import Path

import pytest

import entrogeo

TESTS = Path(__file__).parent
MODULES = [
    *sorted(p for p in Path(entrogeo.__file__).parent.glob("*.py") if p.name != "__init__.py"),
    *sorted(TESTS.glob("*.py")),
    TESTS / "golden" / "regen.py",
]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported.items() if name not in used}
    assert not unused, f"{path.name}: imported and never used: {unused}"
