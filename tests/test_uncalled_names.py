"""Every public top-level function and class of the package is reached
from live code in the package, or is listed in ``ALLOWED`` with a reason.

Code is live when it runs on import: a module-level statement that
defines no function or class, such as ``CHECKS = {...}`` or the
``__main__`` guard.  A function or class is live when live code names
it, and what it names is then live too; so a name that only dead code
uses is dead as well.  The package ``__init__`` only re-exports, so its
names keep nothing alive, and an import is not a use.  A name counts as
used wherever it appears as an identifier or an attribute, in any
module: the scan resolves no scopes.
"""
import ast
from pathlib import Path

import entrogeo

MODULES = sorted(p for p in Path(entrogeo.__file__).parent.glob("*.py") if p.name != "__init__.py")

# name -> why it stays although nothing in the package reaches it
ALLOWED: dict[str, str] = {}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names_used(node: ast.AST) -> set[str]:
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
    return used


def uncalled_public_names(sources: list[str]) -> set[str]:
    """The public top-level functions and classes in ``sources`` (module
    texts) that no live code reaches."""
    defs = {}  # name -> names its definition uses
    live = set()
    for text in sources:
        for stmt in ast.parse(text).body:
            if isinstance(stmt, _DEFS):
                defs.setdefault(stmt.name, set()).update(_names_used(stmt) - {stmt.name})
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                live |= _names_used(stmt)
    todo = list(live)
    while todo:
        for name in defs.get(todo.pop(), ()):
            if name not in live:
                live.add(name)
                todo.append(name)
    return {name for name in defs if not name.startswith("_") and name not in live}


def _package_sources() -> list[str]:
    return [p.read_text() for p in MODULES]


def test_every_public_name_is_reached():
    # an allow-list entry whose name is reached, or gone, is stale
    dead = uncalled_public_names(_package_sources())
    assert dead == ALLOWED.keys(), (
        f"reached by nothing in the package: {sorted(dead - ALLOWED.keys())}; "
        f"stale in ALLOWED: {sorted(ALLOWED.keys() - dead)}")


def test_an_added_uncalled_function_is_found():
    extra = "def orphan():\n    return helper()\n\n\nclass Helper:\n    pass\n\n\n" \
            "def helper():\n    return Helper()\n"
    sources = _package_sources()
    added = uncalled_public_names(sources + [extra]) - uncalled_public_names(sources)
    assert added == {"orphan", "helper", "Helper"}
