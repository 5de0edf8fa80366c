"""Every function and class of the package has a caller.

A caller is a reference in the package or a demo, outside the name's own
definition; tests do not count. A decorated function (a CLI command) is
called through the decorator that registers it. Public names and private
module-level helpers are both checked, so a deleted code path cannot
leave an orphan helper behind.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ganfs"


def _public_names(tree):
    """Top-level classes and undecorated functions not named with _."""
    for stmt in tree.body:
        registered = isinstance(stmt, ast.FunctionDef) and stmt.decorator_list
        if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                and not registered and not stmt.name.startswith("_")):
            yield stmt.name


def _private_functions(tree):
    """Top-level functions named with _."""
    for stmt in tree.body:
        if (isinstance(stmt, ast.FunctionDef)
                and stmt.name.startswith("_")):
            yield stmt.name


def _references(tree):
    """(top-level definition name or None, referenced identifier) pairs."""
    for stmt in tree.body:
        owner = (stmt.name if isinstance(
            stmt, (ast.FunctionDef, ast.ClassDef)) else None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                yield owner, node.id
            elif isinstance(node, ast.Attribute):
                yield owner, node.attr


def _uncalled(names):
    """``module::name`` of each name that ``names(tree)`` yields for a
    package module and that nothing references outside its definition."""
    defined, used = [], set()
    for path in sorted(PACKAGE.glob("*.py")) + sorted(
            (ROOT / "demos").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        if path.parent == PACKAGE:
            defined += [(path.name, name) for name in names(tree)]
        used |= {(path.name, owner, name)
                 for owner, name in _references(tree)}
    return [f"{module}::{name}" for module, name in defined
            if not any(ref == name and (where, owner) != (module, name)
                       for where, owner, ref in used)]


def test_every_public_function_and_class_has_a_caller():
    assert _uncalled(_public_names) == []


def test_every_private_helper_has_a_caller():
    assert _uncalled(_private_functions) == []
