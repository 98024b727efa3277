"""Every public top-level name of the package is read somewhere that matters.

A function, class or constant that only the unit tests touch is dead weight
in the program, so the package itself or the acceptance tests must refer to
it: by name, as an attribute, or in an import.  Docstrings and comments do
not count.
"""

import ast
import os

import pytest

HERE = os.path.dirname(__file__)
PACKAGE = os.path.join(HERE, "..", "src", "qcnnlab")
MODULES = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def _defined(stmt):
    """The names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return set()
    return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}


def _referenced(stmt):
    """The names a statement reads or imports; its own assignment targets excluded."""
    stores = {id(n) for n in ast.walk(stmt)
              if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and id(node) not in stores:
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    return names


def _references():
    """(file, line, names read) per top-level statement of the package and
    the acceptance tests."""
    paths = [os.path.join(PACKAGE, f) for f in MODULES]
    paths.append(os.path.join(HERE, "test_acceptance.py"))
    return [(path, stmt.lineno, _referenced(stmt)) for path in paths for stmt in _parse(path).body]


@pytest.mark.parametrize("module", MODULES)
def test_every_public_name_is_referenced_outside_its_definition(module):
    path = os.path.join(PACKAGE, module)
    references = _references()
    unread = []
    for definition in _parse(path).body:
        for name in sorted(_defined(definition)):
            if not name.startswith("_") and not any(
                    name in names for p, line, names in references
                    if (p, line) != (path, definition.lineno)):
                unread.append(name)
    assert not unread, f"{module}: public names read nowhere in the package or the acceptance tests: {unread}"
