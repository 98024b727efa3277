"""The training loop knows no model: ``training.py`` imports no package module but
``augment``, so each model's loss, gradient and forward live in its own module."""

import ast
import os

PACKAGE = os.path.join(os.path.dirname(__file__), "..", "src", "qcnnlab")


def _package_imports(module):
    """The package modules that ``module`` imports, at any depth of its code."""
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=module)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("qcnnlab"):
            rest = node.module.split(".")[1:]
            found.update(rest[:1] or [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("qcnnlab."))
    return found


def test_training_imports_no_package_module_but_augment():
    assert _package_imports("training.py") == {"augment"}
