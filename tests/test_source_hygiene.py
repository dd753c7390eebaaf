"""Source hygiene of the package, read with the standard library's ``ast``:
no module imports a name it does not use or export, and no private
top-level function or class is left without a caller."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "panel_causal"
MODULES = {path.name: ast.parse(path.read_text(), filename=str(path))
           for path in sorted(SRC.glob("*.py"))}


def _exported(tree):
    """The names a module lists in its ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _reads(node):
    """Every name that ``node`` reads: bare names and attribute names."""
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def _imports(node):
    """The names that the ``from`` imports of ``node`` take from a module."""
    return {a.name for n in ast.walk(node) if isinstance(n, ast.ImportFrom) for a in n.names}


def test_every_module_was_parsed():
    assert {"__init__.py", "estimators.py", "panel_data.py"} <= set(MODULES)


@pytest.mark.parametrize("module", sorted(MODULES))
def test_every_imported_name_is_used_or_exported(module):
    tree = MODULES[module]
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {a.asname or a.name for a in node.names}
    unused = imported - _reads(tree) - _exported(tree)
    assert not unused, f"{module} imports {sorted(unused)} and neither uses nor exports them"


def test_every_private_definition_has_a_caller():
    # A caller is a reference from anywhere in the package outside the
    # definition itself; an import counts, as the test above checks that
    # the importing module uses the name.
    tops = [(top, _reads(top) | _imports(top)) for tree in MODULES.values() for top in tree.body]
    uncalled = [
        f"{module}:{node.name}"
        for module, tree in MODULES.items() for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and not any(node.name in refs for top, refs in tops if top is not node)
    ]
    assert not uncalled, f"private definitions without a caller: {uncalled}"
