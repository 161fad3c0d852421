"""Every name a package module imports is used in it or listed in its
``__all__``, and every ``__all__`` entry is defined or imported there.
Standard library only, so it runs wherever the suite runs."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "evidunc").glob("*.py"))


def unused_names(source: str) -> tuple:
    """(names the module imports but neither uses nor exports, ``__all__``
    entries the module neither defines nor imports)."""
    tree = ast.parse(source)
    imported, used, exported = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            exported.update(ast.literal_eval(node.value))
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(target.id for target in targets if isinstance(target, ast.Name))
    return sorted(imported - used - exported), sorted(exported - defined - imported)


def test_checker_finds_an_unused_import():
    source = ("import os\nimport numpy as np\nfrom json import dumps, loads\n"
              "__all__ = ['loads']\nnp.ones(1)\n")
    assert unused_names(source) == (["dumps", "os"], [])
    # A leftover __all__ entry must not count its stale import as used.
    source = ("from json import loads\nLIMIT: int = 3\nclass A:\n    pass\n"
              "def f():\n    gone = 1\n__all__ = ['A', 'LIMIT', 'f', 'gone', 'loads']\n")
    assert unused_names(source) == ([], ["gone"])


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_names(path.read_text()) == ([], [])
