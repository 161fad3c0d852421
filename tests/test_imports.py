"""Every name a package module imports is used in it or listed in its
``__all__``, and every ``__all__`` entry is defined or imported there; and
the quantification core imports no module outside it and never runs a
model. Standard library only, so it runs wherever the suite runs."""

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


# The quantification core works on alpha alone, whatever produced it.
CORE = ("special", "dirichlet", "losses", "metrics")


def core_violations(source: str) -> tuple:
    """(package modules the module imports from outside ``CORE``, relative
    by their names and absolute by their dotted paths, and the number of its
    ``forward_batch`` calls)."""
    outside, forwards = set(), 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            outside.update(node.module.split(".")[0] if node.module else alias.name
                           for alias in node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) else [
                alias.name for alias in node.names]
            outside.update(n for n in names if n.split(".")[0] == "evidunc")
        elif isinstance(node, ast.Call):
            func = node.func
            forwards += (func.attr if isinstance(func, ast.Attribute) else
                         getattr(func, "id", None)) == "forward_batch"
    return sorted(outside - set(CORE)), forwards


def test_layering_checker_finds_a_model_in_the_core():
    source = ("from .dirichlet import checked_alpha\nfrom .enn import evaluate\n"
              "from . import pools\nimport evidunc.sampling\n"
              "def f(model, x):\n    return model.forward_batch(x)\n")
    assert core_violations(source) == (["enn", "evidunc.sampling", "pools"], 1)


@pytest.mark.parametrize("name", CORE)
def test_core_imports_only_the_core_and_runs_no_model(name):
    path = SOURCES[0].parent / f"{name}.py"
    assert core_violations(path.read_text()) == ([], 0)


def test_experiment_driver_runs_no_model():
    # A finished run's closing alphas make both its report and its
    # histograms, so the run-directory writer never forwards the model.
    path = SOURCES[0].parent / "experiments.py"
    assert core_violations(path.read_text())[1] == 0
