"""No module of the package reaches into another module's private names.

Every ``hypercuts`` module is parsed with ``ast``; importing a ``_name``
from another ``hypercuts`` module, or reading ``module._name`` off one, is a
violation.  Modules themselves may be imported by name (``_engine``
included), and dunder names are not private.
"""

import ast
import pathlib

import pytest

import hypercuts

PACKAGE = pathlib.Path(hypercuts.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def violations(source: str, filename: str = "<module>") -> list[str]:
    tree = ast.parse(source, filename)
    modules = set()  # local names bound to hypercuts modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            package = node.level > 0 or (node.module or "").split(".")[0] == "hypercuts"
            if not package:
                continue
            for alias in node.names:
                if node.module in (None, "hypercuts") and alias.name in MODULES:
                    modules.add(alias.asname or alias.name)
                elif _private(alias.name):
                    found.append(f"{filename}:{node.lineno} imports "
                                 f"{alias.name} from {node.module or '.'}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "hypercuts" and alias.asname:
                    modules.add(alias.asname)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            found.append(f"{filename}:{node.lineno} reads "
                         f"{node.value.id}.{node.attr}")
    return found


@pytest.mark.parametrize("module", MODULES)
def test_no_private_names_cross_modules(module):
    path = PACKAGE / f"{module}.py"
    assert violations(path.read_text(), path.name) == []


def test_guard_catches_each_kind_of_reach():
    assert violations("from .multiobjective import _criterion_costs") != []
    assert violations("from hypercuts.harness import _run_chunk") != []
    assert violations("from . import harness\nharness._build_problem") != []
    assert violations("import hypercuts.oracle as o\no._weights_column") != []
    assert violations("from ._engine import Walk, sample_step") == []
    assert violations("from . import _engine\n_engine.Walk") == []
    assert violations("from .hypergraph import __doc__") == []


def _loaded_names(tree) -> set[str]:
    """Every name the module reads: loaded ``Name`` ids and attribute names.
    Imports bind names without reading them, so a re-export is no caller."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _exported(tree) -> list[str]:
    """``__all__`` when the module declares one, else its public top-level
    functions and classes."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return [ast.literal_eval(e) for e in node.value.elts]
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def test_exported_falls_back_to_public_definitions():
    source = "X = 1\ndef f(): pass\nclass C: pass\ndef _g(): pass\n"
    assert _exported(ast.parse(source)) == ["f", "C"]
    assert _exported(ast.parse("__all__ = ['X']\n" + source)) == ["X"]


def test_public_names_have_a_production_caller():
    trees = {m: ast.parse((PACKAGE / f"{m}.py").read_text()) for m in MODULES}
    loaded = set().union(*(_loaded_names(t) for t in trees.values()))
    uncalled = sorted({name for tree in trees.values()
                       for name in _exported(tree)
                       if not name.endswith("__") and name not in loaded})
    assert uncalled == []


def unused_imports(source: str) -> list[str]:
    """Names an import binds that the module never reads nor lists in its
    ``__all__`` (``from __future__`` imports aside)."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = set(_exported(tree))
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read and name not in exported:
                    unused.append(f"line {node.lineno}: {name}")
    return unused


def test_unused_import_guard_catches_an_unread_name():
    assert unused_imports("import math\nfrom .x import a, b\nb()") == [
        "line 1: math", "line 2: a"]
    assert unused_imports("from .x import a\n__all__ = ['a']") == []
    assert unused_imports("from __future__ import annotations") == []
    assert unused_imports("import os.path\nos.sep") == []


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_read_or_exported(module):
    assert unused_imports((PACKAGE / f"{module}.py").read_text()) == []
