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
