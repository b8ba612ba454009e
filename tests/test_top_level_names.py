"""No module defines a top-level name twice.

A second `def`, `class`, import or assignment of a module-level name
silently replaces the first, so every caller written for the first one
reads the second.  This parses each module of the package and of the tests.
"""

import ast
from pathlib import Path

import quasimm

SOURCES = [
    *sorted(Path(quasimm.__file__).parent.glob("*.py")),
    *sorted(Path(__file__).parent.glob("*.py")),
]


def _bound_names(node) -> list:
    """The names a module-level statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return [(alias.asname or alias.name).split(".")[0] for alias in node.names]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign) and node.value is not None:  # not an annotation alone
        targets = [node.target]
    else:
        return []
    stored = (n for target in targets for n in ast.walk(target) if isinstance(n, ast.Name))
    return [n.id for n in stored if isinstance(n.ctx, ast.Store)]


def _redefinitions(path) -> list:
    """(name, first line, later line) for each top-level name bound again."""
    first, found = {}, []
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        for name in _bound_names(node):
            if name in first:
                found.append((name, first[name], node.lineno))
            else:
                first[name] = node.lineno
    return found


def test_no_module_defines_a_top_level_name_twice():
    assert len(SOURCES) > 10
    twice = {path.name: found for path in SOURCES if (found := _redefinitions(path))}
    assert twice == {}


def test_a_second_definition_is_found(tmp_path):
    module = tmp_path / "twice.py"
    module.write_text("import os\nX = 1\n\n\ndef f():\n    pass\n\n\nclass f:\n    pass\n\n\nos, X = 2, 3\n")
    assert _redefinitions(module) == [("f", 5, 9), ("os", 1, 13), ("X", 2, 13)]
