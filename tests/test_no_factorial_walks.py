"""No n! route in the package: only combinatorics lists permutations, and
the package lists them only for the S_3 worked examples."""

import ast
from pathlib import Path

import quasimm

PACKAGE_DIR = Path(quasimm.__file__).parent


def _calls(name):
    """(module, call) for each call in the package to a function called name."""
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if called == name:
                    yield path.stem, node


def test_only_combinatorics_calls_permutations():
    callers = {module for module, _ in _calls("permutations")}
    assert callers == {"combinatorics"}


def test_permutations_are_enumerated_only_for_order_three():
    calls = list(_calls("enumerate_permutations"))
    assert calls
    for module, call in calls:
        literal = (
            len(call.args) == 1
            and not call.keywords
            and isinstance(call.args[0], ast.Constant)
            and call.args[0].value == 3
        )
        assert literal, f"{module}: line {call.lineno}: {ast.unparse(call)}"
