"""Only combinatorics knows how a value is frozen.

combinatorics.ReadOnly builds, compares, hashes, copies and pickles every
matrix, element and table.  Any other module of the package that builds
around it (object.__new__, object.__setattr__), holds its own read-only
mapping (MappingProxyType), or defines its own equality, hash, pickling or
attribute guard fails this test.
"""

import ast
from pathlib import Path

import quasimm

PACKAGE_DIR = Path(quasimm.__file__).parent
HOME = "combinatorics"
VALUE_METHODS = {"__eq__", "__hash__", "__reduce__", "__setattr__", "__delattr__"}


def _freezing(path) -> list:
    """(line, what) for each place where the module at path freezes a value itself, in order."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in VALUE_METHODS:
            found.append((node.lineno, f"def {node.name}"))
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and node.id in VALUE_METHODS:
            found.append((node.lineno, f"{node.id} ="))
        elif isinstance(node, ast.Attribute) and node.attr in ("__new__", "__setattr__"):
            if isinstance(node.value, ast.Name) and node.value.id == "object":
                found.append((node.lineno, f"object.{node.attr}"))
        elif isinstance(node, ast.Attribute) and node.attr == "MappingProxyType":
            found.append((node.lineno, "MappingProxyType"))
        elif isinstance(node, ast.alias) and node.name == "MappingProxyType":
            found.append((node.lineno, "import MappingProxyType"))
    return sorted(found)


def test_only_combinatorics_freezes_a_value():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(modules) > 5 and _freezing(PACKAGE_DIR / f"{HOME}.py")
    found = {path.stem: places for path in modules if path.stem != HOME and (places := _freezing(path))}
    assert found == {}


def test_the_scan_sees_each_way_to_freeze_a_value(tmp_path):
    module = tmp_path / "frozen.py"
    module.write_text(
        "import types\n"
        "from types import MappingProxyType as View\n"
        "\n"
        "\n"
        "class Value:\n"
        "    __slots__ = ('x',)\n"
        "    __hash__ = None\n"
        "\n"
        "    def __init__(self):\n"
        "        object.__setattr__(self, 'x', types.MappingProxyType({}))\n"
        "\n"
        "    def __eq__(self, other):\n"
        "        return object.__new__(Value)\n"
        "\n"
        "    def __reduce__(self):\n"
        "        return Value, ()\n"
        "\n"
        "    def __setattr__(self, name, value):\n"
        "        pass\n"
        "\n"
        "    def __delattr__(self, name):\n"
        "        pass\n"
        "\n"
        "    def __repr__(self):\n"
        "        return super().__new__\n"
    )
    assert _freezing(module) == [
        (2, "import MappingProxyType"),
        (7, "__hash__ ="),
        (10, "MappingProxyType"),
        (10, "object.__setattr__"),
        (12, "def __eq__"),
        (13, "object.__new__"),
        (15, "def __reduce__"),
        (18, "def __setattr__"),
        (21, "def __delattr__"),
    ]
