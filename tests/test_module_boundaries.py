"""No package module reads a sibling's private names.

A name with a leading underscore belongs to its module.  A rule another
module needs lives under a public name in its home module (the exact-number
rule and integer_terms live in combinatorics), so a module that imports
`_y` from a sibling, or reads `x._y` after `from . import x` or after
`from .x import x_name` (a class member such as `QSym._of`), fails this
test.  Dunder names such as __version__ are not private.
"""

import ast
from pathlib import Path

import quasimm

PACKAGE_DIR = Path(quasimm.__file__).parent


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_reads(package_dir=PACKAGE_DIR) -> list:
    """(module, sibling, name) for every private name a module reads from a sibling."""
    siblings = {path.stem for path in package_dir.glob("*.py")}
    found = []
    for path in sorted(package_dir.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        aliases = {}  # local name -> sibling, from `from . import x` or `from .x import y` [as z]
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or node.level != 1:
                continue
            for alias in node.names:
                if node.module is None and alias.name in siblings:
                    aliases[alias.asname or alias.name] = alias.name
                elif node.module is not None and _private(alias.name):
                    found.append((path.stem, node.module, alias.name))
                elif node.module is not None:
                    aliases[alias.asname or alias.name] = node.module
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases
                and _private(node.attr)
            ):
                found.append((path.stem, aliases[node.value.id], node.attr))
    return sorted(found)


def test_no_module_reads_a_sibling_private_name():
    assert _private_reads() == []


def test_the_scan_sees_each_way_of_reading_a_private_name(tmp_path):
    (tmp_path / "home.py").write_text("_hidden = 1\npublic = 2\nclass Kind:\n    _made = 3\n")
    (tmp_path / "reader.py").write_text(
        "from .home import _hidden, public\n"
        "from .home import Kind as K\n"
        "from . import home\n"
        "def f(self):\n"
        "    from . import home as h\n"
        "    return home._table, h._rule, home.public, home.__name__, self._own\n"
        "def g(kind):\n"
        "    return K._made, K.__name__, public._size, kind._made\n"
    )
    assert _private_reads(tmp_path) == [
        ("reader", "home", "_hidden"),
        ("reader", "home", "_made"),
        ("reader", "home", "_rule"),
        ("reader", "home", "_size"),
        ("reader", "home", "_table"),
    ]
