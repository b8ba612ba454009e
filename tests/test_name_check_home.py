"""Only combinatorics refuses a name.

combinatorics.one_of is the one check of a name a caller passes (a basis, a
power-sum variant or a table key), and its refusal reads "unknown {what}
...".  Any other module of the package holding a string or an f-string that
starts with "unknown " has written a name check of its own, and fails this
test.
"""

import ast
from pathlib import Path

import quasimm

PACKAGE_DIR = Path(quasimm.__file__).parent
HOME = "combinatorics"
SHAPE = "unknown "


def _name_refusals(path) -> list:
    """(line, text) for each string or f-string in the module at path that starts with SHAPE.

    An f-string starts with its first part; its later parts start nothing.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    joined = [node for node in ast.walk(tree) if isinstance(node, ast.JoinedStr)]
    later = {id(part) for node in joined for part in node.values[1:]}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in later:
            if node.value.startswith(SHAPE):
                found.append((node.lineno, node.value))
    return sorted(found)


def test_only_combinatorics_refuses_a_name():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(modules) > 5 and _name_refusals(PACKAGE_DIR / f"{HOME}.py")
    found = {
        path.stem: refusals
        for path in modules
        if path.stem != HOME and (refusals := _name_refusals(path))
    }
    assert found == {}


def test_the_scan_sees_each_shape_of_a_name_refusal(tmp_path):
    module = tmp_path / "refusals.py"
    module.write_text(
        "def check(colour):\n"
        "    if colour not in ('red', 'blue'):\n"
        "        raise ValueError('unknown colour')\n"
        "    if not colour:\n"
        "        raise ValueError(f'unknown colour {colour!r}; expected red or blue')\n"
        "    note = 'an unknown colour is refused'\n"
        "    return f'{colour} is not unknown ' + note\n"
    )
    assert _name_refusals(module) == [
        (3, "unknown colour"),
        (5, "unknown colour "),
    ]
