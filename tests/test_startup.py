"""What a command loads: the package root resolves its names lazily, the CLI
reads every library name through it, and a matrix file loads only its parser."""

import argparse
import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quasimm

SRC = str(Path(quasimm.__file__).parent.parent)

# Runs `python -m quasimm ARGS` in-process, then prints the modules it loaded;
# it imports json for its own output only after listing them.
_PROBE = """
import runpy, sys
sys.argv = ["quasimm"] + sys.argv[1:]
code = None
try:
    runpy.run_module("quasimm", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
modules = sorted(sys.modules)
import json
print(json.dumps([code, modules]))
"""


def _loaded(*args, cwd=None):
    # -S keeps site hooks out, so every module listed was loaded by the command.
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _PROBE, *args],
        capture_output=True, text=True, cwd=cwd, env=env, check=True,
    )
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0, proc.stderr
    return proc.stdout.splitlines()[0], set(modules)


def test_expand_loads_only_the_element_modules():
    output, modules = _loaded("expand", "m", "1")
    assert output == "M[1]"
    assert {m for m in modules if m.startswith("quasimm")} == {
        "quasimm", "quasimm.cli", "quasimm.qsym", "quasimm.combinatorics"
    }
    assert "dataclasses" not in modules and "quasimm.engine" not in modules
    assert "pathlib" not in modules and "json" not in modules


def test_expand_loads_json_only_to_write_it(tmp_path):
    output, modules = _loaded("expand", "m", "1", "--json", "out.json", cwd=tmp_path)
    assert output == "M[1]" and "json" in modules
    assert json.loads((tmp_path / "out.json").read_text()) == {
        "basis": "M", "terms": [{"index": "1", "coeff": "1"}]
    }


def test_qimm_loads_neither_verification_nor_dataclasses(tmp_path):
    (tmp_path / "m.csv").write_text("1,2\n3,4\n")
    output, modules = _loaded("qimm", "m.csv", "qs", "2", cwd=tmp_path)
    assert output == "10"
    assert "quasimm.engine" in modules
    assert "quasimm.verification" not in modules and "dataclasses" not in modules
    assert "pathlib" not in modules
    assert "csv" in modules and "json" not in modules


def test_a_json_matrix_loads_no_csv(tmp_path):
    (tmp_path / "m.json").write_text('{"n": 2, "entries": [[1, 2], [3, 4]]}')
    output, modules = _loaded("det", "m.json", cwd=tmp_path)
    assert output == "-2"
    assert "json" in modules and "csv" not in modules


def test_verify_loads_no_dataclasses():
    output, modules = _loaded("verify", "all", "--max-n", "3")
    assert output.split() == ["check", "expected", "got", "status"]
    assert "quasimm.verification" in modules and "dataclasses" not in modules
    assert "json" not in modules and "csv" not in modules


def test_the_cli_names_only_public_names():
    from quasimm import cli

    parser = cli._build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    functions = {c: p.get_default("function") for c, p in commands.choices.items()}
    assert {c for c, f in functions.items() if f} == {"qimm", "imm", "d2", "det", "perm"}
    names = [*cli._BASIS_BUILDERS.values(), *cli._VERIFY_SCOPES.values(), *filter(None, functions.values())]
    assert set(names) <= set(quasimm.__all__), set(names) - set(quasimm.__all__)


def test_the_cli_imports_from_the_package_only_the_parser_choices():
    tree = ast.parse(Path(quasimm.__file__).with_name("cli.py").read_text())
    relative = [
        (node.module, [alias.name for alias in node.names])
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
    ]
    assert relative == [("qsym", ["BASES", "VARIANTS"])]
    called = {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "package"
    }
    assert called and called <= set(quasimm.__all__), called - set(quasimm.__all__)


def test_public_names_resolve_to_their_modules():
    assert len(set(quasimm.__all__)) == len(quasimm.__all__)
    for name in quasimm.__all__:
        value = getattr(quasimm, name)
        assert getattr(importlib.import_module(value.__module__), name) is value, name
    assert quasimm.CoefficientTable is quasimm.engine.CoefficientTable
    assert set(quasimm.__all__) <= set(dir(quasimm))


# Duplicates, wrappers and test-only oracles taken out of the package; the
# oracles live in tests/oracles.py.
REMOVED = {
    "characters": ("ClassFunction", "epsilon_coeff", "phi_coeff"),
    "combinatorics": (
        "coarsenings", "descent_set", "dominance_order", "ell_stat", "lp_stat", "refines",
        "split_blocks",
    ),
    "engine": ("_integer_rows",),
    "qsym": (
        "count_composition_tableaux", "m_to_power_row", "power_to_m_row", "_to_power", "_to_m",
    ),
}


@pytest.mark.parametrize("module", sorted(REMOVED))
def test_removed_names_stay_out_of_the_package(module):
    home = importlib.import_module(f"quasimm.{module}")
    for name in REMOVED[module]:
        assert name not in quasimm.__all__, name
        assert not hasattr(home, name), name


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        quasimm.no_such_name
    assert not hasattr(quasimm, "descend")
    with pytest.raises(ImportError):
        from quasimm import no_such_name  # noqa: F401
