import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import quasimm

# The child finds the package where this process found it, from any shell.
CHILD_ENV = dict(os.environ, PYTHONPATH=str(Path(quasimm.__file__).parent.parent))

PRIMES_CSV = "2,3,5\n7,11,13\n17,19,23\n"
SMALL_CSV = "1,2\n3,4\n"


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "quasimm", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=CHILD_ENV,
    )


@pytest.fixture()
def primes_path(tmp_path):
    path = tmp_path / "primes.csv"
    path.write_text(PRIMES_CSV)
    return str(path)


@pytest.fixture()
def small_path(tmp_path):
    path = tmp_path / "small.csv"
    path.write_text(SMALL_CSV)
    return str(path)


def test_expand_golden_outputs():
    cases = {
        ("qs", "2,1", "M"): "M[2,1] + M[1,1,1]",
        ("s", "1,1,1", "M"): "M[1,1,1]",
        ("p", "2,1", "Psi"): "Psi[2,1] + Psi[1,2]",
        ("p", "2,1", "Phi"): "Phi[2,1] + Phi[1,2]",
        ("qs", "1,2", "M"): "M[1,2] + M[1,1,1]",
        ("h", "2,1", "M"): "M[3] + 2*M[2,1] + 2*M[1,2] + 3*M[1,1,1]",
        ("e", "2", "M"): "M[1,1]",
    }
    for (basis, index, target), expected in cases.items():
        result = run_cli("expand", basis, index, "--target", target)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == expected
        assert result.stderr == ""


def test_expand_exponent_shorthand():
    long_form = run_cli("expand", "e", "1,1,1,1")
    short_form = run_cli("expand", "e", "1^4")
    braced = run_cli("expand", "e", "1^{4}")
    assert long_form.returncode == short_form.returncode == braced.returncode == 0
    assert long_form.stdout == short_form.stdout == braced.stdout
    mixed = run_cli("expand", "qs", "2,1^2")
    plain = run_cli("expand", "qs", "2,1,1")
    assert mixed.stdout == plain.stdout


def test_expand_builds_long_shapes():
    hook, column = "1," * 998 + "1", "1," * 1199 + "1"
    for basis, shape, expected in [
        ("qs", "2,1^998", f"M[2,{hook[2:]}] + M[1,{hook}]"),
        ("s", "1^1200", f"M[{column}]"),
        ("m", "1^1200", f"M[{column}]"),
    ]:
        result = run_cli("expand", basis, shape)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == expected and result.stderr == ""


def test_expand_is_deterministic():
    first = run_cli("expand", "h", "2,1")
    second = run_cli("expand", "h", "2,1")
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0


def test_expand_json_payload(tmp_path):
    out = tmp_path / "expansion.json"
    result = run_cli("expand", "s", "2,1", "--json", str(out))
    assert result.returncode == 0
    payload = json.loads(out.read_text())
    assert payload == {
        "basis": "M",
        "terms": [
            {"index": "2,1", "coeff": "1"},
            {"index": "1,2", "coeff": "1"},
            {"index": "1,1,1", "coeff": "2"},
        ],
    }


def test_expand_usage_errors():
    not_partition = run_cli("expand", "m", "1,2")
    assert not_partition.returncode == 2
    assert "error:" in not_partition.stderr
    malformed = run_cli("expand", "m", "2,x")
    assert malformed.returncode == 2
    unknown_basis = run_cli("expand", "w", "2")
    assert unknown_basis.returncode == 2


def test_qimm_command(primes_path):
    psi = run_cli("qimm", primes_path, "qs", "2,1")
    assert psi.returncode == 0
    assert psi.stdout.strip() == "3278"
    phi = run_cli("qimm", primes_path, "qs", "2,1", "--variant", "phi")
    assert phi.returncode == 0
    assert phi.stdout.strip() == "1950"



def test_basis_names_take_either_case(primes_path):
    for target in ("Psi", "psi", "PSI"):
        result = run_cli("expand", "qs", "2,1", "--target", target)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "1/2*Psi[2,1] - 1/2*Psi[1,2] + 1/6*Psi[1,1,1]"
    assert run_cli("expand", "qs", "2,1", "--target", "m").stdout.strip() == "M[2,1] + M[1,1,1]"
    assert run_cli("expand", "p", "2,1", "--target", "phi").stdout.strip() == "Phi[2,1] + Phi[1,2]"
    spellings = (("Psi", "3278"), ("psi", "3278"), ("PSI", "3278"), ("PHI", "1950"), ("phi", "1950"))
    for variant, value in spellings:
        result = run_cli("qimm", primes_path, "qs", "2,1", "--variant", variant)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == value
    for args in (
        ("expand", "qs", "2,1", "--target", "F"),
        ("qimm", primes_path, "qs", "2,1", "--variant", "M"),
    ):
        result = run_cli(*args)
        assert result.returncode == 2, args
        assert "invalid choice" in result.stderr
    assert "{M,Psi,Phi}" in run_cli("expand", "--help").stdout
    assert "{Psi,Phi}" in run_cli("qimm", "--help").stdout


def test_options_are_scoped_to_the_commands_that_read_them(primes_path):
    for args in (
        ("det", primes_path, "--variant", "phi"),
        ("expand", "m", "2", "--max-n", "3"),
        ("toeplitz", "3", "--variant", "psi"),
        ("verify", "all", "--variant", "phi"),
        ("qimm", primes_path, "qs", "2,1", "--max-n", "3"),
    ):
        result = run_cli(*args)
        assert result.returncode == 2, args
        assert "unrecognized arguments" in result.stderr

def test_qimm_degree_mismatch(small_path):
    result = run_cli("qimm", small_path, "qs", "2,1")
    assert result.returncode == 2
    assert "does not match" in result.stderr


def test_matrix_scalar_commands(primes_path, small_path):
    assert run_cli("d2", primes_path).stdout.strip() == "-316"
    assert run_cli("imm", primes_path, "2,1").stdout.strip() == "-316"
    assert run_cli("imm", primes_path, "1,1,1").stdout.strip() == "-78"
    assert run_cli("det", primes_path).stdout.strip() == "-78"
    assert run_cli("perm", primes_path).stdout.strip() == "3746"
    assert run_cli("det", small_path).stdout.strip() == "-2"
    assert run_cli("perm", small_path).stdout.strip() == "10"


def test_scalar_json_payload(tmp_path, small_path):
    out = tmp_path / "det.json"
    result = run_cli("det", small_path, "--json", str(out))
    assert result.returncode == 0
    assert json.loads(out.read_text()) == {"value": "-2"}


def test_fractional_csv_entries(tmp_path):
    path = tmp_path / "rational.csv"
    path.write_text("1/2,1\n1,1/2\n")
    result = run_cli("det", str(path))
    assert result.returncode == 0
    assert result.stdout.strip() == "-3/4"


def test_det_reads_a_csv_with_a_byte_order_mark(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_text(SMALL_CSV, encoding="utf-8-sig")
    result = run_cli("det", str(path))
    assert (result.returncode, result.stdout, result.stderr) == (0, "-2\n", "")


def test_json_matrix_input(tmp_path):
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps({"n": 2, "entries": [["1", "2"], ["3", "4"]]}))
    result = run_cli("perm", str(path))
    assert result.returncode == 0
    assert result.stdout.strip() == "10"


def test_input_errors_exit_one(tmp_path):
    missing = run_cli("det", str(tmp_path / "nope.csv"))
    assert missing.returncode == 1
    assert "error:" in missing.stderr
    ragged = tmp_path / "ragged.json"
    ragged.write_text(json.dumps({"entries": [[1, 2], [3]]}))
    assert run_cli("det", str(ragged)).returncode == 1
    string_n = tmp_path / "string_n.json"
    string_n.write_text(json.dumps({"n": "2", "entries": [[1, 2], [3, 4]]}))
    result = run_cli("det", str(string_n))
    assert result.returncode == 1
    assert "'n' must be an integer" in result.stderr
    array = tmp_path / "array.json"
    array.write_text(json.dumps([[1, 2], [3, 4]]))
    result = run_cli("det", str(array))
    assert result.returncode == 1
    assert "matrix JSON must be an object with an 'entries' key" in result.stderr
    booleans = tmp_path / "booleans.json"
    booleans.write_text(json.dumps({"entries": [[True, False], [False, True]]}))
    result = run_cli("det", str(booleans))
    assert result.returncode == 1
    assert "matrix entry True is not an integer or a/b" in result.stderr


def test_matrix_text_rule(tmp_path):
    good = tmp_path / "good.csv"
    good.write_text("-3,+4\n 1/2 ,1\n")
    result = run_cli("det", str(good))
    assert result.returncode == 0
    assert result.stdout.strip() == "-5"
    for name, entry, text in (
        ("exponent.csv", "1e3", "1e3,1\n1,1\n"),
        ("decimal.json", "1.5", json.dumps({"entries": [["1.5", "1"], ["1", "1"]]})),
    ):
        path = tmp_path / name
        path.write_text(text)
        result = run_cli("det", str(path))
        assert result.returncode == 1
        assert f"matrix entry '{entry}' is not an integer or a/b" in result.stderr


def test_imm_usage_errors(primes_path):
    wrong_order = run_cli("imm", primes_path, "2,2")
    assert wrong_order.returncode == 2
    not_partition = run_cli("imm", primes_path, "1,2")
    assert not_partition.returncode == 2


def test_verify_examples():
    result = run_cli("verify", "examples")
    assert result.returncode == 0
    assert result.stdout.splitlines()[-1] == "16/16 checks passed"
    assert "ccomp-worked-example" in result.stdout


def test_verify_defaults_to_order_eight():
    result = run_cli("verify", "theorem4")
    assert result.returncode == 0
    assert "hook-rule-n3" in result.stdout and "hook-rule-n8" in result.stdout
    assert result.stdout.splitlines()[-1] == "6/6 checks passed"
    assert result.stdout == run_cli("verify", "theorem4", "--max-n", "8").stdout


def test_verify_scopes_with_bound(tmp_path):
    th4 = run_cli("verify", "theorem4", "--max-n", "4")
    assert th4.returncode == 0
    assert "hook-rule-n3" in th4.stdout and "hook-rule-n4" in th4.stdout
    assert th4.stdout.splitlines()[-1] == "2/2 checks passed"

    toeplitz = run_cli("verify", "toeplitz", "--max-n", "5")
    assert toeplitz.returncode == 0
    assert toeplitz.stdout.splitlines()[-1] == "7/7 checks passed"

    least = run_cli("verify", "all", "--max-n", "3")
    assert least.returncode == 0
    assert least.stdout.splitlines()[-1] == "7/7 checks passed"

    out = tmp_path / "report.json"
    full = run_cli("verify", "all", "--max-n", "4", "--json", str(out))
    assert full.returncode == 0
    assert full.stdout.splitlines()[-1] == "10/10 checks passed"
    payload = json.loads(out.read_text())
    assert payload["all_pass"] is True
    assert {"id", "expected", "got", "pass"} == set(payload["items"][0])


def test_verify_with_no_checks_is_usage_error():
    for scope, bound in (
        ("theorem4", "2"),
        ("toeplitz", "1"),
        ("all", "-1"),
        ("all", "0"),
        ("all", "2"),
        ("examples", "1"),
    ):
        result = run_cli("verify", scope, "--max-n", bound)
        assert result.returncode == 2
        assert scope in result.stderr and f"--max-n {bound}" in result.stderr
        assert "checks passed" not in result.stdout


def test_toeplitz_command():
    result = run_cli("toeplitz", "3")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload == {
        "n": 3,
        "entries": [["0", "1", "0"], ["1", "0", "1"], ["0", "1", "0"]],
    }
    assert run_cli("toeplitz", "0").returncode == 2


def test_missing_subcommand_is_usage_error():
    assert run_cli().returncode == 2


# Each error path: the command line ({dir} is a folder holding the matrices
# below), its exit code, and a fragment of the message.  Usage messages come
# from the library's own checks.
_ERROR_MATRICES = {
    "primes.csv": PRIMES_CSV,
    "small.csv": SMALL_CSV,
    "one.csv": "5\n",
    "huge.csv": "1" * 4301 + ",1\n1,1\n",
    "null.json": '{"entries": [[null, 1], [1, 1]]}',
    "text-rows.json": '{"n": 2, "entries": ["12", "34"]}',
    "dict-entries.json": '{"entries": {"ab": 1}}',
    "null-entries.json": '{"entries": null}',
    "wide-cell.csv": "1" * 131_073 + ",1\n1,1\n",
    "deep.json": "[" * 100_000 + "]" * 100_000,
    "huge-number.json": '{"entries": [[' + "1" * 5000 + ", 1], [1, 1]]}",
    "long-entry.json": json.dumps({"entries": [[list(range(100_000)), 1], [1, 1]]}),
}


@pytest.mark.parametrize(
    "args, code, message",
    [
        pytest.param(("expand", "m", "1,2"), 2, "partition parts must be weakly decreasing: (1, 2)",
                     id="expand-not-a-partition"),
        pytest.param(("qimm", "{dir}/small.csv", "qs", "2,1"), 2,
                     "element degree 3 does not match matrix dimension 2", id="qimm-degree"),
        pytest.param(("imm", "{dir}/primes.csv", "2,2"), 2,
                     "table degree 4 does not match matrix dimension 3", id="imm-order"),
        pytest.param(("imm", "{dir}/primes.csv", "1,2"), 2, "partition parts must be weakly decreasing",
                     id="imm-not-a-partition"),
        pytest.param(("imm", "{dir}/missing.csv", "1,2"), 2, "partition parts must be weakly decreasing",
                     id="imm-shape-before-file"),
        pytest.param(("d2", "{dir}/one.csv"), 2, "second immanant needs dimension at least 2",
                     id="d2-one-by-one"),
        pytest.param(("toeplitz", "0"), 2, "dimension must be at least 1", id="toeplitz-zero"),
        pytest.param(("det", "{dir}/missing.csv"), 1, "cannot read matrix file", id="missing-matrix"),
        pytest.param(("det", "{dir}/huge.csv"), 1, "malformed matrix in", id="entry-over-digit-limit"),
        pytest.param(("det", "{dir}/null.json"), 1, "matrix entry None is not an integer or a/b",
                     id="null-entry"),
        pytest.param(("det", "{dir}/text-rows.json"), 1,
                     "matrix must be a list of rows, each a list of entries", id="text-rows"),
        pytest.param(("det", "{dir}/dict-entries.json"), 1,
                     "matrix must be a list of rows, each a list of entries", id="dict-entries"),
        pytest.param(("qimm", "{dir}/null-entries.json", "qs", "2"), 1,
                     "matrix must be a list of rows, each a list of entries", id="null-entries"),
        pytest.param(("det", "{dir}/wide-cell.csv"), 1,
                     "malformed matrix in {dir}/wide-cell.csv: unreadable CSV: field larger than",
                     id="csv-cell-over-field-limit"),
        pytest.param(("det", "{dir}/deep.json"), 1,
                     "malformed matrix in {dir}/deep.json: matrix JSON is nested too deeply",
                     id="json-nested-too-deeply"),
        pytest.param(("det", "{dir}/huge-number.json"), 1,
                     "malformed matrix in {dir}/huge-number.json: "
                     "matrix entry '111111111111...' has more than",
                     id="json-number-over-digit-limit"),
        pytest.param(("det", "{dir}/long-entry.json"), 1,
                     "malformed matrix in {dir}/long-entry.json: "
                     "matrix entry [0, 1, 2, 3,... is not an integer",
                     id="long-list-entry"),
        pytest.param(("expand", "m", "0" + ",1" * 20_000), 2,
                     "error: composition parts must be positive integers: (0, 1, 1, 1,...\n",
                     id="long-index"),
        pytest.param(("verify", "all", "--max-n", "17"), 2,
                     "the Toeplitz sweep stops at order 16, so 17 is too large", id="verify-past-limit"),
    ],
)
def test_error_paths_report_one_line(tmp_path, args, code, message):
    for name, text in _ERROR_MATRICES.items():
        (tmp_path / name).write_text(text)
    result = run_cli(*(arg.format(dir=tmp_path) for arg in args))
    assert result.returncode == code
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    assert message.format(dir=tmp_path) in result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


def test_det_prints_results_past_the_digit_limit(tmp_path, capsys):
    from quasimm import cli
    from quasimm.engine import SquareMatrix, determinant_elimination

    rng = random.Random(4500)
    rows = [[str(rng.randrange(10**1499, 10**1500)) for _ in range(3)] for _ in range(3)]
    path = tmp_path / "wide.csv"
    path.write_text("".join(",".join(row) + "\n" for row in rows))
    result = run_cli("det", str(path))
    assert result.returncode == 0, result.stderr
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    assert cli.main(["det", str(path)]) == 0  # in process, the limit is left as it was
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit
    assert capsys.readouterr().out == result.stdout
    assert len(result.stdout) > 4300
    expected = determinant_elimination(SquareMatrix(rows))
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        assert result.stdout == f"{expected}\n"
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
