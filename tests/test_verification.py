import math
from collections import Counter
from fractions import Fraction

import pytest

from quasimm import verification
from quasimm.characters import chi2
from quasimm.combinatorics import (
    cycle_composition,
    enumerate_compositions,
    enumerate_permutations,
)
from quasimm.engine import SquareMatrix, qimm_hook_fast, second_immanant
from quasimm.verification import (
    Report,
    ReportItem,
    c_sigma,
    render_table,
    toeplitz_d2_closed_form,
    toeplitz_qimm_closed_form,
    toeplitz_tridiagonal,
    verify_all,
    verify_hook_rule,
    verify_toeplitz,
    verify_worked_examples,
)


def test_c_sigma_values():
    assert c_sigma((1, 2, 3)) == 1
    assert c_sigma((1, 3, 2)) == -3
    assert c_sigma((2, 1, 3)) == 3
    assert c_sigma((3, 2, 1)) == 3
    assert c_sigma((2, 3, 1)) == 0
    assert c_sigma((3, 1, 2)) == 0
    with pytest.raises(ValueError):
        c_sigma((2, 1))


def test_c_sigma_separates_conjugate_permutations():
    # (1,3,2) and (2,1,3) share a cycle type yet carry different weights,
    # and neither weight table is a scalar multiple of the chi2 table
    assert c_sigma((1, 3, 2)) != c_sigma((2, 1, 3))
    assert chi2((1, 3, 2)) == chi2((2, 1, 3)) == 0
    assert chi2((2, 3, 1)) == -1 and c_sigma((2, 3, 1)) == 0


def test_c_sigma_sums_to_all_ones_evaluation():
    total = sum(c_sigma(sigma) for sigma in enumerate_permutations(3))
    ones = SquareMatrix([[1] * 3] * 3)
    assert total == qimm_hook_fast(ones) == 4


@pytest.mark.parametrize("n", [3, 4, 5])
def test_hook_rule_verifies(n):
    report = verify_hook_rule(n)
    assert report.all_pass
    assert len(report.items) == 1
    item = report.items[0]
    assert item.id == f"hook-rule-n{n}"
    assert item.expected == item.got


@pytest.mark.parametrize("n", range(3, 8))
def test_hook_rule_class_sizes_match_the_walk(monkeypatch, n):
    # With every class made to disagree, each class gets a row carrying its
    # closed-form size, which must be the walk's count over S_n.
    rule = verification.hook_qimm_coefficient
    monkeypatch.setattr(verification, "hook_qimm_coefficient", lambda alpha: rule(alpha) + 1)
    walk = Counter(map(cycle_composition, enumerate_permutations(n)))
    factorial = math.factorial(n)
    summary, *mismatches = verify_hook_rule(n).items
    assert summary.got == f"0/{factorial} agree"
    assert [item.id for item in mismatches] == [
        f"hook-rule-n{n}-ccomp{alpha}-size{walk[alpha]}" for alpha in enumerate_compositions(n)
    ]
    assert sum(walk.values()) == factorial and len(walk) == 2 ** (n - 1)


def test_hook_rule_holds_past_the_reach_of_a_walk():
    # 12! = 479 001 600 permutations; the check visits 2^11 classes.
    report = verify_hook_rule(12)
    assert report.all_pass
    assert report.items[0].got == "479001600/479001600 agree"


@pytest.mark.parametrize("wrong", [(1, 1, 1, 1, 1), (2, 3), (1, 2, 2)])
def test_hook_rule_reports_each_disagreeing_class(monkeypatch, wrong):
    rule = verification.hook_qimm_coefficient
    monkeypatch.setattr(
        verification,
        "hook_qimm_coefficient",
        lambda alpha: rule(alpha) + (alpha == wrong),
    )
    size = Counter(map(cycle_composition, enumerate_permutations(5)))[wrong]
    report = verify_hook_rule(5)
    assert not report.all_pass
    summary, mismatch = report.items
    assert (summary.id, summary.expected, summary.got) == (
        "hook-rule-n5",
        "120/120 agree",
        f"{120 - size}/120 agree",
    )
    assert mismatch.id == f"hook-rule-n5-ccomp{wrong}-size{size}"
    assert int(mismatch.got) == int(mismatch.expected) + 1
    assert not summary.passed and not mismatch.passed

def test_hook_rule_rejects_small_orders():
    with pytest.raises(ValueError):
        verify_hook_rule(2)


def test_sweeps_refuse_a_bound_that_selects_no_order():
    # A sweep that selects no order would pass with nothing checked; past
    # the limit, each order costs about twice the one before.
    assert verification.MAX_ORDER == 16
    sweeps = (
        (verification.verify_hook_rules, 3, "hook-rule sweep starts at order 3"),
        (verify_toeplitz, 2, "Toeplitz sweep starts at order 2"),
        (verify_worked_examples, 2, "Toeplitz sweep starts at order 2"),
    )
    for sweep, least, message in sweeps:
        for bound in (-1, 0, least - 1):
            with pytest.raises(ValueError, match=message):
                sweep(bound)
        name = message.split(" starts")[0]
        with pytest.raises(ValueError, match=f"{name} stops at order 16, so 17 is too large"):
            sweep(17)
        assert sweep(least).all_pass
    with pytest.raises(ValueError, match="hook-rule sweep"):
        verify_all(2)
    with pytest.raises(ValueError, match="Toeplitz sweep"):
        verify_all(1)


def test_toeplitz_matrices():
    assert toeplitz_tridiagonal(1) == SquareMatrix([[0]])
    assert toeplitz_tridiagonal(2) == SquareMatrix([[0, 1], [1, 0]])
    assert toeplitz_tridiagonal(3) == SquareMatrix([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    with pytest.raises(ValueError):
        toeplitz_tridiagonal(0)


def test_toeplitz_closed_forms():
    assert [toeplitz_d2_closed_form(n) for n in range(2, 9)] == [1, 0, -1, 0, 1, 0, -1]
    assert [toeplitz_qimm_closed_form(n) for n in range(3, 9)] == [0, -3, 0, 15, 0, -105]
    with pytest.raises(ValueError):
        toeplitz_d2_closed_form(1)
    with pytest.raises(ValueError):
        toeplitz_qimm_closed_form(2)


@pytest.mark.parametrize("n", range(2, 9))
def test_toeplitz_engine_agrees_with_closed_forms(n):
    matrix = toeplitz_tridiagonal(n)
    assert second_immanant(matrix) == toeplitz_d2_closed_form(n)
    if n >= 3:
        assert qimm_hook_fast(matrix) == toeplitz_qimm_closed_form(n)


def test_verify_toeplitz_report():
    report = verify_toeplitz(8)
    assert report.all_pass
    assert len(report.items) == 13  # d2 for n=2..8, qimm for n=3..8
    ids = [item.id for item in report.items]
    assert "toeplitz-d2-n2" in ids and "toeplitz-qimm-n8" in ids


def test_report_add_compares_values_not_strings():
    report = Report()
    report.add("exact", Fraction(2), 2)
    assert report.items[0].passed
    assert report.items[0].expected == report.items[0].got == "2"
    report.add("broken", 1, 2)
    assert not report.all_pass


def test_report_json_schema():
    report = Report([ReportItem("demo", "1", "2", False)])
    payload = report.to_json_dict()
    assert payload == {
        "items": [{"id": "demo", "expected": "1", "got": "2", "pass": False}],
        "all_pass": False,
    }


def test_render_table():
    report = Report(
        [ReportItem("good", "1", "1", True), ReportItem("bad", "1", "2", False)]
    )
    text = render_table(report)
    lines = text.splitlines()
    assert lines[0].split() == ["check", "expected", "got", "status"]
    assert any("FAIL" in line for line in lines)
    assert lines[-1] == "1/2 checks passed"


def test_worked_examples_report():
    report = verify_worked_examples(max_n=4)
    assert report.all_pass
    ids = [item.id for item in report.items]
    assert ids[0] == "ccomp-worked-example"
    assert "qimm-3x3-weights" in ids
    assert "d2-3x3-weights" in ids


def test_verify_all_bundles_every_family():
    report = verify_all(max_n=6)
    assert report.all_pass
    ids = [item.id for item in report.items]
    assert "hook-rule-n3" in ids and "hook-rule-n6" in ids and "hook-rule-n7" not in ids
    assert "toeplitz-qimm-n6" in ids and "toeplitz-d2-n7" not in ids


def test_every_sweep_defaults_to_order_eight():
    sweeps = (verify_all, verification.verify_hook_rules, verify_toeplitz, verify_worked_examples)
    for sweep in sweeps:
        assert [item.id for item in sweep().items] == [item.id for item in sweep(8).items]
    ids = [item.id for item in verify_all().items]
    assert ids[-1] == "hook-rule-n8" and "toeplitz-qimm-n8" in ids
