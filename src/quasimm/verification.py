"""Cross-checks between independent evaluation routes, with structured reports.

Three families of checks: a frozen set of worked examples (a cycle
composition, the two 3x3 coefficient tables, and the tridiagonal
closed forms), the hook rule of Theorem 4 against coordinates of the hook
quasi-Schur element once per cycle-composition class, and the tridiagonal
Toeplitz family evaluated by the engine against its closed forms.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .characters import chi2
from .combinatorics import cycle_composition, enumerate_compositions, enumerate_permutations
from .engine import (
    SquareMatrix,
    hook_qimm_coefficient,
    qimm_coefficient_table,
    qimm_hook_fast,
    second_immanant,
)
from .qsym import quasischur, to_coords

MAX_ORDER = 16  # every sweep stops here: its cost grows with the 2^(n-1) classes of order n


class ReportItem(namedtuple("ReportItem", "id expected got passed")):
    """One comparison: an identifier, both sides as text, and the verdict."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {"id": self.id, "expected": self.expected, "got": self.got, "pass": self.passed}


class Report:
    """Ordered list of comparisons with an aggregate verdict."""

    def __init__(self, items=None):
        self.items = [] if items is None else items

    @property
    def all_pass(self) -> bool:
        return all(item.passed for item in self.items)

    def add(self, id: str, expected, got) -> None:
        self.items.append(ReportItem(id, str(expected), str(got), expected == got))

    def merge(self, other: "Report") -> "Report":
        return Report(self.items + other.items)

    def to_json_dict(self) -> dict:
        return {
            "items": [item.to_json_dict() for item in self.items],
            "all_pass": self.all_pass,
        }


def _sweep_orders(name: str, least: int, bound: int) -> range:
    """The orders least..bound, refusing a bound that selects none or passes MAX_ORDER."""
    if bound < least:
        raise ValueError(f"the {name} sweep starts at order {least}, so {bound} selects no order")
    if bound > MAX_ORDER:
        raise ValueError(f"the {name} sweep stops at order {MAX_ORDER}, so {bound} is too large")
    return range(least, bound + 1)


def render_table(report: Report) -> str:
    """Human-readable table of a report, one row per comparison."""
    headers = ("check", "expected", "got", "status")
    rows = [
        (item.id, item.expected, item.got, "pass" if item.passed else "FAIL")
        for item in report.items
    ]
    widths = [
        max(len(headers[col]), *(len(row[col]) for row in rows)) if rows else len(headers[col])
        for col in range(4)
    ]
    lines = [
        "  ".join(headers[col].ljust(widths[col]) for col in range(4)).rstrip(),
        "  ".join("-" * widths[col] for col in range(4)),
    ]
    for row in rows:
        lines.append("  ".join(row[col].ljust(widths[col]) for col in range(4)).rstrip())
    good = sum(1 for item in report.items if item.passed)
    lines.append(f"{good}/{len(report.items)} checks passed")
    return "\n".join(lines)


def c_sigma(sigma) -> int:
    """Per-permutation weight of the hook quasi-Schur element.

    Depends on sigma only through its cycle composition; see
    hook_qimm_coefficient for the three-case rule.
    """
    return hook_qimm_coefficient(cycle_composition(sigma))


def verify_hook_rule(n: int) -> Report:
    """Compare the closed-form hook rule with hook quasi-Schur coordinates on every class.

    Each composition alpha of n is a class of S_n: its k-th cycle holds
    the least of the r_k indices left and alpha_k - 1 of the others in
    order, so it has prod_k (r_k - 1)!/(r_k - alpha_k)! members.  The rule
    and n! times the Psi coordinate of the hook element are compared once
    per class; each disagreeing class gets a row naming it and its size
    (none are expected), in descending dominance order.
    """
    if n < 3:
        raise ValueError("the hook rule is stated for order at least 3")
    hook = (2,) + (1,) * (n - 2)
    coords = to_coords(quasischur(hook), "Psi").coeffs
    factorial = math.factorial(n)
    agreements = 0
    mismatches = Report()
    for alpha in enumerate_compositions(n):
        size, rest = 1, n
        for part in alpha:
            size *= math.perm(rest - 1, part - 1)
            rest -= part
        reference = factorial * coords.get(alpha, Fraction(0))
        direct = hook_qimm_coefficient(alpha)
        if direct == reference:
            agreements += size
        else:
            mismatches.add(f"hook-rule-n{n}-ccomp{alpha}-size{size}", reference, direct)
    report = Report()
    report.add(
        f"hook-rule-n{n}", f"{factorial}/{factorial} agree", f"{agreements}/{factorial} agree"
    )
    return report.merge(mismatches)


def verify_hook_rules(max_n: int = 6) -> Report:
    """The hook rule for each order from 3 to max_n."""
    orders = _sweep_orders("hook-rule", 3, max_n)
    return Report([item for n in orders for item in verify_hook_rule(n).items])


def toeplitz_tridiagonal(n: int) -> SquareMatrix:
    """The 0/1 symmetric tridiagonal matrix: 1 exactly where |i-j| = 1."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    return SquareMatrix([[1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)])


def toeplitz_d2_closed_form(n: int) -> Fraction:
    """Hook immanant of the tridiagonal matrix: (-1)^(n/2+1) for even n, else 0."""
    if n < 2:
        raise ValueError("closed form stated for dimension at least 2")
    if n % 2:
        return Fraction(0)
    return Fraction(-1 if (n // 2 + 1) % 2 else 1)


def toeplitz_qimm_closed_form(n: int) -> Fraction:
    """Hook quasi-immanant of the tridiagonal matrix: -(-1/2)^(n/2) n!/(n/2)! for even n."""
    if n < 3:
        raise ValueError("closed form stated for dimension at least 3")
    if n % 2:
        return Fraction(0)
    half = n // 2
    return -(Fraction(-1, 2) ** half) * Fraction(math.factorial(n), math.factorial(half))


def verify_toeplitz(max_n: int = 8) -> Report:
    """Engine evaluations of the tridiagonal family against both closed forms."""
    report = Report()
    for n in _sweep_orders("Toeplitz", 2, max_n):
        matrix = toeplitz_tridiagonal(n)
        report.add(f"toeplitz-d2-n{n}", toeplitz_d2_closed_form(n), second_immanant(matrix))
        if n >= 3:
            report.add(f"toeplitz-qimm-n{n}", toeplitz_qimm_closed_form(n), qimm_hook_fast(matrix))
    return report


_CCOMP_EXAMPLE_INPUT = (2, 1, 5, 4, 6, 7, 3)
_CCOMP_EXAMPLE_OUTPUT = (2, 4, 1)

_QIMM_3X3_TABLE = {
    (1, 2, 3): 1,
    (1, 3, 2): -3,
    (2, 1, 3): 3,
    (3, 2, 1): 3,
    (2, 3, 1): 0,
    (3, 1, 2): 0,
}

_D2_3X3_TABLE = {
    (1, 2, 3): 2,
    (1, 3, 2): 0,
    (2, 1, 3): 0,
    (3, 2, 1): 0,
    (2, 3, 1): -1,
    (3, 1, 2): -1,
}


def _format_sigma_table(values: dict) -> str:
    return "; ".join(f"{sigma}->{value}" for sigma, value in sorted(values.items()))


def verify_worked_examples(toeplitz_max: int = 8) -> Report:
    """Machine-check the frozen worked examples.

    Covers the cycle-composition example, the per-permutation weight
    tables of the two 3x3 matrix functions, and the tridiagonal family up
    to the given bound.
    """
    report = Report()
    report.add(
        "ccomp-worked-example",
        _CCOMP_EXAMPLE_OUTPUT,
        cycle_composition(_CCOMP_EXAMPLE_INPUT),
    )

    table = qimm_coefficient_table(quasischur((2, 1)), "Psi")
    got_qimm = {
        sigma: table.values[cycle_composition(sigma)] for sigma in enumerate_permutations(3)
    }
    report.add(
        "qimm-3x3-weights", _format_sigma_table(_QIMM_3X3_TABLE), _format_sigma_table(got_qimm)
    )

    got_d2 = {sigma: Fraction(chi2(sigma)) for sigma in enumerate_permutations(3)}
    report.add(
        "d2-3x3-weights", _format_sigma_table(_D2_3X3_TABLE), _format_sigma_table(got_d2)
    )

    return report.merge(verify_toeplitz(toeplitz_max))


def verify_all(hook_max: int = 6, toeplitz_max: int = 8) -> Report:
    """Worked examples, then the hook rule for each order up to hook_max."""
    return verify_worked_examples(toeplitz_max).merge(verify_hook_rules(hook_max))
