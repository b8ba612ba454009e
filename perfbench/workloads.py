"""Operation lists of the three workloads and the check for every output.

A CLI operation is one `python -m quasimm ...` command in a fresh process;
its check receives the command's standard output, the outputs of the other
operations of the same round (for checks that compare two routes) and the
matrices the benchmark generated.  A check returns None when the output is
right and a short reason when it is not.  Every expected value comes from
refs.py, never from quasimm and never from a stored copy of earlier output.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable

import refs


# ---------------------------------------------------------------- output parsing

_TERM = re.compile(r"(?:(\d+(?:/\d+)?)\*)?(M|Psi|Phi)\[([\d,]*)\]")


def parse_scalar(text: str) -> Fraction:
    return Fraction(text.strip())


def parse_element(text: str) -> tuple[str | None, dict]:
    """Parse 'M[2,1] - 3/4*M[1,1,1]' into its basis and coefficient dict."""
    tokens = text.split()
    if tokens == ["0"]:
        return None, {}
    first = tokens[0]
    signed = [("-" if first.startswith("-") else "+", first.lstrip("-"))]
    signed += list(zip(tokens[1::2], tokens[2::2]))
    bases, out = set(), {}
    for sign, body in signed:
        match = _TERM.fullmatch(body)
        if sign not in "+-" or not match:
            raise ValueError(f"unreadable term {sign} {body}")
        magnitude, basis, parts = match.groups()
        alpha = tuple(int(p) for p in parts.split(",")) if parts else ()
        coeff = Fraction(magnitude or 1)
        out[alpha] = -coeff if sign == "-" else coeff
        bases.add(basis)
    if len(bases) != 1:
        raise ValueError(f"mixed bases {sorted(bases)}")
    return bases.pop(), out


def parse_table(text: str) -> tuple[list[list[str]], str]:
    """Rows of the verify table, cut at the columns its dash rule marks, and the summary line."""
    lines = text.rstrip("\n").split("\n")
    spans = [m.span() for m in re.finditer(r"-+", lines[1])]
    bounds = [(start, spans[i + 1][0] if i + 1 < len(spans) else None) for i, (start, _) in enumerate(spans)]
    rows = [[line[a:b].strip() for a, b in bounds] for line in lines[2:-1]]
    return rows, lines[-1]


def _expect(label: str, want, got) -> str | None:
    return None if want == got else f"{label}: expected {_short(want)}, got {_short(got)}"


def _short(value, limit: int = 160) -> str:
    text = str(value)
    return text if len(text) <= limit else text[:limit] + "..."


def _element_in(basis: str, text: str) -> dict:
    got_basis, element = parse_element(text)
    if element and got_basis != basis:
        raise ValueError(f"output is in {got_basis}, expected {basis}")
    return element


# ---------------------------------------------------------------- references


class References:
    """Reference values for one run, each computed once."""

    def __init__(self, matrices: dict):
        self.matrices = matrices
        self._sums: dict = {}
        self._weights: dict = {}
        self._scalars: dict = {}

    def sums(self, name: str):
        """(class sums by cycle composition, by cycle type) of a generated matrix."""
        if name not in self._sums:
            by_comp = refs.class_sums(self.matrices[name])
            self._sums[name] = (by_comp, refs.by_cycle_type(by_comp))
        return self._sums[name]

    def immanant(self, name: str, lam) -> Fraction:
        return refs.weighted_sum(self.sums(name)[1], characters(tuple(lam)))

    def qimm(self, name: str, element: dict, variant: str) -> Fraction:
        by_comp = self.sums(name)[0]
        n = len(self.matrices[name])
        # Matrices of one shape share their classes, so they share the weights.
        key = (tuple(sorted(element.items())), n, variant, frozenset(by_comp))
        if key not in self._weights:
            self._weights[key] = refs.ccomp_weights(element, n, variant, classes=by_comp.keys())
        return refs.weighted_sum(by_comp, self._weights[key])

    def permanent(self, name: str) -> Fraction:
        if ("perm", name) not in self._scalars:
            self._scalars["perm", name] = refs.ryser_permanent(self.matrices[name])
        return self._scalars["perm", name]

    def determinant(self, name: str) -> Fraction:
        if ("det", name) not in self._scalars:
            self._scalars["det", name] = refs.det_elimination(self.matrices[name])
        return self._scalars["det", name]


@lru_cache(maxsize=None)
def characters(lam) -> dict:
    return {mu: Fraction(refs.character(lam, mu)) for mu in refs.partitions(sum(lam))}


@lru_cache(maxsize=None)
def schur_m(lam) -> dict:
    """M-expansion of s_lam from Frobenius characters and the paper's Psi formula."""
    psi = refs.symmetric_psi(refs.schur_p_coords(lam), sum(lam))
    return refs.power_to_m(psi, "Psi")


def hook(n: int) -> tuple[int, ...]:
    return (2,) + (1,) * (n - 2)


def index_text(parts) -> str:
    return ",".join(map(str, parts))


# ---------------------------------------------------------------- CLI workloads


@dataclass
class Op:
    name: str
    kind: str  # qimm | classic | verify | expand
    argv: list[str]
    check: Callable[[str, dict, References], str | None]
    needs: tuple[str, ...] = field(default=())  # other operations the check reads


def _scalar(fn):
    """Check that compares a printed scalar with fn(references, round outputs)."""
    return lambda out, outputs, ref: _expect("value", fn(ref, outputs), parse_scalar(out))


def dense_ops() -> list[Op]:
    lam = (3, 3, 2)
    return [
        Op(
            "qimm-hook-psi-d8",
            "qimm",
            ["qimm", "d8i.csv", "qs", "2,1^6", "--variant", "psi"],
            _scalar(lambda ref, o: ref.qimm("d8i.csv", refs.hook_expansion(8), "Psi")),
        ),
        Op(
            "qimm-hook-phi-d8r",
            "qimm",
            ["qimm", "d8r.json", "qs", "2,1^6", "--variant", "phi"],
            _scalar(lambda ref, o: ref.qimm("d8r.json", refs.hook_expansion(8), "Phi")),
        ),
        Op(
            "qimm-s332-d8",
            "qimm",
            ["qimm", "d8i.csv", "s", index_text(lam)],
            _scalar(lambda ref, o: ref.immanant("d8i.csv", lam)),
        ),
        Op(
            "imm-332-d8",
            "classic",
            ["imm", "d8i.csv", index_text(lam)],
            # Two routes the method says agree: the immanant and qimm of s_lam.
            lambda out, o, ref: _expect("imm vs qimm s", parse_scalar(o["qimm-s332-d8"]), parse_scalar(out))
            or _expect("value", ref.immanant("d8i.csv", lam), parse_scalar(out)),
            needs=("qimm-s332-d8",),
        ),
        Op(
            "d2-d8r",
            "classic",
            ["d2", "d8r.json"],
            _scalar(lambda ref, o: refs.second_immanant(ref.matrices["d8r.json"])),
        ),
        Op(
            "det-d8r",
            "classic",
            ["det", "d8r.json"],
            _scalar(lambda ref, o: refs.det_elimination(ref.matrices["d8r.json"])),
        ),
        Op(
            "perm-d8",
            "classic",
            ["perm", "d8i.csv"],
            _scalar(lambda ref, o: refs.ryser_permanent(ref.matrices["d8i.csv"])),
        ),
        Op("verify-all-8", "verify", ["verify", "all", "--max-n", "8"], lambda out, o, ref: check_verify(out, 8)),
    ]


def _sigma_table(values: dict) -> str:
    return "; ".join(f"{sigma}->{value}" for sigma, value in sorted(values.items()))


def check_verify(out: str, max_n: int) -> str | None:
    """Every row passes, the summary counts them all, and the known rows carry reference values."""
    rows, summary = parse_table(out)
    if not rows:
        return "empty report"
    got = {row[0]: row[2] for row in rows}
    for row in rows:
        if row[3] != "pass" or row[1] != row[2]:
            return f"row {row[0]} does not pass: {row}"
    if summary != f"{len(rows)}/{len(rows)} checks passed":
        return f"summary {summary!r} for {len(rows)} rows"
    perms3 = list(itertools.permutations(range(3)))
    weights3 = refs.ccomp_weights(refs.hook_expansion(3), 3, "Psi")
    want = {
        "ccomp-worked-example": str(refs.cycle_composition((1, 0, 4, 3, 5, 6, 2))),
        "qimm-3x3-weights": _sigma_table(
            {tuple(x + 1 for x in p): weights3.get(refs.cycle_composition(p), 0) for p in perms3}
        ),
        "d2-3x3-weights": _sigma_table(
            {tuple(x + 1 for x in p): refs.perm_sign(p) * (sum(p[i] == i for i in range(3)) - 1) for p in perms3}
        ),
    }
    for n in range(2, max_n + 1):
        want[f"toeplitz-d2-n{n}"] = str(refs.toeplitz_d2(n))
    for n in range(3, max_n + 1):
        want[f"toeplitz-qimm-n{n}"] = str(refs.toeplitz_hook_qimm(n))
        want[f"hook-rule-n{n}"] = f"{math.factorial(n)}/{math.factorial(n)} agree"
    for check_id, value in want.items():
        if got.get(check_id) != value:
            return f"row {check_id}: expected {value}, got {got.get(check_id)}"
    return None


SUM_RULE_CLI = ((4, 4, 1), (4, 1, 4), (1, 4, 4))


def _check_sum_rule(out, outputs, ref) -> str | None:
    """Quasi-Schur elements over the rearrangements of lam add up to s_lam."""
    parts = [_element_in("M", outputs[f"expand-qs-{index_text(a)}-M"]) for a in SUM_RULE_CLI]
    if any(c < 0 or c.denominator != 1 for p in parts for c in p.values()):
        return "quasi-Schur coefficients must be nonnegative integers"
    return _expect("sum of qs over rearrangements of 4,4,1", schur_m((4, 4, 1)), refs.add(*parts))


def _expand(basis, index, target, check, needs=()) -> Op:
    name = f"expand-{basis}-{index_text(index)}-{target}"
    argv = ["expand", basis, index_text(index), "--target", target]
    return Op(name, "expand", argv, check, needs)


def _in_m(basis: str, label: str, want):
    """Check that takes the output to M coordinates by the paper's formulas and compares with want(outputs)."""

    def check(out, outputs, ref):
        element = _element_in(basis, out)
        got = element if basis == "M" else refs.power_to_m(element, basis)
        return _expect(label, want(outputs), got)

    return check


def _rearrangements(basis: str, lam):
    count = math.factorial(len(lam))
    for part in set(lam):
        count //= math.factorial(lam.count(part))
    return lambda out, o, ref: None if refs.is_rearrangement_sum(_element_in(basis, out), lam) else (
        f"not the sum of the {count} rearrangements")


def expand_ops() -> list[Op]:
    n9_lam = (3, 2, 2, 2)
    sum_rule_names = tuple(f"expand-qs-{index_text(a)}-M" for a in SUM_RULE_CLI)
    qs414_m = "expand-qs-4,1,4-M"
    f_lam = refs.hook_length_count((4, 4, 1))
    ops = [
        _expand("qs", hook(10), "M", _in_m("M", "hook expansion", lambda o: refs.hook_expansion(10))),
        _expand("qs", hook(10), "Psi", _in_m("Psi", "hook expansion", lambda o: refs.hook_expansion(10))),
    ]
    ops += [_expand("qs", a, "M", _check_sum_rule, sum_rule_names) for a in SUM_RULE_CLI]
    ops += [
        _expand("s", (4, 4, 1), "M", lambda out, o, ref: _expect(
            "f^lam at M[1^9]", f_lam, _element_in("M", out).get((1,) * 9))
            or _expect("s 4,4,1", schur_m((4, 4, 1)), _element_in("M", out))),
        _expand("qs", (4, 1, 4), "Phi", _in_m(
            "Phi", "the M expansion", lambda o: _element_in("M", o[qs414_m])), (qs414_m,)),
        _expand("s", (3, 2, 2, 1, 1), "Psi", _check_schur_psi((3, 2, 2, 1, 1))),
        # Matrix counts; at M[1^n] they are the multinomials (test_refs.py).
        _expand("e", (4, 3, 2, 1), "M", _in_m("M", "0/1-matrix counts", lambda o: refs.e_expansion((4, 3, 2, 1)))),
        _expand("h", (4, 3, 2), "Phi", _in_m("Phi", "N-matrix counts", lambda o: refs.h_expansion((4, 3, 2)))),
        # Degree 12 with 10 parts: monomial_sym enumerates all 10! orderings to keep 45.
        _expand("m", (2, 2) + (1,) * 8, "M", _rearrangements("M", (2, 2) + (1,) * 8)),
        _expand("p", (4, 3, 2, 1), "Psi", _rearrangements("Psi", (4, 3, 2, 1))),
        Op("qimm-hook-t10", "qimm", ["qimm", "t10.json", "qs", index_text(hook(10))],
           _scalar(lambda ref, o: refs.toeplitz_hook_qimm(10))),
        Op("qimm-qs414-tri9", "qimm", ["qimm", "tri9.csv", "qs", "4,1,4"],
           _scalar(lambda ref, o: ref.qimm("tri9.csv", _element_in("M", o[qs414_m]), "Psi")), (qs414_m,)),
        Op("qimm-s3222-tri9", "qimm", ["qimm", "tri9.csv", "s", index_text(n9_lam)],
           _scalar(lambda ref, o: ref.immanant("tri9.csv", n9_lam))),
        Op("imm-3222-tri9", "classic", ["imm", "tri9.csv", index_text(n9_lam)],
           lambda out, o, ref: _expect("imm vs qimm s", parse_scalar(o["qimm-s3222-tri9"]), parse_scalar(out))
           or _expect("value", ref.immanant("tri9.csv", n9_lam), parse_scalar(out)),
           ("qimm-s3222-tri9",)),
    ]
    return ops


def _check_schur_psi(lam):
    def check(out, outputs, ref):
        element = _element_in("Psi", out)
        p_coords = {mu: element.get(mu, Fraction(0)) for mu in refs.partitions(sum(lam))}
        if not refs.orthonormal(p_coords):
            return "p-coordinates are not orthonormal"
        return _expect("chi/z on every composition", refs.symmetric_psi(refs.schur_p_coords(lam), sum(lam)), element)

    return check


CLI_OPS = {"dense-cli": dense_ops, "expand-cli": expand_ops}

# The cheapest complete command: interpreter, import, argparse, output.
STARTUP_ARGV = ["expand", "m", "1"]
STARTUP_OUTPUT = "M[1]"


# ---------------------------------------------------------------- sparse-lib

SPARSE_SUM_RULE = ((4, 4, 2), (4, 2, 4), (2, 4, 4))
_PSI_ELEMENT = ((hook(10), "1"), ((1, 3) + (1,) * 6, "1/2"))

# name -> (quasimm function, argument).  For qimm the argument is (basis, index).
SPARSE_POOL = {
    "qimm-qs-hook": ("qimm", ("qs", hook(10))),
    "qimm-qs-4,2,4": ("qimm", ("qs", (4, 2, 4))),
    "qimm-s-4,3,3": ("qimm", ("s", (4, 3, 3))),
    "qimm-h-10": ("qimm", ("h", (10,))),
    "qimm-e-10": ("qimm", ("e", (10,))),
    "qimm-psi": ("qimm", ("Psi", _PSI_ELEMENT)),
    "permanent": ("permanent", None),
    "determinant": ("determinant", None),
    "immanant-4,3,3": ("immanant", (4, 3, 3)),
    "elementary-immanant-4,3,3": ("elementary_immanant", (4, 3, 3)),
}


def sparse_kind(name: str) -> str:
    return "qimm" if name.startswith("qimm") else "classic"


def sparse_references(ref: References, matrix: str, qs424: dict) -> dict[str, Fraction]:
    """Expected value of every pool entry on one matrix."""
    rows = ref.matrices[matrix]
    by_comp, by_type = ref.sums(matrix)
    n = len(rows)
    factorial = math.factorial(n)
    return {
        "qimm-qs-hook": ref.qimm(matrix, refs.hook_expansion(n), "Psi"),
        "qimm-qs-4,2,4": ref.qimm(matrix, qs424, "Psi"),
        "qimm-s-4,3,3": ref.immanant(matrix, (4, 3, 3)),
        "qimm-h-10": ref.permanent(matrix),
        "qimm-e-10": ref.determinant(matrix),
        "qimm-psi": refs.weighted_sum(by_comp, {a: factorial * Fraction(c) for a, c in _PSI_ELEMENT}),
        "permanent": ref.permanent(matrix),
        "determinant": ref.determinant(matrix),
        "immanant-4,3,3": ref.immanant(matrix, (4, 3, 3)),
        "elementary-immanant-4,3,3": refs.weighted_sum(by_type, refs.elementary_weights((4, 3, 3))),
    }


def check_sparse_sum_rule(expansions: dict) -> str | None:
    """The worker's quasi-Schur expansions over rearrangements of 4,4,2 add up to s_(4,4,2)."""
    parts = [
        {tuple(map(int, b.split(","))): Fraction(c) for b, c in expansions[index_text(a)].items()}
        for a in SPARSE_SUM_RULE
    ]
    return _expect("sum of qs over rearrangements of 4,4,2", schur_m((4, 4, 2)), refs.add(*parts))
