"""Exact evaluation of weighted permutation sums over square rational matrices.

Every matrix function here is one weighted_perm_sum: the matrix's class
sums, one exact sum of diagonal products per cycle composition, contracted
with a per-class weight vector.  The whole pass runs in integers: rows are
scaled to integers, and the contraction brings the weights over one common
denominator (ctype class sums are first bucketed by cycle type), so one
Fraction is built per call.  The weights are a named CoefficientTable
keyed by cycle type or by cycle composition: a character for the permanent,
determinant and immanants, the hook rule for the fast hook path, and
otherwise the table read from a quasisymmetric element, kept in one
bounded LRU cache.  class_sums is a subset DP in integers: Held-Karp path
sums give the sum of cyclic products on each index set, and chaining those
cycles in min-first order gives the class sums.  Both stages visit only the
index sets reachable along nonzero entries, never all 2^n: a dense matrix
costs about 4^n/12 (covered set, cycle) pairs, 88 000 at n = 10 against
10! leaves, and a banded one far fewer.  The permutation walk it replaced
is a test oracle.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from fractions import Fraction
from functools import lru_cache

from .characters import (
    CoefficientTable,
    character_class_function,
    sign_character,
    trivial_character,
)
from .combinatorics import (
    as_composition,
    compositions,
    count_perms_with_ctype,
    enumerate_partitions,
    sort_composition,
)
from .qsym import QSym, elementary_sym, is_symmetric, monomial_sym, p_weights, to_coords


# Text entries: an optionally signed integer, or such an integer over a nonzero one.
_ENTRY_TEXT = re.compile(r"[+-]?[0-9]+(/0*[1-9][0-9]*)?")


def _exact_entry(entry) -> Fraction:
    """A matrix entry as a Fraction: an int, a rational number, or text by the entry rule."""
    if isinstance(entry, float):
        raise ValueError("floating-point entries are not accepted")
    if isinstance(entry, str) and _ENTRY_TEXT.fullmatch(entry.strip()):
        return Fraction(entry)  # past the int-to-text digit limit, int() raises its own error
    if not isinstance(entry, (bool, str)):
        try:
            return Fraction(entry)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ValueError(f"matrix entry {entry!r} is not an integer or a/b")


class SquareMatrix:
    """Immutable dense square matrix of exact rationals."""

    __slots__ = ("n", "rows")

    def __init__(self, rows):
        converted = [tuple(map(_exact_entry, row)) for row in rows]
        n = len(converted)
        if n == 0 or any(len(row) != n for row in converted):
            raise ValueError("matrix must be square and nonempty")
        self.n = n
        self.rows = tuple(converted)

    @classmethod
    def identity(cls, n: int) -> "SquareMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def entry(self, i: int, j: int) -> Fraction:
        """Entry in row i, column j, both 1-based."""
        return self.rows[i - 1][j - 1]

    def __eq__(self, other):
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"SquareMatrix({[[str(e) for e in row] for row in self.rows]})"

    def to_json_dict(self) -> dict:
        return {"n": self.n, "entries": [[str(e) for e in row] for row in self.rows]}


def matrix_from_json_dict(obj) -> SquareMatrix:
    """Build a matrix from the {"n": ..., "entries": [[...]]} form."""
    if not isinstance(obj, dict) or "entries" not in obj:
        raise ValueError("matrix JSON must be an object with an 'entries' key")
    matrix = SquareMatrix(obj["entries"])
    declared = obj.get("n", matrix.n)
    if not isinstance(declared, int) or isinstance(declared, bool):
        raise ValueError("'n' must be an integer")
    if declared != matrix.n:
        raise ValueError(f"declared dimension {declared} disagrees with {matrix.n} rows")
    return matrix


def load_matrix(path) -> SquareMatrix:
    """Read a matrix from a JSON or CSV file, deciding by the leading character."""
    with open(path) as source:
        text = source.read()
    if text.lstrip()[:1] in ("{", "["):
        return matrix_from_json_dict(json.loads(text))
    rows = []
    for row in csv.reader(io.StringIO(text)):
        cells = [tok.strip() for tok in row]
        if any(cells):
            rows.append(cells)
    return SquareMatrix(rows)


def _integer_rows(a: SquareMatrix) -> tuple[list, int]:
    """Each row times the lcm of its denominators, and the product of those lcms."""
    rows, scale = [], 1
    for row in a.rows:
        lcm = math.lcm(*(e.denominator for e in row))
        scale *= lcm
        rows.append([e.numerator * (lcm // e.denominator) for e in row])
    return rows, scale


def class_sums(a: SquareMatrix) -> tuple[dict, int]:
    """Sums of a[1,sigma(1)] * ... * a[n,sigma(n)] by cycle composition alpha of sigma.

    Returns ({alpha: integer sum}, scale): each row is scaled to integers by
    the lcm of its denominators, so a class sum is its integer over scale.
    A subset DP in two stages, each visiting only the index sets it can
    reach along nonzero entries.  First the cycle sums: W(T), the sum of
    the cyclic products on T, from Held-Karp path sums that start at
    s = min(T), step through indices above s and close back to s along
    the nonzero entries of column s.  Then the chaining: a covered set U
    grows by a cycle T with nonzero W(T) whose minimum is the least index
    not in U (the min-first order of combinatorics.cycles), appending |T|
    to each composition held at U.
    """
    n = a.n
    dense, scale = _integer_rows(a)
    nonzero = [[(j, v) for j, v in enumerate(ints) if v] for ints in dense]
    cycles = []  # per start s: (T, |T|, W(T)) for each T with min(T) = s and W(T) != 0
    for s in range(n):
        found = []
        back = [(i, dense[i][s]) for i in range(s, n) if dense[i][s]]  # the entries closing a cycle
        layer = {1 << s: {s: 1}}  # paths from s, one more index per layer: mask -> {end: sum}
        while layer:
            grown = {}
            for mask, ends in layer.items():
                w = sum(ends[i] * v for i, v in back if i in ends)
                if w:
                    found.append((mask, mask.bit_count(), w))
                for i, p in ends.items():
                    for j, v in nonzero[i]:
                        if j > s and not mask >> j & 1:
                            step = grown.setdefault(mask | 1 << j, {})
                            step[j] = step.get(j, 0) + p * v
            layer = grown
        cycles.append(found)
    # Covered sets wait in a bucket by their least uncovered index, which
    # every step raises; the full set is the one set in bucket n.
    pending = [{} for _ in range(n + 1)]
    pending[0][0] = {(): 1}
    for s in range(n):
        for covered, vector in pending[s].items():
            for cycle, length, w in cycles[s]:
                if cycle & covered:
                    continue
                union = covered | cycle
                target = pending[(~union & (union + 1)).bit_length() - 1].setdefault(union, {})
                for alpha, c in vector.items():
                    alpha += (length,)
                    target[alpha] = target.get(alpha, 0) + c * w
        pending[s] = None
    return pending[n].get((1 << n) - 1, {}), scale


def weighted_perm_sum(a: SquareMatrix, table: CoefficientTable) -> Fraction:
    """Sum over permutations of table weight times the product of picked entries.

    The contraction of class_sums(a) with the table, in integers: a ccomp
    table reads each cycle composition; for a ctype table the class sums are
    first added into one bucket per cycle type, p(n) of them, not 2^(n-1).
    Each weight read (a Fraction, as CoefficientTable stores it) is brought
    over den, the lcm of their denominators, so one Fraction is built per
    call.
    """
    if table.degree != a.n:
        raise ValueError(f"table degree {table.degree} does not match matrix dimension {a.n}")
    sums, scale = class_sums(a)
    values = table.values
    if table.key == "ctype":
        buckets = {}
        for alpha, s in sums.items():
            mu = sort_composition(alpha)
            buckets[mu] = buckets.get(mu, 0) + s
        sums = buckets
    den = math.lcm(*(values[index].denominator for index in sums))
    total = 0
    for index, s in sums.items():
        w = values[index]
        total += w.numerator * (den // w.denominator) * s
    return Fraction(total, den * scale)


def permanent(a: SquareMatrix) -> Fraction:
    """Permutation sum weighted by the trivial character."""
    return weighted_perm_sum(a, trivial_character(a.n))


def determinant(a: SquareMatrix) -> Fraction:
    """Permutation sum weighted by the sign character."""
    return weighted_perm_sum(a, sign_character(a.n))


def determinant_elimination(a: SquareMatrix) -> Fraction:
    """Determinant by fraction-free elimination, independent of any permutation sum.

    Rows are scaled to integers first; the integer elimination keeps every
    division exact.
    """
    n = a.n
    m, scale = _integer_rows(a)
    flip = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    flip = -flip
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return Fraction(flip * m[n - 1][n - 1], scale)


def immanant(a: SquareMatrix, lam) -> Fraction:
    """Permutation sum weighted by the irreducible character of shape lam."""
    return weighted_perm_sum(a, character_class_function(lam))


def second_immanant(a: SquareMatrix) -> Fraction:
    """Immanant of the hook shape (2,1,...,1)."""
    if a.n < 2:
        raise ValueError("second immanant needs dimension at least 2")
    return immanant(a, (2,) + (1,) * (a.n - 2))


def elementary_immanant(a: SquareMatrix, lam) -> Fraction:
    """Quasi-immanant of e_lam: weight z_mu times the p_mu coefficient of e_lam."""
    return qimm(a, elementary_sym(lam))


def monomial_immanant(a: SquareMatrix, lam) -> Fraction:
    """Quasi-immanant of m_lam: weight z_mu times the p_mu coefficient of m_lam."""
    return qimm(a, monomial_sym(lam))


def qimm_coefficient_table(q: QSym, variant: str = "Psi") -> CoefficientTable:
    """Materialize the per-class weights read from n! times the element q.

    A symmetric q is keyed by cycle type with weight z_mu times its p_mu
    coefficient (the per-permutation reading of the power-sum expansion),
    whatever the variant; any other q is keyed by cycle composition with
    weight n! times its coordinate in the chosen power-sum variant.  Tables
    are cached, and a symmetric q has one table under both variants.
    """
    if variant not in ("Psi", "Phi"):
        raise ValueError(f"unknown power-sum variant {variant!r}")
    return _coefficient_table(q, variant)


@lru_cache(maxsize=128)  # a fixed bound, above any pool of elements used at once
def _coefficient_table(q: QSym, variant: str) -> CoefficientTable:
    n = q.degree()
    if not is_symmetric(q):
        factorial = math.factorial(n)
        values = dict.fromkeys(compositions(n), Fraction(0))
        values.update((alpha, factorial * c) for alpha, c in to_coords(q, variant).coeffs.items())
        return CoefficientTable(n, "ccomp", values, f"qimm {variant} degree {n}")
    if variant != "Psi":  # the cycle-type table does not depend on the variant
        return _coefficient_table(q, "Psi")
    weights = p_weights(q)
    values = {mu: weights.get(mu, Fraction(0)) for mu in enumerate_partitions(n)}
    return CoefficientTable(n, "ctype", values, f"qimm ctype degree {n}")


qimm_coefficient_table.cache_info = _coefficient_table.cache_info
qimm_coefficient_table.cache_clear = _coefficient_table.cache_clear


def qimm(a: SquareMatrix, q: QSym, variant: str = "Psi") -> Fraction:
    """Quasi-immanant: permutation sum with weights read from n! times q.

    q must be homogeneous of degree equal to the matrix dimension.  The
    weight of sigma is the coefficient in n!q of p at the cycle type when
    q is symmetric, and of the variant power sum at the cycle composition
    otherwise.
    """
    if not q.coeffs:
        return Fraction(0)
    if q.degree() != a.n:
        raise ValueError(f"element degree {q.degree()} does not match matrix dimension {a.n}")
    return weighted_perm_sum(a, qimm_coefficient_table(q, variant))


def hook_qimm_coefficient(alpha) -> int:
    """Per-class weight of the hook quasi-Schur element, from the cycle composition.

    The element is the two-term sum M at (2,1,...,1) plus M at (1,...,1)
    of degree n; the weight depends only on the first part of the cycle
    composition: first part 1 gives (-1)^(n-len) times the class size,
    first part 2 flips that sign, anything larger vanishes.
    """
    alpha = as_composition(alpha)
    n = sum(alpha)
    if n < 3:
        raise ValueError("hook weight needs degree at least 3")
    first = alpha[0]
    if first > 2:
        return 0
    count = count_perms_with_ctype(sort_composition(alpha))
    flips = n - len(alpha) + (1 if first == 2 else 0)
    return -count if flips % 2 else count


def qimm_hook_fast(a: SquareMatrix) -> Fraction:
    """Quasi-immanant of the hook quasi-Schur element by the direct per-class rule.

    Bypasses coordinate conversion entirely; must agree with
    qimm(a, quasischur((2,1,...,1)), "Psi").
    """
    n = a.n
    values = {alpha: Fraction(hook_qimm_coefficient(alpha)) for alpha in compositions(n)}
    return weighted_perm_sum(a, CoefficientTable(n, "ccomp", values, f"hook rule degree {n}"))
