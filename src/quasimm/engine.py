"""Exact evaluation of weighted permutation sums over square rational matrices.

Every matrix function here is one weighted_perm_sum: the matrix's class
sums, one exact sum of diagonal products per cycle composition, contracted
with a per-class weight vector.  The weights are a named CoefficientTable
keyed by cycle type or by cycle composition: a character for the permanent,
determinant and immanants, the hook rule for the fast hook path, and
otherwise the table read from a quasisymmetric element, kept in one
bounded LRU cache.  class_sums walks permutations cycle by cycle in
integers, following only nonzero entries, so a sparse matrix never
touches most of the n! terms.
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
    count_perms_with_ctype,
    enumerate_compositions,
    enumerate_partitions,
    sort_composition,
)
from .qsym import QSym, elementary_sym, is_symmetric, monomial_sym, p_weights, to_coords


# Text entries: an optionally signed integer, or such an integer over a nonzero one.
_ENTRY_TEXT = re.compile(r"[+-]?[0-9]+(/0*[1-9][0-9]*)?")


class SquareMatrix:
    """Immutable dense square matrix of exact rationals."""

    __slots__ = ("n", "rows")

    def __init__(self, rows):
        converted = []
        for row in rows:
            out = []
            for entry in row:
                if isinstance(entry, float):
                    raise ValueError("floating-point entries are not accepted")
                if isinstance(entry, bool) or (
                    isinstance(entry, str) and not _ENTRY_TEXT.fullmatch(entry.strip())
                ):
                    raise ValueError(f"matrix entry {entry!r} is not an integer or a/b")
                out.append(Fraction(entry))
            converted.append(tuple(out))
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
        rows.append([int(e * lcm) for e in row])
    return rows, scale


def class_sums(a: SquareMatrix) -> tuple[dict, int]:
    """Sums of a[1,sigma(1)] * ... * a[n,sigma(n)] by cycle composition alpha of sigma.

    Returns ({alpha: integer sum}, scale): each row is scaled to integers by
    the lcm of its denominators, so a class sum is its integer over scale.
    The walk goes cycle by cycle, each new cycle opening at the least index
    not yet covered (the min-first order of combinatorics.cycles), so alpha
    grows as it goes, and it follows only nonzero entries.
    """
    n = a.n
    dense, scale = _integer_rows(a)
    nonzero = [[(1 << j, j, v) for j, v in enumerate(ints) if v] for ints in dense]
    full = (1 << n) - 1
    sums = {}
    # Open walks: (row i choosing sigma(i), start of the open cycle, indices
    # covered so far, length of the open cycle, closed cycle lengths, product).
    stack = [(0, 0, 1, 1, (), 1)]
    while stack:
        i, start, covered, length, alpha, prod = stack.pop()
        if covered == full:  # the last index left must close the cycle
            v = dense[i][start]
            if v:
                alpha += (length,)
                sums[alpha] = sums.get(alpha, 0) + prod * v
            continue
        for bit, j, v in nonzero[i]:
            if j == start:
                low = ~covered & (covered + 1)
                nxt = low.bit_length() - 1
                stack.append((nxt, nxt, covered | low, 1, alpha + (length,), prod * v))
            elif not covered & bit:
                stack.append((j, start, covered | bit, length + 1, alpha, prod * v))
    return sums, scale


def weighted_perm_sum(a: SquareMatrix, table: CoefficientTable) -> Fraction:
    """Sum over permutations of table weight times the product of picked entries.

    The contraction of class_sums(a) with the table: a ccomp table reads
    each cycle composition, a ctype table its sorted parts.
    """
    if table.degree != a.n:
        raise ValueError(f"table degree {table.degree} does not match matrix dimension {a.n}")
    sums, scale = class_sums(a)
    values, ctype = table.values, table.key == "ctype"
    total = sum(values[sort_composition(alpha) if ctype else alpha] * s for alpha, s in sums.items())
    return Fraction(total) / scale


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


def qimm_coefficient_table(q: QSym, variant: str = "Psi", branch: str = "auto") -> CoefficientTable:
    """Materialize the per-class weights read from n! times the element q.

    With branch "auto", a symmetric q is keyed by cycle type with weight
    z_mu times its p_mu coefficient (the per-permutation reading of the
    power-sum expansion), and any other q is keyed by cycle composition
    with weight n! times its coordinate in the chosen power-sum variant.
    Forcing "ccomp" on a symmetric element is allowed and scales each
    class by n!/z_mu relative to the "ctype" keying.  Tables are cached,
    and every spelling that yields the same table returns the same object.
    """
    if variant not in ("Psi", "Phi"):
        raise ValueError(f"unknown power-sum variant {variant!r}")
    if branch not in ("auto", "ctype", "ccomp"):
        raise ValueError(f"unknown branch {branch!r}")
    return _coefficient_table(q, variant, branch)


@lru_cache(maxsize=128)  # a fixed bound, above any pool of elements used at once
def _coefficient_table(q: QSym, variant: str | None, branch: str) -> CoefficientTable:
    n = q.degree()
    if branch == "ccomp":
        coords = to_coords(q, variant).coeffs
        factorial = math.factorial(n)
        values = {
            alpha: factorial * coords.get(alpha, Fraction(0))
            for alpha in enumerate_compositions(n)
        }
        return CoefficientTable(n, "ccomp", values, f"qimm {variant} degree {n}")
    if variant is None:  # the one cycle-type entry, reached once q is known to be symmetric
        weights = p_weights(q)
        values = {mu: weights.get(mu, Fraction(0)) for mu in enumerate_partitions(n)}
        return CoefficientTable(n, "ctype", values, f"qimm ctype degree {n}")
    if is_symmetric(q):
        return _coefficient_table(q, None, "ctype")
    if branch == "ctype":
        raise ValueError("cycle-type weighting needs a symmetric element")
    return _coefficient_table(q, variant, "ccomp")


qimm_coefficient_table.cache_info = _coefficient_table.cache_info
qimm_coefficient_table.cache_clear = _coefficient_table.cache_clear


def qimm(a: SquareMatrix, q: QSym, variant: str = "Psi", branch: str = "auto") -> Fraction:
    """Quasi-immanant: permutation sum with weights read from n! times q.

    q must be homogeneous of degree equal to the matrix dimension.  The
    weight of sigma is the coefficient in n!q of p at the cycle type when
    q is symmetric, and of the variant power sum at the cycle composition
    otherwise.
    """
    if not q.coeffs:
        return Fraction(0)
    if not q.is_homogeneous():
        raise ValueError("quasi-immanant needs a homogeneous element")
    if q.degree() != a.n:
        raise ValueError(f"element degree {q.degree()} does not match matrix dimension {a.n}")
    return weighted_perm_sum(a, qimm_coefficient_table(q, variant, branch))


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
    if n < 3:
        raise ValueError("hook evaluation needs dimension at least 3")
    values = {alpha: Fraction(hook_qimm_coefficient(alpha)) for alpha in enumerate_compositions(n)}
    return weighted_perm_sum(a, CoefficientTable(n, "ccomp", values, f"hook rule degree {n}"))
