"""Exact evaluation of weighted permutation sums over square rational matrices.

Every matrix function here is one weighted_perm_sum: the matrix's class
sums, one exact sum of diagonal products per cycle composition, contracted
with a per-class weight vector.  The whole pass runs in integers: a matrix
is scaled to integers once, when it is built, and the contraction is one
integer dot product with the table's numerators, so one Fraction is built
per call.  The weights are a named CoefficientTable of integers keyed by
cycle type or by cycle composition: the character of lam for the immanant
of lam (the permanent and determinant are those of (n) and (1,...,1), and
share their tables), the sign character induced from S_lam for the
elementary immanant, the hook rule for the fast hook path, and otherwise
the table read from a quasisymmetric element.  Each is built once and kept
in one bounded LRU cache, keyed by its builder and the order, shape or
element it is built from.  class_sums is a subset DP in integers: Held-Karp
path sums give the sum of cyclic products on each index set, and chaining
those cycles in min-first order gives the class sums.  Both stages visit
only the index sets reachable along nonzero entries, never all 2^n: a dense
matrix costs about 4^n/12 (covered set, cycle) pairs, 88 000 at n = 10
against 10! leaves, and a banded one far fewer.  The permutation walk it
replaced is a test oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .characters import CoefficientTable, character_class_function, induced_sign_character
from .combinatorics import (
    ReadOnly,
    as_composition,
    as_partition,
    compositions,
    count_perms_with_ctype,
    enumerate_partitions,
    exact,
    integer_terms,
    one_of,
    sort_composition,
)
from .qsym import VARIANTS, QSym, is_symmetric, monomial_sym, p_weights, power_numerators


class SquareMatrix(ReadOnly):
    """Immutable square matrix of exact rationals, scaled to integers once, when built.

    integers holds each row times lcms[i], the lcm of its denominators: the one
    form every pass reads, and the canonical one that matrices compare and hash
    by.  rows and entry are Fraction views of it.
    """

    __slots__ = ("n", "integers", "lcms")

    def __new__(cls, rows):
        sequence = (list, tuple)  # text or bytes would be read one character at a time
        if not isinstance(rows, sequence) or not all(isinstance(row, sequence) for row in rows):
            raise ValueError("matrix must be a list of rows, each a list of entries")
        rows = [[exact(e, "matrix entry %s", e) for e in row] for row in rows]
        if not rows or any(len(row) != len(rows) for row in rows):
            raise ValueError("matrix must be square and nonempty")
        lcms = tuple(math.lcm(*(e.denominator for e in row)) for row in rows)
        scaled = zip(rows, lcms)
        integers = tuple(tuple(e.numerator * d // e.denominator for e in row) for row, d in scaled)
        return cls._of(len(rows), integers, lcms)

    @classmethod
    def identity(cls, n: int) -> "SquareMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def rows(self) -> tuple:
        return tuple(tuple(Fraction(v, d) for v in row) for row, d in zip(self.integers, self.lcms))

    def entry(self, i: int, j: int) -> Fraction:
        """Entry in row i, column j, both 1-based."""
        return Fraction(self.integers[i - 1][j - 1], self.lcms[i - 1])

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
    """Read a matrix from a JSON or CSV file, deciding by the leading character.

    A file that cannot be read raises OSError; any malformed content raises ValueError.
    """
    with open(path, encoding="utf-8-sig") as source:  # a leading byte-order mark is dropped
        text = source.read()
    if text.lstrip()[:1] in ("{", "["):  # each format imports its parser only when read
        import json

        try:
            return matrix_from_json_dict(json.loads(text, parse_int=_json_int))
        except RecursionError:
            raise ValueError("matrix JSON is nested too deeply to read") from None
    import csv
    import io

    rows = []
    try:
        for row in csv.reader(io.StringIO(text)):
            cells = [tok.strip() for tok in row]
            if any(cells):
                rows.append(cells)
    except csv.Error as exc:
        raise ValueError(f"unreadable CSV: {exc}") from None
    return SquareMatrix(rows)


def _json_int(digits: str):
    """A JSON integer, left as text past the int-to-text digit limit so that exact names it."""
    try:
        return int(digits)
    except ValueError:
        return digits


def class_sums(a: SquareMatrix) -> tuple[dict, int]:
    """Sums of a[1,sigma(1)] * ... * a[n,sigma(n)] by cycle composition alpha of sigma.

    Returns ({alpha: integer sum}, scale): the sums of the matrix's integer
    rows, so a class sum is its integer over scale, the product of the lcms.
    A subset DP in two stages, each visiting only the index sets it can
    reach along nonzero entries.  First the cycle sums: W(T), the sum of
    the cyclic products on T, from Held-Karp path sums that start at
    s = min(T), step through indices above s and close back to s along
    the nonzero entries of column s.  Then the chaining: a covered set U
    grows by a cycle T with nonzero W(T) whose minimum is the least index
    not in U (the min-first order of combinatorics.cycles), appending |T|
    to each composition held at U.
    """
    n, dense = a.n, a.integers
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
    return pending[n].get((1 << n) - 1, {}), math.prod(a.lcms)


def weighted_perm_sum(a: SquareMatrix, table: CoefficientTable) -> Fraction:
    """Sum over permutations of table weight times the product of picked entries.

    The contraction of class_sums(a) with the table is one integer dot
    product: each class sum times the table's numerator at its cycle
    composition (ccomp) or at its sorted cycle type (ctype), over the
    table's den and the matrix's scale.
    """
    if table.degree != a.n:
        raise ValueError(f"table degree {table.degree} does not match matrix dimension {a.n}")
    sums, scale = class_sums(a)
    weights = table.numerators
    if table.key == "ctype":
        total = sum(weights[sort_composition(alpha)] * s for alpha, s in sums.items())
    else:
        total = sum(weights[alpha] * s for alpha, s in sums.items())
    return Fraction(total, table.den * scale)


def permanent(a: SquareMatrix) -> Fraction:
    """Immanant of the one-row shape (n), whose character is the trivial one."""
    return immanant(a, (a.n,))


def determinant(a: SquareMatrix) -> Fraction:
    """Immanant of the one-column shape (1,...,1), whose character is the sign."""
    return immanant(a, (1,) * a.n)


def determinant_elimination(a: SquareMatrix) -> Fraction:
    """Determinant by fraction-free elimination, independent of any permutation sum.

    It eliminates on a copy of the matrix's integer rows; the integer
    elimination keeps every division exact.
    """
    n, m = a.n, [list(row) for row in a.integers]
    flip = prev = 1
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
    return Fraction(flip * m[n - 1][n - 1], math.prod(a.lcms))


def immanant(a: SquareMatrix, lam) -> Fraction:
    """Permutation sum weighted by the irreducible character of shape lam."""
    return weighted_perm_sum(a, _weights(character_class_function, _shape_of_order(a, lam)))


def second_immanant(a: SquareMatrix) -> Fraction:
    """Immanant of the hook shape (2,1,...,1)."""
    if a.n < 2:
        raise ValueError("second immanant needs dimension at least 2")
    return immanant(a, (2,) + (1,) * (a.n - 2))


def elementary_immanant(a: SquareMatrix, lam) -> Fraction:
    """Quasi-immanant of e_lam, weighted by the sign character of S_lam induced to S_n."""
    return weighted_perm_sum(a, _weights(induced_sign_character, _shape_of_order(a, lam)))


def monomial_immanant(a: SquareMatrix, lam) -> Fraction:
    """Quasi-immanant of m_lam: weight z_mu times the p_mu coefficient of m_lam."""
    return weighted_perm_sum(a, _weights(monomial_sym, _shape_of_order(a, lam)))


def _shape_of_order(a: SquareMatrix, lam):
    """lam as a partition of a's order, refused before any table for it is built."""
    lam = as_partition(lam)
    if sum(lam) != a.n:
        raise ValueError(f"table degree {sum(lam)} does not match matrix dimension {a.n}")
    return lam


@lru_cache(maxsize=128)  # a fixed bound, above any pool of tables used at once
def _weights(source, *args) -> CoefficientTable:
    """The table source(*args) builds, or the table of the symmetric element it builds."""
    made = source(*args)
    return made if isinstance(made, CoefficientTable) else _element_table(made, "Psi")


def qimm_coefficient_table(q: QSym, variant: str = "Psi") -> CoefficientTable:
    """Materialize the per-class weights read from n! times the element q.

    A symmetric q is keyed by cycle type with weight z_mu times its p_mu
    coefficient (the per-permutation reading of the power-sum expansion),
    whatever the variant; any other q is keyed by cycle composition with
    weight n! times its coordinate in the chosen power-sum variant.  Tables
    are cached, and a symmetric q has one table under both variants.
    """
    return _weights(_element_table, q, one_of(variant, VARIANTS, "power-sum variant"))


def _element_table(q: QSym, variant: str) -> CoefficientTable:
    n = q.degree()
    if not is_symmetric(q):
        sums, den = power_numerators(q, variant)
        numerators = dict.fromkeys(compositions(n), 0)
        numerators.update(sums)
        provenance = f"qimm {variant} degree {n}"
        return CoefficientTable.from_numerators(n, "ccomp", numerators, den, provenance)
    if variant != "Psi":  # the cycle-type table does not depend on the variant
        return _weights(_element_table, q, "Psi")
    weights, den = integer_terms(p_weights(q))
    numerators = dict.fromkeys(enumerate_partitions(n), 0)
    numerators.update(weights)
    return CoefficientTable.from_numerators(n, "ctype", numerators, den, f"qimm ctype degree {n}")


qimm_coefficient_table.cache_info = _weights.cache_info
qimm_coefficient_table.cache_clear = _weights.cache_clear


def qimm(a: SquareMatrix, q: QSym, variant: str = "Psi") -> Fraction:
    """Quasi-immanant: permutation sum with weights read from n! times q.

    q must be homogeneous of degree equal to the matrix dimension.  When q
    is symmetric, the weight of sigma is z_mu times the p_mu coefficient of
    q, mu the cycle type (1 at every class for h_n, so h_n gives the
    permanent); otherwise it is n! times the coordinate of q in the variant
    power sum at the cycle composition.
    """
    one_of(variant, VARIANTS, "power-sum variant")
    if not q.coeffs:
        return Fraction(0)
    if q.degree() != a.n:
        raise ValueError(f"element degree {q.degree()} does not match matrix dimension {a.n}")
    return weighted_perm_sum(a, qimm_coefficient_table(q, variant))


def hook_qimm_coefficient(alpha) -> int:
    """Per-class weight of the hook quasi-Schur element, from the cycle composition.

    The element is the two-term sum M at (2,1,...,1) plus M at (1,...,1)
    of degree n >= 3; the weight depends only on the first part of the cycle
    composition: first part 1 gives (-1)^(n-len) times the class size n!/z,
    first part 2 flips that sign, anything larger vanishes.
    """
    alpha = as_composition(alpha)
    n = sum(alpha)
    if n < 3:
        raise ValueError("hook weight needs degree at least 3")
    if alpha[0] > 2:
        return 0
    size = count_perms_with_ctype(sort_composition(alpha))
    return -size if (n - len(alpha) + (alpha[0] == 2)) % 2 else size


def _hook_table(n: int) -> CoefficientTable:
    """The hook rule at every composition of n."""
    values = {alpha: hook_qimm_coefficient(alpha) for alpha in compositions(n)}
    return CoefficientTable.from_numerators(n, "ccomp", values, 1, f"hook rule degree {n}")


def qimm_hook_fast(a: SquareMatrix) -> Fraction:
    """Quasi-immanant of the hook quasi-Schur element by the direct per-class rule.

    Bypasses coordinate conversion entirely; must agree with
    qimm(a, quasischur((2,1,...,1)), "Psi").
    """
    return weighted_perm_sum(a, _weights(_hook_table, a.n))
