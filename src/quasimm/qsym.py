"""Quasisymmetric functions with exact rational coefficients.

The monomial basis M_alpha is the working representation.  Classical
symmetric bases (m, p, e, h) are embedded through the quasi-shuffle
product, Schur and quasi-Schur elements come from standard tableaux via
fundamental quasisymmetric functions, and the two power-sum coordinate
systems (Psi and Phi) are reached term by term through closed-form rows
against M.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, defaultdict
from fractions import Fraction
from functools import lru_cache

from .combinatorics import (
    as_composition,
    as_partition,
    dominance_key,
    enumerate_compositions,
    format_parts,
    mask_composition,
    sort_composition,
    weighted_coarsenings,
    z_of,
    z_of_composition,
)

BASES = ("M", "Psi", "Phi")


def _check_exact(value, what: str) -> None:
    """Refuse floats, which are inexact, and booleans, which only pass for integers."""
    if isinstance(value, (float, bool)):
        kind = "boolean" if isinstance(value, bool) else "floating-point"
        raise ValueError(f"{kind} {what} are not accepted")


class QSym:
    """Finite linear combination of basis terms, tagged by coordinate basis.

    Instances are immutable and hashable; coefficients are Fractions in
    lowest terms and zero coefficients are never stored.  Mixed degrees
    are allowed, but conversions handle each degree separately.
    """

    __slots__ = ("basis", "coeffs", "_hash")

    def __init__(self, basis: str, coeffs=()):
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}; expected one of {BASES}")
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        clean: dict = {}
        for alpha, c in items:
            _check_exact(c, "coefficients")
            alpha = as_composition(alpha)
            clean[alpha] = clean.get(alpha, Fraction(0)) + Fraction(c)
        self.basis = basis
        self.coeffs = {a: c for a, c in clean.items() if c}
        self._hash = None

    @classmethod
    def zero(cls, basis: str = "M") -> "QSym":
        return cls(basis)

    @classmethod
    def unit(cls, basis: str = "M") -> "QSym":
        return cls(basis, {(): 1})

    @classmethod
    def basis_element(cls, basis: str, alpha) -> "QSym":
        return cls(basis, {as_composition(alpha): 1})

    def __eq__(self, other):
        if not isinstance(other, QSym):
            return NotImplemented
        return self.basis == other.basis and self.coeffs == other.coeffs

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.basis, frozenset(self.coeffs.items())))
        return self._hash

    def __add__(self, other):
        if not isinstance(other, QSym):
            return NotImplemented
        if self.basis != other.basis:
            raise ValueError(f"basis mismatch: {self.basis} vs {other.basis}")
        merged = dict(self.coeffs)
        for alpha, c in other.coeffs.items():
            merged[alpha] = merged.get(alpha, Fraction(0)) + c
        return QSym(self.basis, merged)

    def __neg__(self):
        return QSym(self.basis, {a: -c for a, c in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, QSym):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, QSym):
            return m_product(self, other)
        _check_exact(other, "scalars")
        scalar = Fraction(other)
        return QSym(self.basis, {a: c * scalar for a, c in self.coeffs.items()})

    def __rmul__(self, other):
        return self.__mul__(other)

    def __bool__(self):
        return bool(self.coeffs)

    def coefficient(self, alpha) -> Fraction:
        return self.coeffs.get(as_composition(alpha), Fraction(0))

    def degrees(self) -> list[int]:
        return sorted({sum(a) for a in self.coeffs})

    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

    def degree(self) -> int:
        degs = self.degrees()
        if len(degs) != 1:
            raise ValueError("element is zero or of mixed degree")
        return degs[0]

    def ordered_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Terms sorted by degree, then by descending dominance within a degree."""
        items = sorted(self.coeffs.items(), key=lambda kv: dominance_key(kv[0]), reverse=True)
        items.sort(key=lambda kv: sum(kv[0]))
        return items

    def __repr__(self):
        return f"QSym({self.basis!r}, {dict(self.ordered_terms())!r})"

    def __str__(self):
        return format_element(self)


def _shuffle(alpha, beta, memo: dict) -> dict:
    """Quasi-shuffle of two compositions: term composition -> multiplicity.

    Recursion on first parts: take a, take b, or merge both into a+b.
    memo holds the sub-shuffles of one product and is dropped with it.
    """
    if not alpha:
        return {beta: 1}
    if not beta:
        return {alpha: 1}
    if (alpha, beta) in memo:
        return memo[alpha, beta]
    a, b = alpha[0], beta[0]
    out: Counter = Counter()
    for gamma, m in _shuffle(alpha[1:], beta, memo).items():
        out[(a,) + gamma] += m
    for gamma, m in _shuffle(alpha, beta[1:], memo).items():
        out[(b,) + gamma] += m
    for gamma, m in _shuffle(alpha[1:], beta[1:], memo).items():
        out[(a + b,) + gamma] += m
    memo[alpha, beta] = dict(out)
    return memo[alpha, beta]


def m_product(x: QSym, y: QSym) -> QSym:
    """Bilinear quasi-shuffle product of two elements in M coordinates."""
    if x.basis != "M" or y.basis != "M":
        raise ValueError("m_product needs both factors in M coordinates")
    acc: defaultdict = defaultdict(Fraction)
    memo: dict = {}
    for alpha, ca in x.coeffs.items():
        for beta, cb in y.coeffs.items():
            weight = ca * cb
            for gamma, m in _shuffle(alpha, beta, memo).items():
                acc[gamma] += m * weight
    return QSym("M", acc)


def monomial_sym(lam) -> QSym:
    """m_lam: sum of M_alpha over all distinct rearrangements alpha of lam."""
    return _monomial_sym(as_partition(lam))


@lru_cache(maxsize=128)
def _monomial_sym(lam) -> QSym:
    return QSym("M", dict.fromkeys(_rearrangements(lam), 1))


def _rearrangements(parts: tuple) -> list:
    """Distinct orderings of the multiset of parts, led in turn by each distinct part."""
    if not parts:
        return [()]
    return [
        (p,) + rest
        for i, p in enumerate(parts)
        if p not in parts[:i]
        for rest in _rearrangements(parts[:i] + parts[i + 1 :])
    ]


def power_sym(lam) -> QSym:
    """p_lam as the product of the single-part elements M_(k), k in lam."""
    return _power_sym(as_partition(lam))


@lru_cache(maxsize=128)
def _power_sym(lam) -> QSym:
    out = QSym.unit("M")
    for k in lam:
        out = out * QSym.basis_element("M", (k,))
    return out


def elementary_sym(lam) -> QSym:
    """e_lam as the product of the column elements M_(1^k), k in lam."""
    return _elementary_sym(as_partition(lam))


@lru_cache(maxsize=128)
def _elementary_sym(lam) -> QSym:
    out = QSym.unit("M")
    for k in lam:
        out = out * QSym.basis_element("M", (1,) * k)
    return out


def homogeneous_sym(lam) -> QSym:
    """h_lam as the product of the full sums over all compositions of each part."""
    return _homogeneous_sym(as_partition(lam))


@lru_cache(maxsize=128)
def _homogeneous_sym(lam) -> QSym:
    out = QSym.unit("M")
    for k in lam:
        out = out * QSym("M", {alpha: 1 for alpha in enumerate_compositions(k)})
    return out


def schur_sym(lam) -> QSym:
    """s_lam as the sum of F_Des(T) over the standard Young tableaux T of shape lam.

    Values 1..n fill the diagram corner by corner; i is a descent when i+1
    lies in a strictly lower row (Gessel's fundamental expansion).
    """
    lam = as_partition(lam)
    counts = _descent_counts(
        lam,
        range(1, sum(lam) + 1),
        lambda grid, j, k, v: j == 0 or grid[j - 1][k] > 0,
        lambda cell, after: after[0] > cell[0],
    )
    return _from_fundamentals(sum(lam), counts)


def _admissible(rows, alpha, j, k, v) -> bool:
    """Whether v may sit in cell (j, k) of a composition tableau, given the cells filled so far.

    rows holds 0 in empty cells.  Rows weakly decrease left to right, the
    first column strictly increases top to bottom, and on the rectangle
    obtained by zero-padding every row to the maximum part m, any cells
    (i,k) above (j,k) with 2 <= k must satisfy: a nonzero entry at (j,k)
    that is >= the entry at (i,k) must exceed the entry at (i,k-1).
    """
    if k == 0:
        return j == 0 or v > rows[j - 1][0]
    if v > rows[j][k - 1]:
        return False
    for i in range(j):
        right = rows[i][k] if k < alpha[i] else 0
        left = rows[i][k - 1] if k - 1 < alpha[i] else 0
        if right <= v <= left:
            return False
    return True


def count_composition_tableaux(alpha, beta) -> int:
    """Number of fillings of the diagram of alpha with content beta.

    A filling places value v in beta_v cells, cell by cell in reading order,
    where each cell takes any value that _admissible allows.
    """
    alpha = as_composition(alpha)
    beta = as_composition(beta)
    if sum(alpha) != sum(beta):
        raise ValueError("shape and content must have equal order")
    if not alpha:
        return 1
    values = len(beta)
    remaining = [0] + list(beta)  # remaining[v] = unused copies of value v
    rows = [[0] * width for width in alpha]
    cells = [(j, k) for j, width in enumerate(alpha) for k in range(width)]

    def fill(pos):
        if pos == len(cells):
            return 1
        j, k = cells[pos]
        total = 0
        for v in range(1, values + 1):
            if remaining[v] and _admissible(rows, alpha, j, k, v):
                remaining[v] -= 1
                rows[j][k] = v
                total += fill(pos + 1)
                rows[j][k] = 0
                remaining[v] += 1
        return total

    return fill(0)


def quasischur(alpha) -> QSym:
    """Quasi-Schur element of shape alpha: sum of F_Des(T) over its standard composition tableaux.

    Values n..1 fill the diagram; a row starts only after the row below it,
    as the first column increases downwards.  An empty cell then holds a
    smaller value, so the _admissible rule applies as it stands; i is a
    descent when i+1 lies in a column weakly right of i's.
    """
    alpha = as_composition(alpha)
    counts = _descent_counts(
        alpha,
        range(sum(alpha), 0, -1),
        lambda grid, j, k, v: (k > 0 or j + 1 == len(alpha) or grid[j + 1][0] > 0)
        and _admissible(grid, alpha, j, k, v),
        lambda cell, after: after[1] >= cell[1],
    )
    return _from_fundamentals(sum(alpha), counts)


def _descent_counts(shape, values, fits, descent) -> Counter:
    """Histogram of descent masks over the standard fillings of shape.

    Values are placed in the given order, each in the first empty cell of a
    row where fits(grid, row, column, value) holds (grid holds 0 in empty
    cells); bit i-1 of a mask is set when descent(cell of i, cell of i+1).
    """
    n = len(values)
    grid = [[0] * width for width in shape]
    filled = [0] * len(shape)
    at = [None] * (n + 1)  # at[v]: the (row, column) holding v
    counts: Counter = Counter()

    def grow(step):
        if step == n:
            counts[sum(1 << (i - 1) for i in range(1, n) if descent(at[i], at[i + 1]))] += 1
            return
        v = values[step]
        for j, width in enumerate(shape):
            k = filled[j]
            if k < width and fits(grid, j, k, v):
                grid[j][k], filled[j], at[v] = v, k + 1, (j, k)
                grow(step + 1)
                grid[j][k], filled[j] = 0, k

    grow(0)
    return counts


def _from_fundamentals(n, counts) -> QSym:
    """M coordinates of the sum of counts[mask] F_mask over descent masks of degree n.

    F_D is the sum of M_beta over every beta whose descent set contains D, so
    each mask's count goes to each of its own supersets: sum of 2^(n-1-|D|)
    additions over the masks D present.
    """
    full = (1 << max(n - 1, 0)) - 1
    coeffs: defaultdict = defaultdict(int)
    for mask, c in counts.items():
        free = extra = full & ~mask
        while True:  # extra runs over every subset of the free bits
            coeffs[mask | extra] += c
            if not extra:
                break
            extra = (extra - 1) & free
    return QSym("M", {mask_composition(n, mask): c for mask, c in coeffs.items() if c})


# Closed-form rows (Ballantine, Daugherty, Hicks, Mason and Niese, "On
# quasisymmetric power sums").  Merging a block b of consecutive parts into
# one part contributes the factor below; a row's entry is the product of its
# blocks' factors, then divided by z of the coarsening (M to power sums) or
# multiplied by z of the row's own index (power sums to M).  The products are
# the signed lp(beta,alpha) and prod(alpha)/ell(beta,alpha), and 1/pi(alpha,beta)
# and 1/sp(alpha,beta).  The Phi factor is taken times unit = lcm(1..n).
_TO_POWER = {
    "Psi": lambda b, unit=1: -b[-1] if len(b) % 2 == 0 else b[-1],
    "Phi": lambda b, unit: sum(b) * unit // len(b) * (-1 if len(b) % 2 == 0 else 1),
}
_TO_M = {
    "Psi": lambda b: Fraction(1, math.prod(itertools.accumulate(b))),
    "Phi": lambda b: Fraction(1, math.factorial(len(b)) * math.prod(b)),
}


def m_to_power_row(beta, variant: str = "Psi") -> dict:
    """Psi (or Phi) coordinates of M_beta: one entry per coarsening alpha of beta.

    The entry is (-1)^(len(beta)-len(alpha)) lp(beta,alpha)/z_alpha for Psi
    and (-1)^(len(beta)-len(alpha)) prod(alpha)/(z_alpha ell(beta,alpha))
    for Phi.
    """
    _check_variant(variant)
    return to_coords(QSym.basis_element("M", beta), variant).coeffs


def power_to_m_row(alpha, variant: str = "Psi") -> dict:
    """M coordinates of Psi_alpha (or Phi_alpha): one entry per coarsening beta of alpha.

    The entry is z_alpha/pi(alpha,beta) for Psi and z_alpha/sp(alpha,beta)
    for Phi, where pi multiplies the partial sums within each block and sp
    multiplies each block's length factorial by its parts.
    """
    _check_variant(variant)
    return to_coords(QSym.basis_element(variant, alpha), "M").coeffs


def _check_variant(variant: str) -> None:
    if variant not in ("Psi", "Phi"):
        raise ValueError(f"unknown power-sum variant {variant!r}")


def to_coords(q: QSym, target: str) -> QSym:
    """Coordinates of q in the target basis, one closed-form row per term."""
    if target not in BASES:
        raise ValueError(f"unknown basis {target!r}; expected one of {BASES}")
    if q.basis == target:
        return q
    if q.basis != "M":
        terms = ((alpha, c * z_of_composition(alpha)) for alpha, c in q.coeffs.items())
        q = QSym("M", _merge_blocks(terms, _TO_M[q.basis]))
        if target == "M":
            return q
    # Scaled to integer coefficients, the sums stay in integer arithmetic; a
    # coarsening alpha has len(alpha) blocks, so it carries unit^len(alpha).
    terms, scale = _integer_terms(q)
    unit = math.lcm(*range(1, max(map(sum, q.coeffs), default=0) + 1)) if target == "Phi" else 1
    sums = _merge_blocks(terms, lambda b: _TO_POWER[target](b, unit))
    out = {a: Fraction(s, scale * z_of_composition(a) * unit ** len(a)) for a, s in sums.items()}
    return QSym(target, out)


def _integer_terms(q: QSym):
    """q's terms with coefficients times the lcm of their denominators, and that lcm."""
    scale = math.lcm(*(c.denominator for c in q.coeffs.values()))
    return ((beta, c.numerator * (scale // c.denominator)) for beta, c in q.coeffs.items()), scale


def _merge_blocks(terms, factor, partitions=False) -> dict:
    """Sum over (index, c) of c times each coarsening of index, weighted by its blocks."""
    out: defaultdict = defaultdict(int)
    for index, c in terms:
        for coarser, w in weighted_coarsenings(index, factor, partitions):
            out[coarser] += c * w
    return out


def _rearrangement_count(lam) -> int:
    count = math.factorial(len(lam))
    for _, group in itertools.groupby(lam):
        count //= math.factorial(len(tuple(group)))
    return count


def is_symmetric(q: QSym) -> bool:
    """True iff q's coefficients, in its own basis, are constant on rearrangement classes.

    Every rearrangement of a contributing partition must be present with
    the same coefficient.  The test holds in M, and in Psi and Phi too:
    p_lam is the sum of Psi_alpha, and of Phi_alpha, over the rearrangements
    alpha of lam.
    """
    groups: defaultdict = defaultdict(list)
    for alpha, c in q.coeffs.items():
        groups[sort_composition(alpha)].append(c)
    for lam, cs in groups.items():
        if len(set(cs)) != 1 or len(cs) != _rearrangement_count(lam):
            return False
    return True


def p_weights(q: QSym) -> dict:
    """z_mu times the p_mu coefficient of a symmetric q, at each partition mu where it is nonzero.

    The p_mu coefficient of a symmetric element is its Psi coordinate at mu,
    and its Phi coordinate there too.  A Psi or Phi element is read as it
    stands; from M only the weakly decreasing coarsenings of each term are
    summed, and z_mu cancels the 1/z_mu of the M-to-Psi row.  Symmetry is
    not checked here.
    """
    if q.basis != "M":
        return {mu: z_of(mu) * c for mu, c in q.coeffs.items() if sort_composition(mu) == mu}
    terms, scale = _integer_terms(q)
    sums = _merge_blocks(terms, _TO_POWER["Psi"], partitions=True)
    return {mu: Fraction(s, scale) for mu, s in sums.items() if s}


def p_coefficient(q: QSym, lam) -> Fraction:
    """Coefficient of p_lam in a symmetric element."""
    lam = as_partition(lam)
    if not is_symmetric(q):
        raise ValueError("p_coefficient needs a symmetric element")
    return p_weights(q).get(lam, Fraction(0)) / z_of(lam)


def to_json_dict(q: QSym) -> dict:
    """Serialized form: basis tag plus terms in deterministic order."""
    return {
        "basis": q.basis,
        "terms": [
            {"index": format_parts(alpha), "coeff": str(c)} for alpha, c in q.ordered_terms()
        ],
    }


def format_element(q: QSym) -> str:
    """Text form like 'M[2,1] + M[1,1,1]' with exact rational coefficients."""
    terms = q.ordered_terms()
    if not terms:
        return "0"
    pieces = []
    for alpha, c in terms:
        symbol = f"{q.basis}[{format_parts(alpha)}]"
        magnitude = abs(c)
        body = symbol if magnitude == 1 else f"{magnitude}*{symbol}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces)
