"""Quasisymmetric functions with exact rational coefficients.

The monomial basis M_alpha is the working representation.  Classical
symmetric bases (m, p, e, h) are embedded through the quasi-shuffle
product, Schur and quasi-Schur elements come from standard tableaux via
fundamental quasisymmetric functions, and the two power-sum coordinate
systems (Psi and Phi) are reached from M, and M from them, by one integer
pass over the descent masks that sums the closed-form rows of all terms.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, defaultdict
from collections.abc import Mapping
from fractions import Fraction
from functools import reduce

from .combinatorics import (
    ReadOnly,
    as_composition,
    as_partition,
    compositions,
    dominance_key,
    exact,
    format_parts,
    integer_terms,
    mask_composition,
    one_of,
    sort_composition,
    z_of,
    z_of_composition,
)

BASES = ("M", "Psi", "Phi")
VARIANTS = ("Psi", "Phi")


class QSym(ReadOnly):
    """Finite linear combination of basis terms, tagged by coordinate basis.

    Instances are immutable and hashable; coeffs is a read-only mapping to
    Fractions in lowest terms, and zero coefficients are never stored.
    Mixed degrees are allowed, but conversions handle each degree separately.
    """

    __slots__ = ("basis", "coeffs")

    def __new__(cls, basis: str, coeffs=()):
        one_of(basis, BASES, "basis")
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        clean: dict = {}
        for alpha, c in items:
            c = exact(c, "coefficient %s at %s", c, alpha)
            alpha = as_composition(alpha)
            clean[alpha] = clean.get(alpha, Fraction(0)) + c
        return cls._of(basis, {a: c for a, c in clean.items() if c})

    @classmethod
    def zero(cls, basis: str = "M") -> "QSym":
        return cls(basis)

    @classmethod
    def unit(cls, basis: str = "M") -> "QSym":
        return cls(basis, {(): 1})

    @classmethod
    def basis_element(cls, basis: str, alpha) -> "QSym":
        return cls(basis, {as_composition(alpha): 1})

    def __add__(self, other):
        if not isinstance(other, QSym):
            return NotImplemented
        if self.basis != other.basis:
            raise ValueError(f"basis mismatch: {self.basis} vs {other.basis}")
        merged = dict(self.coeffs)
        for alpha, c in other.coeffs.items():
            merged[alpha] = merged.get(alpha, 0) + c
        return QSym._of(self.basis, {a: c for a, c in merged.items() if c})

    def __neg__(self):
        return QSym._of(self.basis, {a: -c for a, c in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, QSym):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, QSym):
            return m_product(self, other)
        scalar = exact(other, "scalar %s", other)
        return QSym._of(self.basis, {a: c * scalar for a, c in self.coeffs.items() if scalar})

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
    """Bilinear quasi-shuffle product of two elements in M coordinates.

    Both factors are scaled to integer coefficients, so the products
    accumulate in integers and one Fraction is built per term.
    """
    if x.basis != "M" or y.basis != "M":
        raise ValueError("m_product needs both factors in M coordinates")
    (xs, sx), (ys, sy) = integer_terms(x.coeffs), integer_terms(y.coeffs)
    acc: defaultdict = defaultdict(int)
    memo: dict = {}
    for alpha, a in xs:
        for beta, b in ys:
            weight = a * b
            for gamma, m in _shuffle(alpha, beta, memo).items():
                acc[gamma] += m * weight
    return QSym._of("M", {gamma: Fraction(c, sx * sy) for gamma, c in acc.items() if c})


def _product(factors) -> QSym:
    """The product of the factors, from the first one on; the unit when there are none."""
    return reduce(m_product, factors) if factors else QSym.unit("M")


def monomial_sym(lam) -> QSym:
    """m_lam: sum of M_alpha over all distinct rearrangements alpha of lam."""
    return QSym._of("M", dict.fromkeys(_rearrangements(as_partition(lam)), Fraction(1)))


def _rearrangements(parts: tuple) -> list:
    """Distinct orderings of the parts: each run of m equal parts takes every m places in turn."""
    out: list = [()]
    for p, run in itertools.groupby(parts):
        m = len(tuple(run))
        grown = []
        for rest in out:
            for places in itertools.combinations(range(len(rest) + m), m):
                row = list(rest)
                for i in places:
                    row.insert(i, p)
                grown.append(tuple(row))
        out = grown
    return out


def power_sym(lam) -> QSym:
    """p_lam as the product of the single-part elements M_(k), k in lam."""
    return _product([QSym.basis_element("M", (k,)) for k in as_partition(lam)])


def elementary_sym(lam) -> QSym:
    """e_lam as the product of the column elements M_(1^k), k in lam."""
    return _product([QSym.basis_element("M", (1,) * k) for k in as_partition(lam)])


def homogeneous_sym(lam) -> QSym:
    """h_lam as the product of the full sums over all compositions of each part."""
    full = [QSym._of("M", dict.fromkeys(compositions(k), Fraction(1))) for k in as_partition(lam)]
    return _product(full)


def schur_sym(lam) -> QSym:
    """s_lam as the sum of F_Des(T) over the standard Young tableaux T of shape lam.

    Values 1..n fill the diagram, so each new value is the largest so far:
    a started row grows while the row above it is longer.  i is a descent
    when i+1 lies in a strictly lower row (Gessel's fundamental expansion).
    """
    lam = as_partition(lam)
    return _fundamental_sum(
        lam,
        range(1, sum(lam) + 1),
        lambda filled, j: j == 0 or filled[j - 1] > filled[j],
        lambda before, cell: cell[0] > before[0],
    )


def quasischur(alpha) -> QSym:
    """Quasi-Schur element of shape alpha: sum of F_Des(T) over its standard composition tableaux.

    Values n..1 fill the diagram bottom row first, so each new value is the
    smallest so far and the first column increases downwards.  The
    composition-tableau rule reads only the row lengths: a started row grows
    from k to k+1 cells unless a row above it holds exactly k.  i is a
    descent when i+1 lies in a column weakly right of i's.
    """
    alpha = as_composition(alpha)
    return _fundamental_sum(
        alpha[::-1],  # bottom row first
        range(sum(alpha), 0, -1),
        lambda filled, j: filled[j] not in filled[j + 1 :],
        lambda before, cell: before[1] >= cell[1],
    )


def _fundamental_sum(shape, values, fits, descent) -> QSym:
    """The sum of F_Des(T) over the standard fillings T of shape, in M coordinates.

    Values are placed in the given order, each at the end of a row j that is
    not full.  Rows start in listed order, so the scan of a state stops at
    its first empty row; a started row grows where fits(filled, j) holds,
    filled being the number of cells each row holds.  Bit i-1 of a mask is
    set when i, the smaller of two values placed one after the other, is a
    descent: descent(cell of the first, cell of the second).  Fillings with
    the same row lengths and the same last row share their future, so one
    pass over the values keeps one mask histogram per such state.
    """
    states = {((0,) * len(shape), None): Counter({0: 1})}
    for step, v in enumerate(values):
        bit = 1 << (min(v, values[step - 1]) - 1) if step else 0
        grown: defaultdict = defaultdict(Counter)
        for (filled, last), masks in states.items():
            for j, width in enumerate(shape):
                k = filled[j]
                if k < width and (not k or fits(filled, j)):
                    on = bit if bit and descent((last, filled[last] - 1), (j, k)) else 0
                    grown[filled[:j] + (k + 1,) + filled[j + 1 :], j].update(
                        {mask | on: c for mask, c in masks.items()}
                    )
                if not k:
                    break
        states = grown
    histogram = sum(states.values(), Counter())  # one state per last row: the outer corners
    return _from_fundamentals(sum(shape), histogram)


def _from_fundamentals(n, counts) -> QSym:
    """M coordinates of the sum of counts[mask] F_mask: one _spread pass over the complements."""
    full = (1 << max(n - 1, 0)) - 1
    sums = _coarsen(n, {full & ~mask: c for mask, c in counts.items()}, _spread)
    out = {mask_composition(n, full & ~m): Fraction(s) for m, s in sums.items() if s}
    return QSym._of("M", out)


# Closed-form rows (Ballantine, Daugherty, Hicks, Mason and Niese,
# "Quasisymmetric power sums").  The row from alpha to a coarsening beta is a
# product over beta's blocks b (the parts of alpha merged into one part), and
# from M signed by (-1)^(len(alpha)-len(beta)): M to Psi takes the last part of
# b, M to Phi sum(b)/len(b), both over z_beta; Psi to M takes 1/pi(b), pi being
# the product of the partial sums, and Phi to M 1/(len(b)! prod(b)), both times
# z_alpha; F to M is 1 from each complement to its coarsenings.  One loop,
# _coarsen, builds each block's factor cut by cut, right to left, and each row
# is a rule of it.  Psi and Phi reach M on the reversed compositions: there a
# part's partial sum in its block is its distance to the block's end, which the
# loop knows.  Only submasks of the input's masks are reached.


def to_coords(q: QSym, target: str) -> QSym:
    """Coordinates of q in the target basis, by one pass over the descent masks per degree.

    M goes to Psi or Phi through power_numerators, Psi and Phi to M on the
    reversed compositions, and to each other through M.  Coefficients stay
    integers over one scale, and one Fraction is built per output term.
    """
    if one_of(target, BASES, "basis") == q.basis:
        return q
    if target != "M":
        sums, den = power_numerators(q, target)
        out = {a: Fraction(s, den * math.factorial(sum(a))) for a, s in sums.items()}
        return QSym._of(target, out)
    phi = q.basis == "Phi"  # prod(b) over the blocks is prod(alpha): taken up front
    rows = {a[::-1]: c * z_of_composition(a) for a, c in q.coeffs.items()}
    terms, scale = integer_terms({a: c / math.prod(a) for a, c in rows.items()} if phi else rows)
    sums = _mask_pass(terms, _part_places if phi else _partial_sums, carry=True)
    out = {a[::-1]: Fraction(s, scale * math.factorial(sum(a))) for a, s in sums.items()}
    return QSym._of("M", out)


def power_numerators(q: QSym, target: str) -> tuple[dict, int]:
    """n! times the Psi or Phi coordinates of q, n the degree of each term: ({alpha: int}, den).

    Psi's rule does not divide, so the integer is the mask pass's sum times
    n!/z_alpha, over the input's scale.  Phi's rule divides and its pass
    carries n!, so there it is the sum times N!/z_alpha over the scale
    times N!, N the top degree.  An input already in target is read as n! c
    over its own scale.
    """
    if one_of(target, VARIANTS, "power-sum basis") == q.basis:
        terms, den = integer_terms(q.coeffs)
        return {a: c * math.factorial(sum(a)) for a, c in terms}, den
    terms, scale = integer_terms(to_coords(q, "M").coeffs)
    sums = _mask_pass(terms, _block_means if target == "Phi" else _last_part, carry=target == "Phi")
    if target == "Psi":
        out = {a: s * math.factorial(sum(a)) // z_of_composition(a) for a, s in sums.items()}
        return out, scale
    top = math.factorial(max(map(sum, sums), default=0))
    return {a: s * top // z_of_composition(a) for a, s in sums.items()}, scale * top


def _mask_pass(terms, rule, carry: bool = False, partitions: bool = False) -> dict:
    """{composition: integer} of _coarsen per degree n of the terms (alpha, c).

    carry takes each c times n!, so that a rule that divides divides exactly.
    """
    degrees: defaultdict = defaultdict(dict)
    for alpha, c in terms:
        mask = total = 0
        for part in alpha[:-1]:
            total += part
            mask |= 1 << (total - 1)
        n = sum(alpha)
        degrees[n][mask] = c * math.factorial(n) if carry else c
    return {
        mask_composition(n, mask): s
        for n, values in degrees.items()
        for mask, s in _coarsen(n, values, rule, partitions).items()
        if s
    }


def _coarsen(n, values: dict, rule, partitions: bool = False) -> dict:
    """The rows of one rule summed over the values of degree n: mask -> integer.

    The cuts go from n-1 down to 0, where the first block closes.  A mask
    holds values by the input parts met in its open block, slot 0 for one.  At
    an input cut i, d below the end of that block, the rule (_last_part,
    _block_means, _partial_sums, _part_places or _spread) adds what dropping
    the cut moves to into, the list of the mask without it, and returns what
    keeping it closes the block with.  With partitions set, a block closes
    only if it is no smaller than the closed block on its right and no larger
    than the i cells on its left.
    """
    states = {mask: [v, 0] for mask, v in values.items()}
    for i in range(n - 1, -1, -1):
        bit = (1 << i) >> 1
        for mask in [mask for mask in states if mask & bit] if i else list(states):
            above = mask >> i
            d = (above & -above).bit_length() if above else n - i
            into = states.setdefault(mask ^ bit, [0, 0]) if i else [0, 0]  # cut 0 is kept
            states[mask] = [rule(states[mask], d, into), 0]
            if partitions:
                rest = above >> d  # the cuts right of the block
                last = (rest & -rest).bit_length() if rest else (n - i - d if above else 0)
                if d < last or d > i > 0:
                    del states[mask]
    return {mask: held[0] for mask, held in states.items()}


def _last_part(held, d, into) -> int:
    """M to Psi: the block's last part, signed: d in slot 0 (one part), taken already in slot 1."""
    into[1] -= (kept := held[0] * d + held[1])
    return kept


def _block_means(held, d, into) -> int:
    """M to Phi: the block's sum d over its count of parts, signed."""
    into.extend([0] * (len(held) + 1 - len(into)))
    for k, v in enumerate(held, 1):
        into[k] -= v
    return sum(v // k for k, v in enumerate(held, 1) if v) * d


def _partial_sums(held, d, into) -> int:
    """Psi to M, reversed: each part over its partial sum in its block, which is d."""
    into[0] += (kept := held[0] // d)
    return kept


def _part_places(held, d, into) -> int:
    """Phi to M: the k-th part of a block over k; slot k-1 holds k parts over k! already."""
    into.extend([0] * (len(held) + 1 - len(into)))
    for k, v in enumerate(held, 1):
        if v:
            into[k] += v // (k + 1)
    return sum(held)


def _spread(held, d, into) -> int:
    """F to M on complements: F_D sums M over D's supersets, so a cut dropped or kept carries it."""
    into[0] += held[0]
    return held[0]


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
    stands.  From M, the mask pass runs the M-to-Psi rule without the final
    1/z_mu and drops every mask whose closed blocks cannot end as a
    partition, so its cost follows the reachable prefixes of partitions
    (for e_30, 54 563 mask visits for its 5604 partitions), not the 2^(n-1)
    masks of each term.  Symmetry is not checked here.
    """
    if q.basis != "M":
        return {mu: z_of(mu) * c for mu, c in q.coeffs.items() if sort_composition(mu) == mu}
    terms, scale = integer_terms(q.coeffs)
    sums = _mask_pass(terms, _last_part, partitions=True)
    return {mu: Fraction(s, scale) for mu, s in sums.items()}


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
