"""Reference implementations that the tests compare the library against.

They favour the definition over speed: block statistics read off explicit
descent sets, coordinates summed one closed-form row entry at a time over
the coarsenings of each term, composition tableaux counted filling by
filling under the value-by-value triple rule (admissible), and the
symmetric-function weights of h, e and m counted from the classical
expansion p_mu = sum over lam of R(mu, lam) m_lam, where R(mu, lam) is the
number of ways to deal the parts of mu into ordered blocks with sums
lam_1, lam_2, ... (Stanley, Enumerative Combinatorics 2, Prop. 7.7.1).
The weights share no code with quasimm's coordinate changes.  The
Frobenius image is also summed here the long way, one quasi-shuffle
product of power sums per class.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cache

from quasimm.combinatorics import (
    as_composition,
    as_partition,
    dominance_key,
    enumerate_partitions,
    z_of,
    z_of_composition,
)
from quasimm.qsym import QSym, power_sym


def descent_set(alpha) -> set[int]:
    """Partial sums of all but the last part: {a1, a1+a2, ...}."""
    out = set()
    total = 0
    for part in alpha[:-1]:
        total += part
        out.add(total)
    return out


def refines(beta, alpha) -> bool:
    """True iff beta refines alpha (the descent set of alpha is a subset of beta's)."""
    if sum(alpha) != sum(beta):
        raise ValueError("refinement compares compositions of equal order")
    return descent_set(alpha) <= descent_set(beta)


def split_blocks(beta, alpha) -> tuple[tuple[int, ...], ...]:
    """Split beta into consecutive blocks whose sums are the parts of alpha."""
    if not refines(beta, alpha):
        raise ValueError(f"{tuple(beta)} does not refine {tuple(alpha)}")
    blocks = []
    parts = iter(beta)
    for target in alpha:
        block = []
        total = 0
        while total < target:
            part = next(parts)
            block.append(part)
            total += part
        blocks.append(tuple(block))
    return tuple(blocks)


def ell_stat(beta, alpha) -> int:
    """Product of the block lengths of beta relative to alpha."""
    return math.prod(len(b) for b in split_blocks(beta, alpha))


def lp_stat(beta, alpha) -> int:
    """Product over the blocks of beta relative to alpha of each block's last part."""
    return math.prod(b[-1] for b in split_blocks(beta, alpha))


def dominance_order(alpha, beta) -> int:
    """Three-way comparison under the total order of dominance_key: 1, 0, or -1."""
    if sum(alpha) != sum(beta):
        raise ValueError("dominance compares compositions of equal order")
    ka, kb = dominance_key(alpha), dominance_key(beta)
    return (ka > kb) - (ka < kb)


def weighted_coarsenings(beta, block_weight, partitions=False) -> list[tuple[tuple, object]]:
    """Each coarsening of beta, with the product of block_weight over its merged blocks.

    The reference for qsym's mask passes: summed over the terms of an
    element with the closed-form block factors, the rows give its
    coordinates one coarsening at a time, as quasimm once computed them.
    Built from the right end: the coarsenings of beta[i:] extend those of
    beta[j:] by the block beta[i:j], so each block is weighed once and each
    of the 2^(len(beta)-1) coarsenings costs one product.  With partitions
    set, only the weakly decreasing coarsenings are kept: a tail whose first
    part exceeds the block placed before it is dropped, and a block stops
    growing once it exceeds the sum of all the parts before it.
    """
    ell = len(beta)
    head = sum(beta)  # lowered to the sum of beta[:i] as i falls
    tails = [[((), 1)]]  # tails[k]: the (kept) coarsenings of the last k parts
    for i in range(ell - 1, -1, -1):
        head -= beta[i]
        rows, part = [], 0
        for j in range(i + 1, ell + 1):
            part += beta[j - 1]  # the sum of the block beta[i:j]
            if partitions and i and part > head:
                break
            weight = block_weight(beta[i:j])
            for rest, w in tails[ell - j]:  # each row list grows by ascending first part
                if partitions and rest and rest[0] > part:
                    break
                rows.append(((part,) + rest, weight * w))
        tails.append(rows)
    return tails[-1]


def _sum_rows(terms, block_weight, partitions=False) -> dict:
    """Sum over terms (index, c) of c times each coarsening of index, weighted by its blocks."""
    out: dict = {}
    for index, c in terms:
        for coarser, w in weighted_coarsenings(index, block_weight, partitions):
            out[coarser] = out.get(coarser, 0) + c * w
    return {alpha: s for alpha, s in out.items() if s}


def _signed(weight):
    return lambda b: -weight(b) if len(b) % 2 == 0 else weight(b)


def coordinates_by_rows(q, target) -> dict:
    """The coordinates of q in target, summed one closed-form row entry at a time.

    The block factors are those of the rows (Ballantine, Daugherty, Hicks,
    Mason and Niese): Psi and Phi reach M with the Fractions 1/pi(b) and
    1/(len(b)! prod(b)) over the coarsenings of each term times z_alpha;
    M reaches Psi with the signed last part of each block, and Phi with
    the signed sum(b) unit/len(b), unit = lcm(1..n) for the largest degree
    n, so that a coarsening alpha carries unit^len(alpha) and z_alpha.
    """
    coeffs = dict(q.coeffs)
    if q.basis != "M":
        to_m = {
            "Psi": lambda b: Fraction(1, math.prod(itertools.accumulate(b))),
            "Phi": lambda b: Fraction(1, math.factorial(len(b)) * math.prod(b)),
        }[q.basis]
        coeffs = _sum_rows(((a, c * z_of_composition(a)) for a, c in coeffs.items()), to_m)
    if target == "M":
        return coeffs
    unit = math.lcm(*range(1, max(map(sum, coeffs), default=0) + 1)) if target == "Phi" else 1
    weight = (lambda b: b[-1]) if target == "Psi" else (lambda b: sum(b) * unit // len(b))
    sums = _sum_rows(coeffs.items(), _signed(weight))
    return {a: s / (z_of_composition(a) * unit ** len(a)) for a, s in sums.items()}


def p_weights_by_rows(q) -> dict:
    """z_mu times the Psi coordinate at each partition mu of an M element q.

    Only the weakly decreasing coarsenings of each term are summed.
    """
    return _sum_rows(q.coeffs.items(), _signed(lambda b: b[-1]), partitions=True)


def coarsenings(beta) -> list[tuple[int, ...]]:
    """All 2^(len(beta)-1) compositions obtained by merging consecutive parts of beta.

    These are exactly the alpha with refines(beta, alpha).
    """
    return [alpha for alpha, _ in weighted_coarsenings(tuple(beta), lambda block: 1)]


def admissible(rows, alpha, j, k, v) -> bool:
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
    where each cell takes any value that admissible allows.
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
            if remaining[v] and admissible(rows, alpha, j, k, v):
                remaining[v] -= 1
                rows[j][k] = v
                total += fill(pos + 1)
                rows[j][k] = 0
                remaining[v] += 1
        return total

    return fill(0)


def deal_count(mu, lam) -> int:
    """R(mu, lam): the ways to deal the parts of mu into blocks 1..len(lam) with sums lam.

    Each part goes, one after another, to any block it still fits in; a
    deal counts when every block is full.
    """
    mu, room = as_partition(mu), list(as_partition(lam))

    def deal(i):
        if i == len(mu):
            return int(not any(room))
        total = 0
        for j, free in enumerate(room):
            if free >= mu[i]:
                room[j] -= mu[i]
                total += deal(i + 1)
                room[j] += mu[i]
        return total

    return deal(0)


def frobenius_by_products(theta) -> QSym:
    """Sum over the classes mu of theta(mu)/z_mu p_mu, each p_mu a product of M_(k)."""
    total = QSym.zero("M")
    for mu, value in theta.values.items():
        if value:
            total = total + power_sym(mu) * Fraction(value, z_of(mu))
    return total


def h_weight(lam, mu) -> int:
    """z_mu times the p_mu coefficient of h_lam: R(mu, lam)."""
    return deal_count(mu, lam)


def e_weight(lam, mu) -> int:
    """z_mu times the p_mu coefficient of e_lam: the image of h_lam under omega."""
    return (-1) ** (sum(mu) - len(mu)) * deal_count(mu, lam)


def m_weight(lam, mu) -> Fraction:
    """z_mu times the p_mu coefficient of m_lam, read from the inverse of R."""
    return z_of(mu) * _inverse_deal_matrix(sum(lam))[as_partition(lam), as_partition(mu)]


@cache
def _inverse_deal_matrix(n) -> dict:
    """(R^-1)[lam, mu] over the partitions of n, where R has rows mu and columns lam.

    Gauss-Jordan elimination over Fraction, pivoting on any nonzero entry.
    """
    classes = enumerate_partitions(n)
    size = len(classes)
    rows = [
        [Fraction(deal_count(mu, lam)) for lam in classes]
        + [Fraction(int(i == k)) for k in range(size)]
        for i, mu in enumerate(classes)
    ]
    for col in range(size):
        pivot = next(r for r in range(col, size) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [x / lead for x in rows[col]]
        for r in range(size):
            if r != col and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return {
        (lam, mu): rows[i][size + k]
        for i, lam in enumerate(classes)
        for k, mu in enumerate(classes)
    }
