"""Reference implementations that the tests compare the library against.

They favour the definition over speed: block statistics read off explicit
descent sets, composition tableaux counted filling by filling, and the
symmetric-function weights of h, e and m counted from the classical
expansion p_mu = sum over lam of R(mu, lam) m_lam, where R(mu, lam) is the
number of ways to deal the parts of mu into ordered blocks with sums
lam_1, lam_2, ... (Stanley, Enumerative Combinatorics 2, Prop. 7.7.1).
The weights share no code with quasimm's coordinate changes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

from quasimm.combinatorics import (
    as_composition,
    as_partition,
    dominance_key,
    enumerate_partitions,
    weighted_coarsenings,
    z_of,
)
from quasimm.qsym import _admissible


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


def coarsenings(beta) -> list[tuple[int, ...]]:
    """All 2^(len(beta)-1) compositions obtained by merging consecutive parts of beta.

    These are exactly the alpha with refines(beta, alpha).
    """
    return [alpha for alpha, _ in weighted_coarsenings(tuple(beta), lambda block: 1)]


def count_composition_tableaux(alpha, beta) -> int:
    """Number of fillings of the diagram of alpha with content beta.

    A filling places value v in beta_v cells, cell by cell in reading order,
    where each cell takes any value that qsym._admissible allows.
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
