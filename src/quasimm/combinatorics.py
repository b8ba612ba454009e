"""Integer partitions, compositions, permutations, and cycle statistics.

Conventions used throughout the package: a partition is a weakly
decreasing tuple of positive integers, a composition is any tuple of
positive integers, and a permutation of {1..n} is a tuple of its images
in one-line notation.  The empty tuple is the unique partition,
composition, and permutation of order 0.
"""

from __future__ import annotations

import itertools
import math

Composition = tuple[int, ...]
Partition = tuple[int, ...]
Permutation = tuple[int, ...]


def as_composition(parts) -> Composition:
    """Validate a sequence of positive integers and return it as a tuple."""
    alpha = tuple(parts)
    for p in alpha:
        if not isinstance(p, int) or isinstance(p, bool) or p < 1:
            raise ValueError(f"composition parts must be positive integers: {alpha!r}")
    return alpha


def as_partition(parts) -> Partition:
    """Validate a weakly decreasing sequence of positive integers."""
    lam = as_composition(parts)
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError(f"partition parts must be weakly decreasing: {lam!r}")
    return lam


def as_permutation(images) -> Permutation:
    """Validate one-line notation: a rearrangement of 1..n."""
    sigma = tuple(images)
    if sorted(sigma) != list(range(1, len(sigma) + 1)):
        raise ValueError(f"not a permutation of 1..{len(sigma)}: {sigma!r}")
    return sigma


def sort_composition(alpha) -> Partition:
    """Sort the parts of a composition into a partition."""
    return tuple(sorted(alpha, reverse=True))


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


def split_blocks(beta, alpha) -> tuple[Composition, ...]:
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


def z_of(lam) -> int:
    """Centralizer order 1^m1 m1! 2^m2 m2! ... of a permutation of cycle type lam."""
    z = 1
    for size, group in itertools.groupby(lam):
        m = len(list(group))
        z *= size ** m * math.factorial(m)
    return z


def z_of_composition(alpha) -> int:
    """z of the partition obtained by sorting alpha."""
    return z_of(sort_composition(alpha))


def cycles(sigma) -> tuple[tuple[int, ...], ...]:
    """Disjoint cycles of sigma, each written min-first, ordered by minimum.

    For min-first cycles on disjoint supports this ordering coincides with
    lexicographic order of the cycle sequences.
    """
    n = len(sigma)
    seen = [False] * (n + 1)
    out = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        cyc = []
        j = start
        while not seen[j]:
            seen[j] = True
            cyc.append(j)
            j = sigma[j - 1]
        out.append(tuple(cyc))
    return tuple(out)


def cycle_type(sigma) -> Partition:
    """Partition of n listing the cycle lengths of sigma in decreasing order."""
    return sort_composition([len(c) for c in cycles(sigma)])


def cycle_composition(sigma) -> Composition:
    """Cycle lengths of sigma in the canonical (min-first, lexicographic) cycle order."""
    return tuple(len(c) for c in cycles(sigma))


def count_perms_with_ctype(lam) -> int:
    """Number of permutations of {1..|lam|} with cycle type lam, i.e. n!/z."""
    return math.factorial(sum(lam)) // z_of(lam)


def dominance_key(alpha) -> tuple:
    """Sort key for the total order on compositions of a fixed n.

    Compares sorted parts lexicographically and breaks ties between
    rearrangements by lexicographic order of the compositions themselves.
    """
    return (sort_composition(alpha), tuple(alpha))


def dominance_order(alpha, beta) -> int:
    """Three-way comparison under the total order: 1, 0, or -1."""
    if sum(alpha) != sum(beta):
        raise ValueError("dominance compares compositions of equal order")
    ka, kb = dominance_key(alpha), dominance_key(beta)
    return (ka > kb) - (ka < kb)


def weighted_coarsenings(beta, block_weight, partitions=False) -> list[tuple[Composition, object]]:
    """Each coarsening of beta, with the product of block_weight over its merged blocks.

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


def coarsenings(beta) -> list[Composition]:
    """All 2^(len(beta)-1) compositions obtained by merging consecutive parts of beta.

    These are exactly the alpha with refines(beta, alpha).
    """
    return [alpha for alpha, _ in weighted_coarsenings(tuple(beta), lambda block: 1)]


def enumerate_compositions(n: int) -> list[Composition]:
    """All compositions of n, in descending dominance order."""
    if n < 0:
        raise ValueError("order must be nonnegative")
    if n == 0:
        return [()]
    comps = [mask_composition(n, mask) for mask in range(1 << (n - 1))]
    comps.sort(key=dominance_key, reverse=True)
    return comps


def mask_composition(n: int, mask: int) -> Composition:
    """The composition of n whose descent set is {i : bit i-1 of mask is set}."""
    cuts = [i for i in range(1, n) if mask >> (i - 1) & 1]
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [n])) if n else ()


def enumerate_partitions(n: int) -> list[Partition]:
    """All partitions of n, in descending lexicographic order.

    Each next partition lowers the last part above 1 by one and refills
    the parts after it, the freed ones included, greedily with parts no
    larger than it.
    """
    if n < 0:
        raise ValueError("order must be nonnegative")
    out, parts = [], [n] if n else []
    while True:
        out.append(tuple(parts))
        ones = 0
        while parts and parts[-1] == 1:
            parts.pop()
            ones += 1
        if not parts:
            return out
        parts[-1] -= 1
        cap, rest = parts[-1], ones + 1
        while rest > cap:
            parts.append(cap)
            rest -= cap
        parts.append(rest)


def enumerate_permutations(n: int) -> list[Permutation]:
    """All permutations of {1..n} in one-line notation."""
    if n < 0:
        raise ValueError("order must be nonnegative")
    return [tuple(p) for p in itertools.permutations(range(1, n + 1))]


def parse_parts(text: str) -> Composition:
    """Parse the comma-separated text form; the empty string is the empty tuple."""
    text = text.strip()
    if not text:
        return ()
    try:
        parts = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"malformed index: {text!r}") from None
    return as_composition(parts)


def format_parts(alpha) -> str:
    """Comma-separated text form of a composition or partition."""
    return ",".join(str(p) for p in alpha)
