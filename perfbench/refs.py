"""Reference values for checking quasimm's outputs, computed without quasimm.

Nothing in this module imports the package under test.  Where the method
has a separate formula (Ryser's permanent, elimination determinants, the
Frobenius character formula, the paper's power-sum-to-monomial formulas,
matrix-counting expansions of h and e, the Toeplitz closed form) it is
implemented here from its statement; test_refs.py checks each one against
brute-force enumeration at n <= 6.

Conventions: a composition is a tuple of positive ints, a partition is a
weakly decreasing one, and a QSym element is a dict from composition to
Fraction.  Matrices are lists of rows of Fractions, 0-based.
"""

from __future__ import annotations

import heapq
import itertools
import math
from fractions import Fraction
from functools import lru_cache

# ---------------------------------------------------------------- combinatorics


def compositions(n: int) -> list[tuple[int, ...]]:
    """Every composition of n."""
    if n == 0:
        return [()]
    out = []
    for cuts in range(1 << (n - 1)):
        parts, run = [], 1
        for i in range(n - 1):
            if cuts >> i & 1:
                parts.append(run)
                run = 1
            else:
                run += 1
        parts.append(run)
        out.append(tuple(parts))
    return out


def partitions(n: int, cap: int | None = None) -> list[tuple[int, ...]]:
    """Every partition of n with parts at most cap."""
    cap = n if cap is None else cap
    if n == 0:
        return [()]
    return [(k,) + rest for k in range(min(n, cap), 0, -1) for rest in partitions(n - k, k)]


def z(lam) -> int:
    """Centralizer size of a permutation of cycle type lam (any part order)."""
    out = 1
    for part, count in _multiplicities(lam).items():
        out *= part**count * math.factorial(count)
    return out


def _multiplicities(parts) -> dict[int, int]:
    counts: dict[int, int] = {}
    for p in parts:
        counts[p] = counts.get(p, 0) + 1
    return counts


def multinomial(counts) -> int:
    """(sum counts)! / prod(count!)."""
    out = math.factorial(sum(counts))
    for c in counts:
        out //= math.factorial(c)
    return out


def rearrangement_count(lam) -> int:
    """Number of distinct orderings of the parts of lam."""
    return multinomial(_multiplicities(lam).values())


def refinement_blocks(alpha, beta):
    """Blocks of alpha summing to the parts of beta, or None if alpha does not refine beta."""
    blocks, i = [], 0
    for target in beta:
        block, total = [], 0
        while total < target and i < len(alpha):
            block.append(alpha[i])
            total += alpha[i]
            i += 1
        if total != target:
            return None
        blocks.append(tuple(block))
    return blocks if i == len(alpha) else None


def coarsenings(alpha) -> list[tuple[int, ...]]:
    """Every composition obtained by merging runs of consecutive parts of alpha."""
    if not alpha:
        return [()]
    out = []
    for merge in itertools.product((False, True), repeat=len(alpha) - 1):
        parts = [alpha[0]]
        for part, glue in zip(alpha[1:], merge):
            if glue:
                parts[-1] += part
            else:
                parts.append(part)
        out.append(tuple(parts))
    return out


def refinements(beta) -> list[tuple[int, ...]]:
    """Every composition whose consecutive blocks sum to the parts of beta."""
    out = [()]
    for part in beta:
        out = [head + tail for head in out for tail in compositions(part)]
    return out


def cycle_composition(perm) -> tuple[int, ...]:
    """Cycle lengths of a 0-based permutation, cycles ordered by their least element."""
    seen = [False] * len(perm)
    out = []
    for start in range(len(perm)):
        length, j = 0, start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length:
            out.append(length)
    return tuple(out)


def perm_sign(perm) -> int:
    """Sign of a 0-based permutation: (-1)^(n - number of cycles)."""
    return -1 if (len(perm) - len(cycle_composition(perm))) % 2 else 1


# ---------------------------------------------------------------- matrix functions


def ryser_permanent(rows) -> Fraction:
    """Permanent by Ryser's inclusion-exclusion formula over column subsets."""
    n = len(rows)
    total = Fraction(0)
    for mask in range(1, 1 << n):
        cols = [j for j in range(n) if mask >> j & 1]
        prod = Fraction(1)
        for row in rows:
            prod *= sum((row[j] for j in cols), Fraction(0))
            if not prod:
                break
        total += -prod if (n - len(cols)) % 2 else prod
    return total


def det_elimination(rows) -> Fraction:
    """Determinant by Gaussian elimination over Fraction with row pivoting."""
    m = [list(map(Fraction, row)) for row in rows]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        pivot = next((r for r in range(k, n) if m[r][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for r in range(k + 1, n):
            factor = m[r][k] / m[k][k]
            if factor:
                for c in range(k, n):
                    m[r][c] -= factor * m[k][c]
    return det


def minor(rows, i: int):
    """rows with row i and column i removed."""
    return [row[:i] + row[i + 1 :] for r, row in enumerate(rows) if r != i]


def second_immanant(rows) -> Fraction:
    """Hook immanant d2(A) = sum_i a_ii det(A_ii) - det(A).

    The hook character is sign(sigma) * (fixed points - 1); summing the
    fixed-point term row by row gives the principal minors.
    """
    n = len(rows)
    total = -det_elimination(rows)
    for i in range(n):
        if rows[i][i]:
            total += rows[i][i] * (det_elimination(minor(rows, i)) if n > 1 else 1)
    return total


def class_sums(rows) -> dict[tuple[int, ...], Fraction]:
    """S_alpha(A): sum of prod a[i, sigma(i)] over sigma with cycle composition alpha.

    Cycle-cover dynamic programme: H(C) sums the cycles through exactly the
    vertex set C (Held-Karp paths from min(C)), and covers are built by always
    starting the next cycle at the least uncovered vertex, which is the order
    in which cycle compositions list cycles.  Rows are scaled to integers by
    the lcm of their denominators and the common factor divided out at the end.
    Zero entries are skipped, so banded matrices stay cheap.
    """
    n = len(rows)
    scale = 1
    ints = []
    for row in rows:
        lcm = math.lcm(*(Fraction(e).denominator for e in row))
        scale *= lcm
        ints.append([int(Fraction(e) * lcm) for e in row])
    succ = [[(j, ints[i][j]) for j in range(n) if ints[i][j]] for i in range(n)]

    cycle_sum: dict[int, int] = {}
    for m in range(n):
        if ints[m][m]:
            cycle_sum[1 << m] = ints[m][m]
        frontier = {(1 << m, m): 1}
        while frontier:
            nxt: dict[tuple[int, int], int] = {}
            for (subset, v), value in frontier.items():
                for w, a in succ[v]:
                    if w == m and subset != 1 << m:
                        cycle_sum[subset] = cycle_sum.get(subset, 0) + value * a
                    elif w > m and not subset >> w & 1:
                        key = (subset | 1 << w, w)
                        nxt[key] = nxt.get(key, 0) + value * a
            frontier = nxt

    by_min: dict[int, list[tuple[int, int, int]]] = {}
    for subset, value in cycle_sum.items():
        if value:
            low = (subset & -subset).bit_length() - 1
            by_min.setdefault(low, []).append((subset, value, bin(subset).count("1")))

    full = (1 << n) - 1
    covers: dict[int, dict[tuple[int, ...], int]] = {0: {(): 1}}
    pending = [0]
    result: dict[tuple[int, ...], Fraction] = {}
    while pending:
        # Every cover extends to a numerically larger set, so the least
        # pending set has received all of its contributions.
        covered = heapq.heappop(pending)
        comps = covers.pop(covered)
        if covered == full:
            result = {alpha: Fraction(v, scale) for alpha, v in comps.items() if v}
            break
        free = full & ~covered
        low = (free & -free).bit_length() - 1
        for subset, value, size in by_min.get(low, ()):
            if subset & covered:
                continue
            target = covered | subset
            if target not in covers:
                covers[target] = {}
                heapq.heappush(pending, target)
            bucket = covers[target]
            for alpha, acc in comps.items():
                key = alpha + (size,)
                bucket[key] = bucket.get(key, 0) + acc * value
    return result


def by_cycle_type(sums) -> dict[tuple[int, ...], Fraction]:
    """Class sums regrouped from cycle composition to cycle type."""
    out: dict[tuple[int, ...], Fraction] = {}
    for alpha, value in sums.items():
        lam = tuple(sorted(alpha, reverse=True))
        out[lam] = out.get(lam, Fraction(0)) + value
    return out


def weighted_sum(sums, weights) -> Fraction:
    """sum over classes of weight times class sum; classes missing from weights weigh 0."""
    return sum((w * sums[k] for k, w in weights.items() if k in sums), Fraction(0))


# ---------------------------------------------------------------- closed forms


def toeplitz_hook_qimm(n: int) -> Fraction:
    """Hook quasi-immanant of the 0/1 tridiagonal matrix: -(-1/2)^(n/2) n!/(n/2)!, 0 for odd n."""
    if n % 2:
        return Fraction(0)
    half = n // 2
    return -(Fraction(-1, 2) ** half) * Fraction(math.factorial(n), math.factorial(half))


def toeplitz_d2(n: int) -> Fraction:
    """Hook immanant of the 0/1 tridiagonal matrix, from the minor formula."""
    rows = [[Fraction(int(abs(i - j) == 1)) for j in range(n)] for i in range(n)]
    return second_immanant(rows)


def hook_expansion(n: int) -> dict[tuple[int, ...], Fraction]:
    """The paper's two-term expansion of the hook quasi-Schur element: M[2,1^(n-2)] + M[1^n]."""
    return {(2,) + (1,) * (n - 2): Fraction(1), (1,) * n: Fraction(1)}


def hook_length_count(lam) -> int:
    """f^lam, the number of standard Young tableaux, by the hook-length formula."""
    conj = [sum(1 for part in lam if part > j) for j in range(lam[0])] if lam else []
    hooks = 1
    for i, part in enumerate(lam):
        for j in range(part):
            hooks *= (part - j - 1) + (conj[j] - i - 1) + 1
    return math.factorial(sum(lam)) // hooks


def margin_count(row_sums, col_sums, binary: bool) -> int:
    """Number of nonnegative integer (or 0/1) matrices with the given row and column sums."""

    @lru_cache(maxsize=None)
    def fill(col: int, remaining: tuple[int, ...]) -> int:
        if col == len(col_sums):
            return int(not any(remaining))
        total = 0
        for split in _splits(col_sums[col], remaining, binary):
            total += fill(col + 1, tuple(r - s for r, s in zip(remaining, split)))
        return total

    return fill(0, tuple(row_sums))


def _splits(amount: int, caps, binary: bool):
    """Ways to write amount as a sum over rows, each at most its cap (and at most 1 if binary)."""
    if not caps:
        if amount == 0:
            yield ()
        return
    top = min(caps[0], amount, 1 if binary else amount)
    for first in range(top + 1):
        for rest in _splits(amount - first, caps[1:], binary):
            yield (first,) + rest


def h_expansion(lam) -> dict[tuple[int, ...], Fraction]:
    """M-expansion of h_lam: the M_beta coefficient counts N-matrices with margins lam, beta."""
    out = {}
    for beta in compositions(sum(lam)):
        count = margin_count(lam, beta, binary=False)
        if count:
            out[beta] = Fraction(count)
    return out


def e_expansion(lam) -> dict[tuple[int, ...], Fraction]:
    """M-expansion of e_lam: the M_beta coefficient counts 0/1 matrices with margins lam, beta."""
    out = {}
    for beta in compositions(sum(lam)):
        count = margin_count(lam, beta, binary=True)
        if count:
            out[beta] = Fraction(count)
    return out


def is_rearrangement_sum(element, lam) -> bool:
    """True iff element is the sum, with coefficient 1, of every distinct rearrangement of lam.

    This is m_lam in M coordinates and p_lam in Psi or Phi coordinates.
    """
    target = tuple(sorted(lam, reverse=True))
    return (
        len(element) == rearrangement_count(lam)
        and all(tuple(sorted(a, reverse=True)) == target for a in element)
        and all(c == 1 for c in element.values())
    )


# ---------------------------------------------------------------- characters


def character(lam, mu) -> int:
    """chi^lam(mu) by the Frobenius formula: [x^(lam+delta)] a_delta p_mu in len(lam) variables."""
    ell = len(lam)
    shifted = [lam[i] + ell - 1 - i for i in range(ell)]

    @lru_cache(maxsize=None)
    def assignments(j: int, target: tuple[int, ...]) -> int:
        # Ways to send parts mu[j:] to variables so variable i receives target[i] in total.
        if j == len(mu):
            return int(not any(target))
        part = mu[j]
        return sum(
            assignments(j + 1, target[:i] + (target[i] - part,) + target[i + 1 :])
            for i in range(ell)
            if target[i] >= part
        )

    total = 0
    for perm in itertools.permutations(range(ell)):
        target = tuple(shifted[i] - (ell - 1 - perm[i]) for i in range(ell))
        if min(target) >= 0:
            total += perm_sign(perm) * assignments(0, target)
    return total


def schur_p_coords(lam) -> dict[tuple[int, ...], Fraction]:
    """p-coordinates of s_lam: chi^lam(mu) / z_mu for every partition mu."""
    return {mu: Fraction(character(lam, mu), z(mu)) for mu in partitions(sum(lam))}


def orthonormal(p_coords) -> bool:
    """sum over mu of z_mu c_mu^2 equals 1: the Schur function has norm 1."""
    return sum(z(mu) * c * c for mu, c in p_coords.items()) == 1


def symmetric_psi(p_coords, n: int) -> dict[tuple[int, ...], Fraction]:
    """Psi coordinates of sum c_mu p_mu, using p_mu = sum of Psi_alpha over rearrangements of mu."""
    out = {}
    for alpha in compositions(n):
        c = p_coords.get(tuple(sorted(alpha, reverse=True)), 0)
        if c:
            out[alpha] = Fraction(c)
    return out


def elementary_weights(lam) -> dict[tuple[int, ...], Fraction]:
    """Cycle-type weights z_mu [p_mu] e_lam, from e_k = sum over nu of sign(nu) p_nu / z_nu."""
    coeffs: dict[tuple[int, ...], Fraction] = {}
    for pieces in itertools.product(*(partitions(k) for k in lam)):
        value = Fraction(1)
        for nu in pieces:
            value *= Fraction(-1 if (sum(nu) - len(nu)) % 2 else 1, z(nu))
        mu = tuple(sorted(itertools.chain(*pieces), reverse=True))
        coeffs[mu] = coeffs.get(mu, Fraction(0)) + value
    return {mu: z(mu) * c for mu, c in coeffs.items() if c}


# ---------------------------------------------------------------- power sums


def _pi(gamma) -> int:
    out, run = 1, 0
    for part in gamma:
        run += part
        out *= run
    return out


def _power_to_m_factor(alpha, beta, variant: str) -> Fraction:
    """M_beta coefficient of the power sum indexed by alpha, for beta coarser than alpha."""
    blocks = refinement_blocks(alpha, beta)
    if variant == "Psi":
        denom = math.prod(_pi(b) for b in blocks)
    else:
        denom = math.prod(math.factorial(len(b)) for b in blocks) * math.prod(alpha)
    return Fraction(z(alpha), denom)


def power_to_m(coords, variant: str) -> dict[tuple[int, ...], Fraction]:
    """M-expansion of sum c_alpha Psi_alpha (or Phi_alpha), by the paper's formulas.

    Psi_alpha = z_alpha sum over coarser beta of M_beta / pi(alpha, beta), with
    pi the product over blocks of the partial-sum products; Phi_alpha uses
    sp(alpha, beta) = prod of block lengths factorial times prod of parts.
    """
    out: dict[tuple[int, ...], Fraction] = {}
    for alpha, c in coords.items():
        for beta in coarsenings(alpha):
            out[beta] = out.get(beta, Fraction(0)) + c * _power_to_m_factor(alpha, beta, variant)
    return {beta: c for beta, c in out.items() if c}


def m_to_power(element, n: int, variant: str, classes=None) -> dict[tuple[int, ...], Fraction]:
    """Psi (or Phi) coordinates of an M-expansion of degree n.

    Solves power_to_m(c) == element: the M_beta coefficient involves c at beta
    and at its refinements, so compositions are settled finest first.  With
    classes given, only those coordinates and their refinements are solved.
    """
    if classes is None:
        wanted = compositions(n)
    else:
        wanted = {alpha for beta in classes for alpha in refinements(beta)}
    coords: dict[tuple[int, ...], Fraction] = {}
    for beta in sorted(wanted, key=len, reverse=True):
        rest = element.get(beta, Fraction(0))
        for alpha in refinements(beta):
            if alpha != beta and alpha in coords:
                rest -= coords[alpha] * _power_to_m_factor(alpha, beta, variant)
        if rest:
            coords[beta] = rest / _power_to_m_factor(beta, beta, variant)
    return coords


def ccomp_weights(element, n: int, variant: str, classes=None) -> dict[tuple[int, ...], Fraction]:
    """Per-cycle-composition weights: n! times the power-sum coordinates of an M-expansion."""
    factorial = math.factorial(n)
    coords = m_to_power(element, n, variant, classes)
    return {alpha: factorial * c for alpha, c in coords.items()}


def add(*elements) -> dict[tuple[int, ...], Fraction]:
    """Sum of QSym elements given as dicts, zero terms dropped."""
    out: dict[tuple[int, ...], Fraction] = {}
    for element in elements:
        for alpha, c in element.items():
            out[alpha] = out.get(alpha, Fraction(0)) + c
    return {alpha: c for alpha, c in out.items() if c}
