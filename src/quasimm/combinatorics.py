"""Integer partitions, compositions, permutations, cycle statistics, and exact numbers.

Conventions used throughout the package: a partition is a weakly
decreasing tuple of positive integers, a composition is any tuple of
positive integers, and a permutation of {1..n} is a tuple of its images
in one-line notation.  The empty tuple is the unique partition,
composition, and permutation of order 0.  Every number read from a
caller (a matrix entry, a coefficient, a scalar or a weight) passes one
rule, exact, and becomes a Fraction; every name (a basis, a power-sum
variant or a table key) passes one check, one_of; and a refusal names a
value by one rule, named.  Matrices, elements and tables are ReadOnly
values: built, compared, hashed, copied and pickled by that one base.
"""

from __future__ import annotations

import itertools
import math
import re
import sys
from fractions import Fraction
from types import MappingProxyType

Composition = tuple[int, ...]
Partition = tuple[int, ...]
Permutation = tuple[int, ...]

PERMUTATION_LIMIT = 10  # 10! = 3 628 800 tuples; each order past it multiplies that
PARTS_LIMIT = 100_000  # parts an index may list, checked before a power's copies are built

# Text numbers: an optionally signed integer, or such an integer over a nonzero one.
_EXACT_TEXT = re.compile(r"[+-]?[0-9]+(/0*[1-9][0-9]*)?")


def exact(value, name: str, *args) -> Fraction:
    """value as a Fraction: an int, a rational number, a finite Decimal, or text by the text rule.

    Anything else, floats and booleans included, is refused with a ValueError
    naming the value by name % args, formatted only then, each argument by
    the rule of named; so is text past the interpreter's int-to-text digit
    limit.
    """
    reason = "is not an integer or a/b"
    if isinstance(value, (bool, float)):
        name = ("boolean " if isinstance(value, bool) else "floating-point ") + name
    elif isinstance(value, str):
        if _EXACT_TEXT.fullmatch(value.strip()):
            try:
                return Fraction(value)
            except ValueError:  # past the int-to-text digit limit
                reason = f"has more than {sys.get_int_max_str_digits()} digits"
    else:
        try:
            return Fraction(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ValueError(f"{name % tuple(map(named, args))} {reason}")


def one_of(value, choices: tuple, what: str):
    """value if it is one of choices; otherwise a ValueError naming it by the rule of named."""
    if value not in choices:
        raise ValueError(f"unknown {what} {named(value)}; expected one of {choices}")
    return value


def named(value) -> str:
    """How a refusal names value: its repr, cut past 80 characters, or its type if the repr fails.

    A cut repr is the first 12 characters (of the text, for text) and "...";
    a repr fails on a value holding an int past the int-to-text digit limit.
    """
    try:
        shown = repr(value)
    except ValueError:
        return f"<{type(value).__name__} holding an int past the digit limit>"
    if len(shown) <= 80:
        return shown
    return repr(value[:12] + "...") if isinstance(value, str) else shown[:12] + "..."


class ReadOnly:
    """An exact value whose fields are its class's __slots__, each set once, by _of.

    A dict field is held as a read-only mapping.  Values compare by type and
    fields, and hash by their fields, once; copy, deepcopy and pickle rebuild
    them through _of.  Setting or deleting any attribute raises AttributeError.
    """

    __slots__ = ("_hash",)

    @classmethod
    def _of(cls, *fields):
        """The value of cls with these fields, checked by the caller and held by no one else."""
        value = object.__new__(cls)
        for name, field in zip(cls.__slots__, fields, strict=True):
            field = MappingProxyType(field) if type(field) is dict else field
            object.__setattr__(value, name, field)
        return value

    def _fields(self, mapping) -> tuple:
        """The fields, each read-only mapping as mapping(its items)."""
        fields = (getattr(self, name) for name in self.__slots__)
        return tuple(mapping(f.items()) if type(f) is MappingProxyType else f for f in fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:  # not hashed yet
            object.__setattr__(self, "_hash", hash(self._fields(frozenset)))
            return self._hash

    def __reduce__(self):
        return self._of, self._fields(dict)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only: cannot change {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is read-only: cannot change {name!r}")


def integer_terms(coeffs: dict):
    """The terms with Fraction coefficients times the lcm of their denominators, and that lcm."""
    scale = math.lcm(*(c.denominator for c in coeffs.values()))
    return [(beta, c.numerator * (scale // c.denominator)) for beta, c in coeffs.items()], scale


def as_composition(parts) -> Composition:
    """Validate a sequence of positive integers and return it as a tuple."""
    alpha = tuple(parts)
    for p in alpha:
        if not isinstance(p, int) or isinstance(p, bool) or p < 1:
            raise ValueError(f"composition parts must be positive integers: {named(alpha)}")
    return alpha


def as_partition(parts) -> Partition:
    """Validate a weakly decreasing sequence of positive integers."""
    lam = as_composition(parts)
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError(f"partition parts must be weakly decreasing: {named(lam)}")
    return lam


def as_permutation(images) -> Permutation:
    """Validate one-line notation: a rearrangement of 1..n, each image an int (not a bool)."""
    sigma = tuple(images)
    ints = all(type(i) is int for i in sigma)  # bool and float images compare equal to ints
    if not ints or sorted(sigma) != list(range(1, len(sigma) + 1)):
        raise ValueError(f"not a permutation of 1..{len(sigma)}: {named(sigma)}")
    return sigma


def sort_composition(alpha) -> Partition:
    """Sort the parts of a composition into a partition."""
    return tuple(sorted(alpha, reverse=True))


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
    sigma = as_permutation(sigma)
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


def enumerate_compositions(n: int) -> list[Composition]:
    """All compositions of n, in descending dominance order."""
    return sorted(compositions(n), key=dominance_key, reverse=True)


def compositions(n: int) -> list[Composition]:
    """All compositions of n, unsorted.

    Each composition of n-1 grows into two: with a new last part 1, and
    with its last part one larger.
    """
    if n < 0:
        raise ValueError("order must be nonnegative")
    comps = [(1,)] if n else [()]
    for _ in range(n - 1):
        comps = [c + (1,) for c in comps] + [c[:-1] + (c[-1] + 1,) for c in comps]
    return comps


def mask_composition(n: int, mask: int) -> Composition:
    """The composition of n whose descent set is {i : bit i-1 of mask is set}."""
    if not n:
        return ()
    parts, last = [], 0
    while mask:
        cut = (mask & -mask).bit_length()
        parts.append(cut - last)
        mask, last = mask & (mask - 1), cut
    parts.append(n - last)
    return tuple(parts)


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
    """All permutations of {1..n} in one-line notation, for n up to PERMUTATION_LIMIT."""
    if n < 0:
        raise ValueError("order must be nonnegative")
    if n > PERMUTATION_LIMIT:
        raise ValueError(f"permutations stop at order {PERMUTATION_LIMIT}, so {n} is too large")
    return [tuple(p) for p in itertools.permutations(range(1, n + 1))]


_POWER = re.compile(r"(\d+)\^(?:(\d+)|\{(\d+)\})")


def parse_parts(text: str) -> Composition:
    """Parse the comma-separated text form; the empty string is the empty tuple.

    Each part is an integer k, or k^m or k^{m} for m copies of k (none when
    m = 0).  Malformed text, or text listing more than PARTS_LIMIT parts, is
    refused naming the text as given.
    """
    parts = []
    for part in text.split(",") if text.strip() else ():
        power = _POWER.fullmatch(part.strip())
        try:
            k, copies = (int(power[1]), int(power[2] or power[3])) if power else (int(part), 1)
        except ValueError:
            raise ValueError(f"malformed index: {named(text)}") from None
        if len(parts) + copies > PARTS_LIMIT:
            raise ValueError(f"index {named(text)} lists more than {PARTS_LIMIT} parts")
        parts += [k] * copies
    return as_composition(parts)


def format_parts(alpha) -> str:
    """Comma-separated text form of a composition or partition."""
    return ",".join(str(p) for p in alpha)
