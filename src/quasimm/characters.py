"""Symmetric-group class functions and the weight-vector type.

Irreducible character values by the border-strip recursion, the closed
form sign(sigma)(fixed points - 1) for the hook shape (2,1,...,1), the
CoefficientTable that carries every permutation-sum weight vector, the
named character-valued vectors, and the class-function-to-symmetric-function
transform.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from . import qsym
from .combinatorics import (
    Partition,
    as_composition,
    as_partition,
    compositions,
    cycles,
    enumerate_partitions,
    format_parts,
    z_of,
)


def sign(sigma) -> int:
    """Sign of a permutation: (-1) to the (n - number of cycles)."""
    return -1 if (len(sigma) - len(cycles(sigma))) % 2 else 1


def fixed_points(sigma) -> int:
    """Number of indices i with sigma(i) = i."""
    return sum(1 for i, image in enumerate(sigma, start=1) if image == i)


def chi2(sigma) -> int:
    """Character of the hook shape (2,1,...,1): sign(sigma)(fixed points - 1)."""
    if len(sigma) < 2:
        raise ValueError("chi2 needs a permutation of order at least 2")
    return sign(sigma) * (fixed_points(sigma) - 1)


def irreducible_character(lam, mu) -> int:
    """Character value chi^lam at the class of cycle type mu.

    Computed by removing border strips of size mu_1 from lam: each removal
    contributes (-1)^height times the character of the smaller pair.
    """
    lam = as_partition(lam)
    mu = as_partition(mu)
    if sum(lam) != sum(mu):
        raise ValueError("character arguments must be partitions of the same order")
    return _strip_recursion(lam, mu)


@cache
def _strip_recursion(lam: Partition, mu: Partition) -> int:
    if not mu:
        return 1
    k, rest = mu[0], mu[1:]
    rows = len(lam)
    # First-column hook lengths: strictly decreasing, one per row of lam.
    beta = tuple(lam[i] + (rows - 1 - i) for i in range(rows))
    beta_set = set(beta)
    total = 0
    for b in beta:
        nb = b - k
        if nb < 0 or nb in beta_set:
            continue
        height = sum(1 for x in beta if nb < x < b)
        new_beta = sorted((beta_set - {b}) | {nb}, reverse=True)
        smaller = tuple(p for p in (new_beta[i] - (rows - 1 - i) for i in range(rows)) if p)
        total += -_strip_recursion(smaller, rest) if height % 2 else _strip_recursion(smaller, rest)
    return total


class CoefficientTable:
    """Per-class weights for a permutation sum.

    key is "ctype" (weights indexed by cycle type, defined on every
    partition of the degree) or "ccomp" (indexed by cycle composition,
    defined on every composition of the degree); a table whose degree is
    not a nonnegative int, whose classes are not exactly these, or that
    holds a floating-point, boolean or non-numeric weight, is refused.
    Every weight is stored as a Fraction.
    provenance names the construction that produced the weights.
    Tables compare by their fields, and their attributes are read-only.
    """

    __slots__ = ("degree", "key", "values", "provenance")

    def __init__(self, degree: int, key: str, values: dict, provenance: str = ""):
        if key not in ("ctype", "ccomp"):
            raise ValueError(f"unknown table key {key!r}; expected 'ctype' or 'ccomp'")
        values = dict(values)  # a copy, so the checks below keep holding
        _check_classes(degree, key, values)
        for index, value in values.items():
            if isinstance(value, (float, bool)):
                qsym._check_exact(value, f"weights (at the {key} class {index!r})")
            try:
                values[index] = Fraction(value)
            except (TypeError, ValueError, OverflowError):
                message = f"weight {value!r} at the {key} class {index!r} is not a number"
                raise ValueError(message) from None
        for name, value in zip(self.__slots__, (degree, key, values, provenance)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"CoefficientTable is read-only: cannot change {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if not isinstance(other, CoefficientTable):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"CoefficientTable({fields})"

    def __call__(self, index) -> Fraction:
        return self.values[as_partition(index) if self.key == "ctype" else as_composition(index)]


def _check_classes(degree, key: str, values: dict) -> None:
    """Raise ValueError naming a foreign or a missing class unless values has every class once."""
    if not isinstance(degree, int) or isinstance(degree, bool) or degree < 0:
        raise ValueError(f"table degree {degree!r} is not a nonnegative integer")
    classes = enumerate_partitions(degree) if key == "ctype" else compositions(degree)
    foreign = set(values).difference(classes)
    if foreign:
        bad = next(index for index in values if index in foreign)
        raise ValueError(f"{key} table of degree {degree} has the foreign class {bad!r}")
    if len(values) != len(classes):
        missing = next(c for c in classes if c not in values)
        raise ValueError(f"{key} table of degree {degree} has no weight for the class {missing!r}")


def character_class_function(lam) -> CoefficientTable:
    """The irreducible character chi^lam as a weight vector over all classes."""
    lam = as_partition(lam)
    n = sum(lam)
    values = {mu: Fraction(irreducible_character(lam, mu)) for mu in enumerate_partitions(n)}
    return CoefficientTable(n, "ctype", values, f"character[{format_parts(lam)}]")


def trivial_character(n: int) -> CoefficientTable:
    """The constant class function 1."""
    values = dict.fromkeys(enumerate_partitions(n), Fraction(1))
    return CoefficientTable(n, "ctype", values, "constant 1")


def sign_character(n: int) -> CoefficientTable:
    """The class function (-1)^(n - number of parts of the cycle type)."""
    values = {mu: Fraction(-1 if (n - len(mu)) % 2 else 1) for mu in enumerate_partitions(n)}
    return CoefficientTable(n, "ctype", values, "sign")


def frobenius(theta: CoefficientTable):
    """Symmetric function of a class function: sum over classes of theta(mu)/z_mu p_mu.

    Returns the image in M coordinates.  theta must be keyed by cycle type.
    """
    if theta.key != "ctype":
        raise ValueError("frobenius needs a table keyed by cycle type")

    total = qsym.QSym.zero("M")
    for mu, val in theta.values.items():
        if val:
            total = total + qsym.power_sym(mu) * Fraction(val, z_of(mu))
    return total
