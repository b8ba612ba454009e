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
    cycles,
    enumerate_compositions,
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
    defined on every composition of the degree); a table whose classes are
    not exactly these, or that holds a floating-point or boolean weight, is
    refused.  provenance names the construction that produced the weights.
    Tables compare by their fields, and their attributes are read-only.
    """

    __slots__ = ("degree", "key", "values", "provenance")

    def __init__(self, degree: int, key: str, values: dict, provenance: str = ""):
        if key not in ("ctype", "ccomp"):
            raise ValueError(f"unknown table key {key!r}; expected 'ctype' or 'ccomp'")
        _check_classes(degree, key, values)
        for index, value in values.items():
            qsym._check_exact(value, f"weights (at the {key} class {index!r})")
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
    """Raise ValueError naming a foreign or a missing class unless values has every class once.

    The p(n) partitions are compared as a set.  The 2^(n-1) compositions
    are listed only to name a missing one: once each key is a composition
    of the degree, as many keys as compositions means every one is there.
    """
    if key == "ctype":
        classes = enumerate_partitions(degree)
        foreign = set(values).difference(classes)
    else:
        classes = None
        foreign = [index for index in values if not _is_composition_of(index, degree)]
    if foreign:
        bad = next(iter(foreign))
        raise ValueError(f"{key} table of degree {degree} has the foreign class {bad!r}")
    if len(values) != (len(classes) if classes else 1 << max(degree - 1, 0)):
        missing = next(c for c in classes or enumerate_compositions(degree) if c not in values)
        raise ValueError(f"{key} table of degree {degree} has no weight for the class {missing!r}")


def _is_composition_of(index, degree) -> bool:
    try:
        return isinstance(index, tuple) and sum(as_composition(index)) == degree
    except ValueError:
        return False


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
