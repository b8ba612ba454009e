"""Symmetric-group class functions and the weight-vector type.

Irreducible character values by the border-strip recursion, the closed
form sign(sigma)(fixed points - 1) for the hook shape (2,1,...,1), the
CoefficientTable that carries every permutation-sum weight vector, the
named character-valued vectors, and the class-function-to-symmetric-function
transform.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import MappingProxyType

from . import qsym
from .combinatorics import (
    Partition,
    ReadOnly,
    as_composition,
    as_partition,
    compositions,
    cycles,
    enumerate_partitions,
    exact,
    format_parts,
    integer_terms,
    sort_composition,
    z_of,
    z_of_composition,
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
    return _strip_recursion(lam, mu, {})


def _strip_recursion(lam: Partition, mu: Partition, memo: dict) -> int:
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
        if (smaller, rest) not in memo:
            memo[smaller, rest] = _strip_recursion(smaller, rest, memo)
        total += -memo[smaller, rest] if height % 2 else memo[smaller, rest]
    return total


class CoefficientTable(ReadOnly):
    """Per-class weights for a permutation sum.

    key is "ctype" (weights indexed by cycle type, defined on every
    partition of the degree) or "ccomp" (indexed by cycle composition,
    defined on every composition of the degree); a table whose degree is
    not a nonnegative int, whose classes are not exactly these, or that
    holds a weight that combinatorics.exact does not accept, is refused.
    The weights are kept as integer numerators over den, their least
    common denominator; values is the {class: Fraction} view of them.
    from_numerators builds a table from such integers with the same checks.
    provenance names the construction that produced the weights.
    Tables compare by their fields; their attributes and numerators are read-only.
    """

    __slots__ = ("degree", "key", "numerators", "den", "provenance")

    def __init__(self, degree: int, key: str, values: dict, provenance: str = ""):
        weights = {
            i: exact(w, "weights (at the %s class %r): %r", key, i, w)
            for i, w in dict(values).items()
        }
        made = CoefficientTable.from_numerators(degree, key, *integer_terms(weights), provenance)
        for name in self.__slots__:
            setattr(self, name, getattr(made, name))

    @classmethod
    def from_numerators(cls, degree: int, key: str, numerators, den: int, provenance: str = ""):
        """The table of the weights numerators[class]/den, ints over an int den >= 1, reduced."""
        if key not in ("ctype", "ccomp"):
            raise ValueError(f"unknown table key {key!r}; expected 'ctype' or 'ccomp'")
        numerators = dict(numerators)  # a copy, so the checks below keep holding
        _check_classes(degree, key, numerators)
        for index, w in numerators.items():
            if type(w) is not int:
                raise ValueError(f"{key} numerator at the class {index!r} is not an int: {w!r}")
        if type(den) is not int or den < 1:
            raise ValueError(f"table den {den!r} is not a positive integer")
        common = math.gcd(den, *numerators.values())
        numerators = MappingProxyType({index: w // common for index, w in numerators.items()})
        table = object.__new__(cls)
        for name, value in zip(cls.__slots__, (degree, key, numerators, den // common, provenance)):
            setattr(table, name, value)
        return table

    @property
    def values(self) -> dict:
        return {index: Fraction(w, self.den) for index, w in self.numerators.items()}

    def __eq__(self, other):
        if not isinstance(other, CoefficientTable):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    def __repr__(self):
        names = ("degree", "key", "values", "provenance")
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"CoefficientTable({fields})"

    def __call__(self, index) -> Fraction:
        index = as_partition(index) if self.key == "ctype" else as_composition(index)
        if index not in self.numerators:
            raise ValueError(f"{self.key} table of degree {self.degree} has no class {index!r}")
        return Fraction(self.numerators[index], self.den)


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
    memo: dict = {}
    chi = {mu: _strip_recursion(lam, mu, memo) for mu in enumerate_partitions(n)}
    return CoefficientTable.from_numerators(n, "ctype", chi, 1, f"character[{format_parts(lam)}]")


def induced_sign_character(lam) -> CoefficientTable:
    """The sign character of the Young subgroup S_lam induced to S_n: z_rho [p_rho] e_lam at rho.

    It multiplies the factors' h_k = sum over mu of k of p_mu/z_mu, with
    p_mu p_nu = p_(mu u nu), where z_(mu u nu)/(z_mu z_nu) is an integer, and
    signs the product by omega: e_lam = omega(h_lam).
    """
    lam = as_partition(lam)
    n, counts = sum(lam), {(): 1}
    for k in lam:
        grown: dict = {}
        for rho, c in counts.items():
            for mu in enumerate_partitions(k):
                union = sort_composition(rho + mu)
                grown[union] = grown.get(union, 0) + c * (z_of(union) // (z_of(rho) * z_of(mu)))
        counts = grown
    values = {mu: (-1) ** (n - len(mu)) * counts.get(mu, 0) for mu in enumerate_partitions(n)}
    provenance = f"induced sign[{format_parts(lam)}]"
    return CoefficientTable.from_numerators(n, "ctype", values, 1, provenance)


def frobenius(theta: CoefficientTable):
    """Symmetric function of a class function: sum over classes of theta(mu)/z_mu p_mu.

    As p_mu is the sum of Psi_alpha over the rearrangements alpha of mu, one
    Psi-to-M pass gives the image in M coordinates.  theta must be keyed by cycle type.
    """
    if theta.key != "ctype":
        raise ValueError("frobenius needs a table keyed by cycle type")
    psi = {a: theta(sort_composition(a)) / z_of_composition(a) for a in compositions(theta.degree)}
    return qsym.to_coords(qsym.QSym("Psi", psi), "M")
