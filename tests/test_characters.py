import math
import re
from decimal import Decimal
from fractions import Fraction

import pytest

from quasimm.characters import (
    CoefficientTable,
    character_class_function,
    chi2,
    fixed_points,
    frobenius,
    irreducible_character,
    sign,
    sign_character,
    trivial_character,
)
from quasimm.combinatorics import (
    cycle_type,
    enumerate_partitions,
    enumerate_permutations,
    z_of,
)
from quasimm.qsym import (
    elementary_sym,
    homogeneous_sym,
    monomial_sym,
    p_coefficient,
    schur_sym,
)
from oracles import e_weight, m_weight

S3_TABLE = {
    # rows: shape, values over classes (1,1,1), (2,1), (3)
    (3,): (1, 1, 1),
    (2, 1): (2, 0, -1),
    (1, 1, 1): (1, -1, 1),
}

S4_CLASSES = ((1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,))
S4_TABLE = {
    (4,): (1, 1, 1, 1, 1),
    (3, 1): (3, 1, -1, 0, -1),
    (2, 2): (2, 0, 2, -1, 0),
    (2, 1, 1): (3, -1, -1, 0, 1),
    (1, 1, 1, 1): (1, -1, 1, 1, -1),
}


def test_sign_and_fixed_points():
    assert sign((1, 2, 3)) == 1
    assert fixed_points((1, 2, 3)) == 3
    assert sign((2, 1, 3)) == -1
    assert fixed_points((2, 1, 3)) == 1
    assert sign((2, 1, 5, 4, 6, 7, 3)) == 1
    assert fixed_points((2, 1, 5, 4, 6, 7, 3)) == 1


def test_chi2_values():
    assert chi2((1, 2, 3)) == 2
    assert chi2((1, 3, 2)) == 0
    assert chi2((2, 3, 1)) == -1
    with pytest.raises(ValueError):
        chi2((1,))


def test_character_table_s3():
    classes = ((1, 1, 1), (2, 1), (3,))
    for lam, values in S3_TABLE.items():
        assert tuple(irreducible_character(lam, mu) for mu in classes) == values


def test_character_table_s4():
    for lam, values in S4_TABLE.items():
        assert tuple(irreducible_character(lam, mu) for mu in S4_CLASSES) == values


def test_trivial_and_sign_characters():
    for n in range(1, 7):
        for mu in enumerate_partitions(n):
            assert irreducible_character((n,), mu) == 1
            assert irreducible_character((1,) * n, mu) == (-1) ** (n - len(mu))


def test_character_argument_validation():
    with pytest.raises(ValueError):
        irreducible_character((2, 1), (2, 2))
    with pytest.raises(ValueError):
        irreducible_character((1, 2), (2, 1))


def _hook_length_count(lam):
    """Standard tableau count by the hook length product."""
    cols = [0] * (lam[0] if lam else 0)
    for row in lam:
        for j in range(row):
            cols[j] += 1
    prod = 1
    for i, row in enumerate(lam):
        for j in range(row):
            prod *= (row - j) + (cols[j] - i) - 1
    return math.factorial(sum(lam)) // prod


@pytest.mark.parametrize("n", range(1, 7))
def test_first_column_counts_standard_tableaux(n):
    ones = (1,) * n
    for lam in enumerate_partitions(n):
        assert irreducible_character(lam, ones) == _hook_length_count(lam)


@pytest.mark.parametrize("n", range(1, 7))
def test_column_orthogonality(n):
    for mu in enumerate_partitions(n):
        total = sum(irreducible_character(lam, mu) ** 2 for lam in enumerate_partitions(n))
        assert total == z_of(mu)


@pytest.mark.parametrize("n", range(2, 7))
def test_chi2_matches_recursion(n):
    hook = (2,) + (1,) * (n - 2)
    for sigma in enumerate_permutations(n):
        assert chi2(sigma) == irreducible_character(hook, cycle_type(sigma))


def test_class_function_call():
    theta = character_class_function((2, 1))
    assert theta((2, 1)) == 0
    assert theta((1, 1, 1)) == 2


def test_named_weight_vectors():
    n = 4
    assert trivial_character(n).provenance == "constant 1"
    assert sign_character(n).provenance == "sign"
    assert character_class_function((3, 1)).provenance == "character[3,1]"
    for table in (trivial_character(n), sign_character(n), character_class_function((3, 1))):
        assert table.degree == n and table.key == "ctype"
        assert set(table.values) == set(enumerate_partitions(n))
    assert sign_character(n)((2, 1, 1)) == -1
    with pytest.raises(ValueError):
        sign_character(n)((1, 2, 1))


def test_composition_keyed_tables():
    values = {(3,): Fraction(1), (1, 2): Fraction(5), (2, 1): Fraction(7), (1, 1, 1): Fraction(1)}
    table = CoefficientTable(3, "ccomp", values)
    assert table((1, 2)) == 5 and table((2, 1)) == 7
    with pytest.raises(ValueError):
        table((0, 3))
    with pytest.raises(ValueError):
        frobenius(table)


def test_table_constructor_positional_and_keyword():
    values = {(1,): Fraction(3)}
    positional = CoefficientTable(1, "ctype", values)
    keyword = CoefficientTable(degree=1, key="ctype", values=values)
    for table in (positional, keyword):
        assert (table.degree, table.key, table.values, table.provenance) == (1, "ctype", values, "")
    named = CoefficientTable(1, "ctype", values, provenance="three")
    assert named.provenance == "three"
    assert CoefficientTable(1, "ctype", values, "three") == named
    with pytest.raises(TypeError):
        CoefficientTable(1, "ctype")



def test_table_rejects_an_unknown_key():
    for key in ("ctyp", "CCOMP", "", None):
        with pytest.raises(ValueError, match="unknown table key"):
            CoefficientTable(2, key, {(2,): 1, (1, 1): 1})

def test_table_equality_is_by_fields():
    table = CoefficientTable(2, "ctype", {(2,): Fraction(-1), (1, 1): Fraction(1)}, "sign")
    assert table == CoefficientTable(2, "ctype", {(1, 1): 1, (2,): -1}, "sign")
    assert table == sign_character(2)
    assert table != CoefficientTable(2, "ctype", {(2,): Fraction(-1), (1, 1): Fraction(1)})
    assert table != CoefficientTable(2, "ccomp", table.values, "sign")
    assert table != CoefficientTable(3, "ctype", sign_character(3).values, "sign")
    assert table != CoefficientTable(2, "ctype", {(2,): 1, (1, 1): 1}, "sign")
    assert table != (2, "ctype", table.values, "sign")


def test_table_attributes_are_read_only():
    table = trivial_character(3)
    for name in ("degree", "key", "values", "provenance", "extra"):
        with pytest.raises(AttributeError):
            setattr(table, name, None)
    with pytest.raises(AttributeError):
        del table.values
    assert table == trivial_character(3)


def test_table_repr_names_every_field():
    table = CoefficientTable(1, "ccomp", {(1,): Fraction(2)}, "two")
    assert repr(table) == (
        "CoefficientTable(degree=1, key='ccomp', values={(1,): Fraction(2, 1)}, provenance='two')"
    )
    assert repr(CoefficientTable(1, "ctype", {(1,): Fraction(1)})).endswith("provenance='')")


@pytest.mark.parametrize(
    "degree, key, values, message",
    [
        (2, "ccomp", {(2,): 1}, r"no weight for the class \(1, 1\)"),
        (2, "ccomp", {(1, 1): 1}, r"no weight for the class \(2,\)"),
        (3, "ctype", {(3,): 1, (1, 1, 1): 1}, r"no weight for the class \(2, 1\)"),
        (1, "ctype", {}, r"no weight for the class \(1,\)"),
        (0, "ccomp", {}, r"no weight for the class \(\)"),
        (2, "ctype", {(2,): 1, (1, 1): 1, (1, 2): 1}, r"foreign class \(1, 2\)"),
        (2, "ccomp", {(2,): 1, (1, 1): 1, (3,): 1}, r"foreign class \(3,\)"),
        (2, "ccomp", {(2,): 1, (0, 2): 1}, r"foreign class \(0, 2\)"),
        (2, "ctype", {(2,): 1, "11": 1}, "foreign class '11'"),
        (-1, "ctype", {}, "nonnegative"),
        (-1, "ccomp", {}, "nonnegative"),
    ],
)
def test_table_refuses_missing_and_foreign_classes(degree, key, values, message):
    with pytest.raises(ValueError, match=message):
        CoefficientTable(degree, key, values)


@pytest.mark.parametrize(
    "degree, values",
    [
        (True, {(1,): 1}),
        (2.0, {(2,): 1, (1, 1): 1}),
        ("2", {(2,): 1, (1, 1): 1}),
        (-1, {}),
    ],
    ids=["bool", "float", "text", "negative"],
)
def test_table_refuses_a_degree_that_is_not_a_nonnegative_int(degree, values):
    message = f"table degree {re.escape(repr(degree))} is not a nonnegative integer"
    for key in ("ctype", "ccomp"):
        with pytest.raises(ValueError, match=message):
            CoefficientTable(degree, key, values)


def test_table_refuses_float_and_boolean_weights():
    from quasimm.engine import SquareMatrix, weighted_perm_sum

    a = SquareMatrix([[1, 2], [3, 4]])
    with pytest.raises(ValueError, match=r"floating-point weights \(at the ctype class \(2,\)\)"):
        weighted_perm_sum(a, CoefficientTable(2, "ctype", {(2,): 0.1, (1, 1): True}))
    with pytest.raises(ValueError, match=r"boolean weights \(at the ccomp class \(1, 1\)\)"):
        CoefficientTable(2, "ccomp", {(2,): 1, (1, 1): True})


@pytest.mark.parametrize(
    "weight", ["x", None, 1j, Decimal("NaN")], ids=["text", "none", "complex", "nan"]
)
def test_table_refuses_non_numeric_weights(weight):
    with pytest.raises(ValueError, match=r"at the ctype class \(2,\) is not a number"):
        CoefficientTable(2, "ctype", {(2,): weight, (1, 1): 1})


def test_table_stores_every_weight_as_a_fraction():
    from quasimm.engine import SquareMatrix, weighted_perm_sum

    table = CoefficientTable(2, "ccomp", {(2,): Decimal("0.5"), (1, 1): 3}, "mixed")
    assert all(type(w) is Fraction for w in table.values.values())
    assert table.values == {(2,): Fraction(1, 2), (1, 1): Fraction(3)}
    # 3 * (1 * 4) + (1/2) * (2 * 3): the Decimal weight reads as its exact value.
    assert weighted_perm_sum(SquareMatrix([[1, 2], [3, 4]]), table) == 15


def test_incomplete_table_fails_whatever_the_matrix():
    # The second matrix's (2) class sum is zero, so only the table can tell.
    from quasimm.engine import SquareMatrix, weighted_perm_sum

    for matrix, values in (([[1, 2], [3, 4]], {(2,): 1}), ([[1, 0], [0, 4]], {(1, 1): 1})):
        with pytest.raises(ValueError, match="no weight for the class"):
            weighted_perm_sum(SquareMatrix(matrix), CoefficientTable(2, "ccomp", values))


def test_table_keeps_its_own_copy_of_the_weights():
    from quasimm.engine import SquareMatrix, weighted_perm_sum

    v = {(2,): 1, (1, 1): 1}
    t = CoefficientTable(2, "ctype", v)
    v[(2,)] = 0.1
    del v[(1, 1)]
    assert weighted_perm_sum(SquareMatrix([[0, 2], [3, 0]]), t) == 6
    assert t.values == {(2,): 1, (1, 1): 1}


@pytest.mark.parametrize("n", range(1, 6))
def test_frobenius_of_characters(n):
    for lam in enumerate_partitions(n):
        assert frobenius(character_class_function(lam)) == schur_sym(lam)
    assert frobenius(trivial_character(n)) == homogeneous_sym((n,))
    assert frobenius(sign_character(n)) == elementary_sym((n,))


@pytest.mark.parametrize("n", range(1, 6))
def test_character_round_trip_through_p_coefficients(n):
    for lam in enumerate_partitions(n):
        s = schur_sym(lam)
        recovered = {mu: z_of(mu) * p_coefficient(s, mu) for mu in enumerate_partitions(n)}
        assert recovered == character_class_function(lam).values


def test_epsilon_coeff_values():
    assert e_weight((1, 1), (1, 1)) == 2
    assert e_weight((2,), (2,)) == -1
    assert e_weight((2,), (1, 1)) == 1
    assert e_weight((1, 1), (2,)) == 0


@pytest.mark.parametrize("n", range(1, 6))
def test_epsilon_of_single_row_is_sign(n):
    # e_n equals the antisymmetric Schur element, so its weight family is the sign
    expected = sign_character(n).values
    got = {mu: e_weight((n,), mu) for mu in enumerate_partitions(n)}
    assert got == expected


def test_phi_coeff_values():
    assert m_weight((2,), (2,)) == 2
    assert m_weight((1, 1), (2,)) == -1
    assert m_weight((1, 1), (1, 1)) == 1


@pytest.mark.parametrize("n", range(1, 6))
def test_coefficient_families_recover_their_elements(n):
    classes = enumerate_partitions(n)
    for lam in classes:
        eps = CoefficientTable(n, "ctype", {mu: e_weight(lam, mu) for mu in classes})
        assert frobenius(eps) == elementary_sym(lam)
        phi = CoefficientTable(n, "ctype", {mu: m_weight(lam, mu) for mu in classes})
        assert frobenius(phi) == monomial_sym(lam)


@pytest.mark.parametrize("n", range(1, 6))
def test_coefficient_families_are_integral(n):
    for lam in enumerate_partitions(n):
        for mu in enumerate_partitions(n):
            assert Fraction(e_weight(lam, mu)).denominator == 1
            assert m_weight(lam, mu).denominator == 1
