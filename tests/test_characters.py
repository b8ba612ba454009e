import copy
import math
import random
import re
import time
from decimal import Decimal
from fractions import Fraction

import pytest

from quasimm.characters import (
    CoefficientTable,
    character_class_function,
    chi2,
    fixed_points,
    frobenius,
    induced_sign_character,
    irreducible_character,
    sign,
)
from quasimm.combinatorics import (
    compositions,
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
    p_weights,
    schur_sym,
)
from oracles import e_weight, frobenius_by_products, m_weight

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


def _trivial(n):
    return {mu: 1 for mu in enumerate_partitions(n)}


def _sign(n):
    return {mu: (-1) ** (n - len(mu)) for mu in enumerate_partitions(n)}


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


def test_named_weight_vectors(monkeypatch):
    from quasimm import engine

    n, read = 4, []
    contract = engine.weighted_perm_sum
    monkeypatch.setattr(engine, "weighted_perm_sum", lambda a, t: read.append(t) or contract(a, t))
    engine.permanent(engine.SquareMatrix.identity(n))
    engine.determinant(engine.SquareMatrix.identity(n))
    assert [table.provenance for table in read] == ["character[4]", "character[1,1,1,1]"]
    assert character_class_function((3, 1)).provenance == "character[3,1]"
    for table in read + [character_class_function((3, 1))]:
        assert table.degree == n and table.key == "ctype"
        assert set(table.values) == set(enumerate_partitions(n))
    assert read[1]((2, 1, 1)) == -1
    with pytest.raises(ValueError):
        read[1]((1, 2, 1))


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
    sign2 = "character[1,1]"
    table = CoefficientTable(2, "ctype", {(2,): Fraction(-1), (1, 1): Fraction(1)}, sign2)
    assert table == CoefficientTable(2, "ctype", {(1, 1): 1, (2,): -1}, sign2)
    assert table == character_class_function((1, 1))
    assert table != CoefficientTable(2, "ctype", {(2,): Fraction(-1), (1, 1): Fraction(1)})
    assert table != CoefficientTable(2, "ccomp", table.values, sign2)
    assert table != CoefficientTable(3, "ctype", character_class_function((1, 1, 1)).values, sign2)
    assert table != CoefficientTable(2, "ctype", {(2,): 1, (1, 1): 1}, sign2)
    assert table != (2, "ctype", table.values, sign2)


def test_table_attributes_are_read_only():
    table = character_class_function((3,))
    for name in ("degree", "key", "values", "provenance", "extra"):
        with pytest.raises(AttributeError):
            setattr(table, name, None)
    with pytest.raises(AttributeError):
        del table.values
    assert table == character_class_function((3,))
    copied = copy.copy(table)
    assert copied == table and copied.numerators == table.numerators
    with pytest.raises(AttributeError, match="CoefficientTable is read-only: cannot change 'den'"):
        copied.den = 2


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
    with pytest.raises(ValueError, match=r"at the ctype class \(2,\)\): .* is not an integer or a/b"):
        CoefficientTable(2, "ctype", {(2,): weight, (1, 1): 1})


def test_table_stores_every_weight_as_a_fraction():
    from quasimm.engine import SquareMatrix, weighted_perm_sum

    table = CoefficientTable(2, "ccomp", {(2,): Decimal("0.5"), (1, 1): 3}, "mixed")
    assert all(type(w) is Fraction for w in table.values.values())
    assert table.values == {(2,): Fraction(1, 2), (1, 1): Fraction(3)}
    # 3 * (1 * 4) + (1/2) * (2 * 3): the Decimal weight reads as its exact value.
    assert weighted_perm_sum(SquareMatrix([[1, 2], [3, 4]]), table) == 15


def _assert_integers_over_least_denominator(table):
    numerators, den, values = table.numerators, table.den, table.values
    assert den >= 1 and math.gcd(den, *numerators.values()) == 1
    assert list(numerators) == list(values)
    assert all(Fraction(numerators[i], den) == values[i] == table(i) for i in values)
    assert CoefficientTable(table.degree, table.key, values, table.provenance) == table


@pytest.mark.parametrize("n", range(1, 9))
def test_every_builder_keeps_integers_over_one_least_denominator(n):
    from quasimm import engine
    from quasimm.qsym import QSym, is_symmetric, power_sym, quasischur

    tables = [character_class_function(lam) for lam in enumerate_partitions(n)]
    tables += [engine._hook_table(n)] if n >= 3 else []
    elements = [quasischur(alpha) for alpha in compositions(n)]
    elements.append(QSym("M", {(1,) * n: Fraction(1, 7), (n,): Fraction(-2, 3)}))
    for build in (schur_sym, elementary_sym, homogeneous_sym, monomial_sym, power_sym):
        elements += [build(lam) for lam in enumerate_partitions(n)]
    for q in elements:
        variants = ("Psi",) if is_symmetric(q) else ("Psi", "Phi")
        tables += [engine._element_table(q, variant) for variant in variants]
    assert {table.key for table in tables} == ({"ctype", "ccomp"} if n >= 3 else {"ctype"})
    assert any(table.den > 1 for table in tables)
    for table in tables:
        _assert_integers_over_least_denominator(table)


def test_mixed_weights_share_one_least_denominator():
    values = {(3,): Decimal("0.25"), (1, 2): Fraction(2, 3), (2, 1): 5, (1, 1, 1): Fraction(-7, 6)}
    table = CoefficientTable(3, "ccomp", values, "mixed")
    assert table.den == 12
    assert table.numerators == {(3,): 3, (1, 2): 8, (2, 1): 60, (1, 1, 1): -14}
    for index, value in values.items():
        assert table(index) == table.values[index] == Fraction(value)
        assert type(table(index)) is Fraction
    _assert_integers_over_least_denominator(table)
    # Equal weights written over other denominators give the library's own table.
    weights = {(2,): Fraction(-4, 4), (1, 1): Decimal("1.0")}
    spelled = CoefficientTable(2, "ctype", weights, "character[1,1]")
    assert (spelled.numerators, spelled.den) == ({(2,): -1, (1, 1): 1}, 1)
    assert spelled == character_class_function((1, 1))


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
    assert frobenius(CoefficientTable(n, "ctype", _trivial(n))) == homogeneous_sym((n,))
    assert frobenius(CoefficientTable(n, "ctype", _sign(n))) == elementary_sym((n,))


def _rational_table(rng, n):
    values = {mu: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for mu in enumerate_partitions(n)}
    return CoefficientTable(n, "ctype", values)


@pytest.mark.parametrize("n", range(8))
def test_frobenius_matches_the_product_oracle(n):
    rng = random.Random(700 + n)
    tables = [character_class_function(lam) for lam in enumerate_partitions(n)]
    tables += [_rational_table(rng, n) for _ in range(3)]
    tables.append(CoefficientTable(n, "ctype", dict.fromkeys(enumerate_partitions(n), 0)))
    for theta in tables:
        assert frobenius(theta) == frobenius_by_products(theta), theta
    assert not frobenius(tables[-1])


@pytest.mark.parametrize("n", range(8))
def test_p_weights_read_back_a_frobenius_image(n):
    rng = random.Random(800 + n)
    tables = [character_class_function(lam) for lam in enumerate_partitions(n)]
    tables.append(_rational_table(rng, n))
    for theta in tables:
        nonzero = {mu: value for mu, value in theta.values.items() if value}
        assert p_weights(frobenius(theta)) == nonzero


def test_frobenius_of_a_degree_ten_character_is_one_pass():
    # About 6 ms on a 2-vCPU VM; the product route takes about 57 ms there.
    theta = character_class_function((4, 3, 3))
    elapsed = []
    for _ in range(3):
        start = time.perf_counter()
        image = frobenius(theta)
        elapsed.append(time.perf_counter() - start)
    assert min(elapsed) < 0.02, elapsed
    assert image == schur_sym((4, 3, 3))


def test_a_fresh_memo_shares_the_smaller_shapes_of_one_call():
    # A fresh memo per call still shares every smaller shape within the call:
    # f^(4,4,4,4) = 16!/prod(hooks) = 24024.
    start = time.perf_counter()
    assert irreducible_character((4, 4, 4, 4), (1,) * 16) == 24024
    assert time.perf_counter() - start < 1.0


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
    expected = _sign(n)
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


def test_a_table_names_a_class_of_another_degree():
    chi = character_class_function((2, 1))
    with pytest.raises(ValueError, match=re.escape("ctype table of degree 3 has no class (4,)")):
        chi((4,))
    ccomp = CoefficientTable(2, "ccomp", {(2,): 1, (1, 1): 2})
    with pytest.raises(ValueError, match=re.escape("ccomp table of degree 2 has no class (1, 2)")):
        ccomp((1, 2))
    assert chi((1, 1, 1)) == 2 and ccomp((1, 1)) == 2


@pytest.mark.parametrize("n", range(1, 9))
def test_induced_sign_character_is_the_e_lambda_table(n):
    from quasimm import engine

    classes = enumerate_partitions(n)
    for lam in classes:
        table = induced_sign_character(lam)
        assert (table.degree, table.key, table.den) == (n, "ctype", 1)
        assert table.values == {mu: e_weight(lam, mu) for mu in classes}
        element = engine._element_table(elementary_sym(lam), "Psi")
        assert (table.numerators, table.den) == (element.numerators, element.den)
    assert induced_sign_character((n,)).values == _sign(n)


def _every_library_table(n):
    """Every table a library builder makes at degree n, built afresh."""
    from quasimm import engine
    from quasimm.qsym import QSym, power_sym, quasischur, to_coords

    engine.qimm_coefficient_table.cache_clear()
    tables = [character_class_function(lam) for lam in enumerate_partitions(n)]
    tables += [induced_sign_character(lam) for lam in enumerate_partitions(n)]
    tables += [engine._hook_table(n)] if n >= 3 else []
    elements = [quasischur(alpha) for alpha in compositions(n)]
    rational = QSym("M", {(1,) * n: Fraction(1, 7), (n,): Fraction(-2, 3)})
    for basis in ("Psi", "Phi"):
        elements.append(to_coords(rational, basis))
        elements.append(QSym(basis, {alpha: Fraction(k + 1, 3) for k, alpha in enumerate(compositions(n))}))
    elements.append(rational)
    for build in (schur_sym, elementary_sym, homogeneous_sym, monomial_sym, power_sym):
        elements += [build(lam) for lam in enumerate_partitions(n)]
    for q in elements:
        tables += [engine._element_table(q, variant) for variant in ("Psi", "Phi")]
    return tables


@pytest.mark.parametrize("n", range(1, 9))
def test_every_library_table_is_built_from_integers(n, monkeypatch):
    from quasimm import characters

    def refuse(value, name, *args):
        raise AssertionError(f"a library table read {name % args} through exact")

    monkeypatch.setattr(characters, "exact", refuse)
    tables = _every_library_table(n)
    monkeypatch.undo()
    assert {table.key for table in tables} == ({"ctype", "ccomp"} if n >= 3 else {"ctype"})
    for table in tables:
        assert CoefficientTable(table.degree, table.key, table.values, table.provenance) == table


@pytest.mark.parametrize(
    "numerators, den, message",
    [
        ({(2,): 1}, 1, r"no weight for the class \(1, 1\)"),
        ({(2,): 1, (1, 1): 1, (3,): 1}, 1, r"foreign class \(3,\)"),
        ({(2,): True, (1, 1): 1}, 1, r"numerator at the class \(2,\) is not an int: True"),
        ({(2,): 1, (1, 1): Fraction(1)}, 1, r"numerator at the class \(1, 1\) is not an int"),
        ({(2,): 1, (1, 1): 1.0}, 1, r"numerator at the class \(1, 1\) is not an int"),
        ({(2,): 1, (1, 1): 1}, 0, "table den 0 is not a positive integer"),
        ({(2,): 1, (1, 1): 1}, -2, "table den -2 is not a positive integer"),
        ({(2,): 1, (1, 1): 1}, True, "table den True is not a positive integer"),
        ({(2,): 1, (1, 1): 1}, Fraction(2), "table den Fraction"),
    ],
    ids=["missing", "foreign", "bool", "fraction", "float", "zero-den", "negative-den",
         "bool-den", "fraction-den"],
)
def test_from_numerators_refuses_what_the_constructor_refuses(numerators, den, message):
    with pytest.raises(ValueError, match=message):
        CoefficientTable.from_numerators(2, "ccomp", numerators, den)


def test_from_numerators_keeps_the_least_denominator():
    table = CoefficientTable.from_numerators(2, "ccomp", {(2,): 6, (1, 1): -4}, 10, "tenths")
    assert (dict(table.numerators), table.den) == ({(2,): 3, (1, 1): -2}, 5)
    assert table == CoefficientTable(2, "ccomp", {(2,): Fraction(3, 5), (1, 1): Fraction(-2, 5)}, "tenths")
    zero = CoefficientTable.from_numerators(1, "ctype", {(1,): 0}, 7)
    assert (dict(zero.numerators), zero.den) == ({(1,): 0}, 1)
    with pytest.raises(ValueError, match="unknown table key"):
        CoefficientTable.from_numerators(2, "cycles", {(2,): 1, (1, 1): 1}, 1)
    with pytest.raises(ValueError, match="table degree -1 is not a nonnegative integer"):
        CoefficientTable.from_numerators(-1, "ctype", {}, 1)
