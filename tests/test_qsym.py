import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from quasimm import qsym
from quasimm.characters import character_class_function, frobenius, irreducible_character
from quasimm.combinatorics import (
    enumerate_compositions,
    enumerate_partitions,
    sort_composition,
    z_of,
    z_of_composition,
)
from quasimm.qsym import (
    QSym,
    elementary_sym,
    format_element,
    homogeneous_sym,
    is_symmetric,
    m_product,
    monomial_sym,
    p_coefficient,
    p_weights,
    power_sym,
    quasischur,
    schur_sym,
    to_coords,
    to_json_dict,
)
from oracles import (
    admissible,
    coordinates_by_rows,
    count_composition_tableaux,
    dominance_order,
    e_weight,
    ell_stat,
    h_weight,
    lp_stat,
    m_weight,
    p_weights_by_rows,
    refines,
)

M = lambda *alpha: QSym.basis_element("M", alpha)  # noqa: E731


def test_constructor_and_arithmetic():
    x = QSym("M", {(2, 1): Fraction(1, 2), (3,): 1})
    assert x.coefficient((2, 1)) == Fraction(1, 2)
    assert x.coefficient((1, 2)) == 0
    assert (x - x) == QSym.zero("M")
    assert not (x - x)
    assert 2 * x == x * 2
    assert (2 * x).coefficient((3,)) == 2
    with pytest.raises(ValueError):
        QSym("Q", {})
    with pytest.raises(ValueError):
        QSym("M", {(0, 1): 1})
    with pytest.raises(ValueError):
        x + QSym.zero("Psi")



def test_float_coefficients_and_scalars_are_rejected():
    with pytest.raises(ValueError, match="floating-point"):
        QSym("M", {(1,): 0.1})
    with pytest.raises(ValueError, match="floating-point"):
        QSym("M", [((1,), 1), ((2,), 2.0)])
    hook = quasischur((2, 1))
    for product in (lambda: hook * 0.1, lambda: 0.1 * hook, lambda: hook * 2.0):
        with pytest.raises(ValueError, match="floating-point"):
            product()
    assert hook * Fraction(1, 10) == QSym("M", {(2, 1): Fraction(1, 10), (1, 1, 1): Fraction(1, 10)})


def test_boolean_coefficients_and_scalars_are_rejected():
    for coeffs in ({(1,): True}, [((1,), 1), ((2,), False)]):
        with pytest.raises(ValueError, match="boolean"):
            QSym("M", coeffs)
    hook = quasischur((2, 1))
    for product in (lambda: hook * True, lambda: True * hook, lambda: hook * False):
        with pytest.raises(ValueError, match="boolean"):
            product()
    assert hook * 1 == hook


def test_classical_builders_read_any_spelling_of_a_partition():
    # The builders keep no cache: a list and a tuple give equal, fresh elements,
    # and parts out of order are refused before any product is taken.
    for builder in (monomial_sym, power_sym, elementary_sym, homogeneous_sym):
        assert builder([2, 1]) == builder((2, 1))
        assert builder((2, 1)) is not builder((2, 1))
        with pytest.raises(ValueError, match="weakly decreasing"):
            builder([1, 2])

def test_degree_bookkeeping():
    x = M(2, 1) + M(3)
    assert x.is_homogeneous() and x.degree() == 3
    mixed = M(2) + M(2, 1)
    assert not mixed.is_homogeneous()
    with pytest.raises(ValueError):
        mixed.degree()
    with pytest.raises(ValueError):
        QSym.zero("M").degree()


def test_product_examples():
    assert M(1) * M(1) == 2 * M(1, 1) + M(2)
    assert M(2) * M(1) == M(2, 1) + M(1, 2) + M(3)
    assert QSym.unit("M") * M(3, 1) == M(3, 1)
    with pytest.raises(ValueError):
        m_product(QSym.basis_element("Psi", (2,)), M(1))


# Truncated polynomial model in K_VARS variables: exponent vector -> coeff.
# Faithful for products of degree <= K_VARS since every contributing index
# composition has at most K_VARS parts.
K_VARS = 6


def _monomial_poly(alpha):
    out = Counter()
    for positions in itertools.combinations(range(K_VARS), len(alpha)):
        expo = [0] * K_VARS
        for pos, part in zip(positions, alpha):
            expo[pos] = part
        out[tuple(expo)] += 1
    return out


def _poly_mul(p, q):
    out = Counter()
    for ea, ca in p.items():
        for eb, cb in q.items():
            key = tuple(a + b for a, b in zip(ea, eb))
            out[key] += ca * cb
    return out


def _element_poly(x):
    out = Counter()
    for alpha, c in x.coeffs.items():
        for expo, m in _monomial_poly(alpha).items():
            out[expo] += c * m
    return +out


def _compositions_up_to(n):
    return [alpha for d in range(n + 1) for alpha in enumerate_compositions(d)]

def test_product_matches_polynomial_model():
    small = _compositions_up_to(3)
    for alpha in small:
        for beta in small:
            product = m_product(M(*alpha), M(*beta))
            expected = _poly_mul(_monomial_poly(alpha), _monomial_poly(beta))
            assert _element_poly(product) == +expected, (alpha, beta)


def test_product_commutative_and_associative():
    small = _compositions_up_to(3)
    for alpha, beta in itertools.combinations(small, 2):
        assert M(*alpha) * M(*beta) == M(*beta) * M(*alpha)
    for alpha, beta, gamma in itertools.product(small, repeat=3):
        a, b, c = M(*alpha), M(*beta), M(*gamma)
        assert (a * b) * c == a * (b * c)


@given(
    st.lists(st.integers(1, 4), max_size=3).map(tuple),
    st.lists(st.integers(1, 4), max_size=3).map(tuple),
)
def test_product_preserves_degree_and_bounds_length(alpha, beta):
    product = m_product(M(*alpha), M(*beta))
    for gamma, c in product.coeffs.items():
        assert sum(gamma) == sum(alpha) + sum(beta)
        assert max(len(alpha), len(beta)) <= len(gamma) <= len(alpha) + len(beta)
        assert c > 0 and c.denominator == 1


def test_classical_elements():
    assert monomial_sym((2, 1)) == M(2, 1) + M(1, 2)
    assert monomial_sym((1, 1)) == M(1, 1)
    assert monomial_sym((4,)) == M(4)
    assert power_sym((2, 1)) == M(2, 1) + M(1, 2) + M(3)
    assert elementary_sym((2,)) == M(1, 1)
    assert elementary_sym((1, 1)) == 2 * M(1, 1) + M(2)
    assert homogeneous_sym((2,)) == M(2) + M(1, 1)
    assert homogeneous_sym((2, 1)) == M(3) + 2 * M(2, 1) + 2 * M(1, 2) + 3 * M(1, 1, 1)
    for builder in (monomial_sym, power_sym, elementary_sym, homogeneous_sym, schur_sym):
        assert builder(()) == QSym.unit("M")
        with pytest.raises(ValueError):
            builder((1, 2))


@pytest.mark.parametrize("n", range(1, 7))
def test_monomial_terms_are_the_distinct_rearrangements(n):
    for lam in enumerate_partitions(n):
        m = monomial_sym(lam)
        assert set(m.coeffs) == set(itertools.permutations(lam))
        assert set(m.coeffs.values()) == {1}


def test_monomial_term_counts_at_large_degree():
    assert monomial_sym((25,)) == M(25)
    assert len(monomial_sym((2, 2) + (1,) * 8).coeffs) == 45


def test_newton_style_relations():
    # e2 = (p1^2 - p2)/2 and h2 = (p1^2 + p2)/2
    p11, p2 = power_sym((1, 1)), power_sym((2,))
    assert elementary_sym((2,)) == (p11 - p2) * Fraction(1, 2)
    assert homogeneous_sym((2,)) == (p11 + p2) * Fraction(1, 2)


def test_schur_examples():
    assert schur_sym((1, 1)) == M(1, 1)
    assert schur_sym((2,)) == M(2) + M(1, 1)
    assert schur_sym((2, 1)) == M(2, 1) + M(1, 2) + 2 * M(1, 1, 1)
    assert schur_sym((1, 1, 1)) == M(1, 1, 1)
    assert schur_sym((3,)) == homogeneous_sym((3,))


@pytest.mark.parametrize("n", range(1, 7))
def test_schur_coefficients_are_kostka_numbers(n):
    ones = (1,) * n
    for lam in enumerate_partitions(n):
        s = schur_sym(lam)
        assert is_symmetric(s)
        for alpha, c in s.coeffs.items():
            assert c.denominator == 1 and c > 0
        assert s.coefficient(lam) == 1
        assert s.coefficient(ones) == irreducible_character(lam, ones)


def test_tableau_count_examples():
    assert count_composition_tableaux((), ()) == 1
    assert count_composition_tableaux((2, 1), (2, 1)) == 1
    assert count_composition_tableaux((2, 1), (1, 1, 1)) == 1
    assert count_composition_tableaux((2, 1), (1, 2)) == 0
    assert count_composition_tableaux((1, 2), (1, 1, 1)) == 1
    assert count_composition_tableaux((1, 2), (2, 1)) == 0
    with pytest.raises(ValueError):
        count_composition_tableaux((2, 1), (2, 2))


@pytest.mark.parametrize("n", range(0, 7))
def test_tableau_counts_unitriangular(n):
    for alpha in enumerate_compositions(n):
        assert count_composition_tableaux(alpha, alpha) == 1
        for beta in enumerate_compositions(n):
            if count_composition_tableaux(alpha, beta) and alpha != beta:
                assert dominance_order(alpha, beta) == 1


def test_quasischur_examples():
    assert quasischur((1, 2)) == M(1, 2) + M(1, 1, 1)
    assert quasischur((2, 1)) == M(2, 1) + M(1, 1, 1)
    for n in range(1, 7):
        assert quasischur((1,) * n) == M(*(1,) * n)
        assert quasischur((n,)) == homogeneous_sym((n,))


@pytest.mark.parametrize("n", range(1, 6))
def test_quasischur_rearrangements_sum_to_schur(n):
    for lam in enumerate_partitions(n):
        total = QSym.zero("M")
        for alpha in set(itertools.permutations(lam)):
            total = total + quasischur(alpha)
        assert total == schur_sym(lam)


@pytest.mark.parametrize("n", range(0, 8))
def test_quasischur_matches_tableau_counts(n):
    compositions = enumerate_compositions(n)
    for alpha in compositions:
        counts = {beta: count_composition_tableaux(alpha, beta) for beta in compositions}
        assert quasischur(alpha) == QSym("M", counts)


@pytest.mark.parametrize("n", range(0, 9))
def test_schur_matches_character_route(n):
    for lam in enumerate_partitions(n):
        assert schur_sym(lam) == frobenius(character_class_function(lam))


def _dense_from_fundamentals(n, counts):
    """M coordinates of a descent-mask histogram by the dense superset-sum pass.

    Every one of the 2^(n-1) masks takes the total of its subsets, one bit
    at a time: (n-1) 2^(n-1) additions, however few masks are present.
    """
    coeffs = [counts.get(mask, 0) for mask in range(1 << max(n - 1, 0))]
    for bit in range(n - 1):
        step = 1 << bit
        for mask in range(len(coeffs)):
            if mask & step:
                coeffs[mask] += coeffs[mask ^ step]
    return QSym("M", {qsym.mask_composition(n, mask): c for mask, c in enumerate(coeffs) if c})


@pytest.mark.parametrize("n", range(0, 9))
def test_fundamental_pass_matches_dense_oracle(n, monkeypatch):
    histograms = []
    sparse = qsym._from_fundamentals
    monkeypatch.setattr(
        qsym, "_from_fundamentals", lambda k, counts: histograms.append(counts) or sparse(k, counts)
    )
    shapes = [(quasischur, alpha) for alpha in enumerate_compositions(n)]
    shapes += [(schur_sym, lam) for lam in enumerate_partitions(n)]
    for build, shape in shapes:
        element = build(shape)
        assert element == _dense_from_fundamentals(n, histograms[-1])
    assert len(histograms) == len(shapes)


def test_fundamental_pass_visits_only_supersets():
    # A mask missing one descent has two supersets: two additions, where the
    # dense pass runs over all 2^19 masks 19 times.
    ones, full = (1,) * 20, (1 << 19) - 1
    assert quasischur(ones) == M(*ones)
    assert qsym._from_fundamentals(20, {full ^ 1: 3}) == 3 * M(*ones) + 3 * M(2, *ones[2:])


def test_quasischur_builds_without_content_counts():
    # The content-by-content count lives only in the test oracles.
    assert not hasattr(qsym, "count_composition_tableaux")
    shape, ones = (3, 1, 5), (1,) * 9  # used by no other test
    standard = count_composition_tableaux(shape, ones)
    element = quasischur(shape)
    assert element.coefficient(shape) == 1
    assert element.coefficient(ones) == standard == 28


@pytest.mark.parametrize("n", range(0, 7))
def test_count_rule_agrees_with_the_triple_rule(n):
    """Placing n..1, the row lengths alone decide every cell of a composition tableau.

    The walk follows the triple rule with rows started bottom-up; at every
    partial filling it reaches, the count rule of quasischur (a row starts
    once the row below has, and grows from k cells unless a row above holds
    exactly k) gives the same verdict on each row's next cell.
    """
    for alpha in enumerate_compositions(n):
        complete, stack = 0, [[[0] * width for width in alpha]]
        while stack:
            rows = stack.pop()
            filled = [width - row.count(0) for row, width in zip(rows, alpha)]
            v = n - sum(filled)
            if not v:
                complete += 1
                continue
            for j, k in enumerate(filled):
                if k == alpha[j]:
                    continue
                by_triple = (k or j + 1 == len(alpha) or filled[j + 1] > 0) and admissible(
                    rows, alpha, j, k, v
                )
                by_count = k not in filled[:j] if k else j + 1 == len(alpha) or filled[j + 1] > 0
                assert by_triple == by_count, (alpha, rows, j)
                if by_count:
                    grown = [list(row) for row in rows]
                    grown[j][k] = v
                    stack.append(grown)
        assert complete == count_composition_tableaux(alpha, (1,) * n)


def test_tableau_builds_keep_a_flat_stack_at_degree_1000():
    # The hook quasi-Schur element of the paper's Theorem 4, and the column shapes.
    hook = (2,) + (1,) * 998
    assert quasischur(hook) == M(*hook) + M(*(1,) * 1000)
    column = (1,) * 1200
    assert schur_sym(column) == monomial_sym(column) == elementary_sym((1200,)) == M(*column)


def test_elements_at_degrees_beyond_whole_degree_builds():
    # 2^15 contents at degree 16: only a build from standard tableaux is quick here.
    assert quasischur((2,) + (1,) * 14) == M(2, *(1,) * 14) + M(*(1,) * 16)
    ones = (1,) * 12
    assert schur_sym((10, 2)).coefficient(ones) == irreducible_character((10, 2), ones)


def _oracle_transition(n, variant):
    """Whole-degree change of basis between M and Psi/Phi, the reference for the closed-form rows.

    Row beta holds M_beta over the power sums, from the block statistics
    lp and ell; the inverse comes from triangular substitution down the
    dominance order, in which every strict coarsening precedes alpha.
    """
    order = enumerate_compositions(n)
    rows = {}
    for beta in order:
        row = {}
        for alpha in (alpha for alpha in order if refines(beta, alpha)):
            if variant == "Psi":
                coeff = Fraction(lp_stat(beta, alpha), z_of_composition(alpha))
            else:
                coeff = Fraction(
                    math.prod(alpha), z_of_composition(alpha) * ell_stat(beta, alpha)
                )
            row[alpha] = -coeff if (len(beta) - len(alpha)) % 2 else coeff
        rows[beta] = row
    inverse = {}
    for alpha in order:
        acc = {alpha: Fraction(1)}
        for coarser, c in rows[alpha].items():
            if coarser != alpha:
                for beta, x in inverse[coarser].items():
                    acc[beta] = acc.get(beta, Fraction(0)) - c * x
        inverse[alpha] = {beta: v / rows[alpha][alpha] for beta, v in acc.items() if v}
    return rows, inverse


@pytest.mark.parametrize("variant", ["Psi", "Phi"])
@pytest.mark.parametrize("n", range(0, 9))
def test_rows_match_triangular_oracle(n, variant):
    rows, inverse = _oracle_transition(n, variant)
    for alpha in enumerate_compositions(n):
        assert to_coords(M(*alpha), variant).coeffs == rows[alpha], alpha
        assert to_coords(QSym.basis_element(variant, alpha), "M").coeffs == inverse[alpha], alpha
        m = M(*alpha)
        assert to_coords(to_coords(m, variant), "M") == m


def test_power_to_m_works_term_by_term_at_degree_14():
    # A whole-degree inverse at degree 14 would take hours.
    q = QSym("Psi", {(2,) + (1,) * 12: 1, (1, 3) + (1,) * 10: Fraction(1, 2)})
    expanded = to_coords(q, "M")
    assert len(expanded.coeffs) == 5120
    assert expanded.coefficient((2,) + (1,) * 12) == math.factorial(12)


# Terms (degree, mask, numerator, denominator) of a random element: degrees
# 0 to 8, mixed within one element, with rational coefficients.
_TERMS = st.lists(
    st.tuples(st.integers(0, 8), st.integers(0, 127), st.integers(-9, 9), st.integers(1, 12)),
    max_size=6,
)


def _element(basis, terms):
    return QSym(
        basis,
        {
            qsym.mask_composition(n, mask % (1 << max(n - 1, 0))): Fraction(a, b)
            for n, mask, a, b in terms
        },
    )


@pytest.mark.parametrize(
    "source, target",
    [("M", "Psi"), ("M", "Phi"), ("Psi", "M"), ("Phi", "M"), ("Psi", "Phi"), ("Phi", "Psi")],
)
@given(terms=_TERMS)
@example(terms=[(0, 0, 3, 2)])
@example(terms=[(0, 0, 1, 1), (1, 0, -2, 3), (8, 127, 5, 7), (8, 0, 1, 2)])
def test_mask_pass_matches_the_rows_oracle(source, target, terms):
    q = _element(source, terms)
    assert to_coords(q, target).coeffs == coordinates_by_rows(q, target)


@pytest.mark.parametrize("source", ["M", "Psi", "Phi"])
@pytest.mark.parametrize("target", ["Psi", "Phi"])
@given(terms=_TERMS)
@example(terms=[(0, 0, 3, 2), (8, 127, 5, 7), (8, 0, 1, 2), (3, 1, -2, 9)])
def test_power_numerators_are_n_factorial_times_the_rows_oracle(source, target, terms):
    # Mixed degrees share one den, so every degree's n! and every term's scale meet in it.
    q = _element(source, terms)
    sums, den = qsym.power_numerators(q, target)
    assert all(isinstance(s, int) and s for s in sums.values())
    expected = coordinates_by_rows(q, target)
    assert {a: Fraction(s, den) for a, s in sums.items()} == {
        a: c * math.factorial(sum(a)) for a, c in expected.items()
    }


@given(terms=_TERMS)
@example(terms=[(0, 0, 3, 2), (6, 31, 1, 1), (6, 5, -4, 5)])
def test_partition_pass_matches_the_rows_oracle(terms):
    q = _element("M", terms)
    assert p_weights(q) == p_weights_by_rows(q)


def test_sparse_inputs_stay_sparse():
    # Degrees 40 and 24: a pass over all 2^(n-1) masks would not finish.
    wide = M(10, 10, 10, 10)
    for variant in ("Psi", "Phi"):
        coords = to_coords(wide, variant).coeffs
        assert len(coords) == 8
        assert coords == coordinates_by_rows(wide, variant)
    for variant in ("Psi", "Phi"):
        pair = QSym.basis_element(variant, (12, 12))
        assert to_coords(pair, "M").coeffs == coordinates_by_rows(pair, "M")
        assert len(to_coords(pair, "M").coeffs) == 2


def test_p_weights_of_e_30_is_the_sign_character():
    # One term with 29 cuts: only the pruned pass, which keeps the prefixes of
    # partitions, stays near the 5604 partitions of 30.
    weights = p_weights(elementary_sym((30,)))
    assert weights == {mu: (-1) ** (30 - len(mu)) for mu in enumerate_partitions(30)}


def test_builders_multiply_from_their_first_factor(monkeypatch):
    factors = []
    product = qsym.m_product
    monkeypatch.setattr(qsym, "m_product", lambda x, y: factors.extend((x, y)) or product(x, y))
    assert homogeneous_sym((10,)) == QSym("M", dict.fromkeys(enumerate_compositions(10), 1))
    assert factors == []
    power_sym((3, 2, 1))
    elementary_sym((2, 2))
    assert len(factors) == 2 * 3  # two products for p_321, one for e_22
    assert QSym.unit("M") not in factors
    assert power_sym(()) == elementary_sym(()) == homogeneous_sym(()) == QSym.unit("M")


def test_transition_rows_degree_two():
    assert to_coords(M(2), "Psi").coeffs == {(2,): 1}
    assert to_coords(M(1, 1), "Psi").coeffs == {(2,): Fraction(-1, 2), (1, 1): Fraction(1, 2)}
    assert to_coords(QSym.basis_element("Psi", (2,)), "M").coeffs == {(2,): 1}
    assert to_coords(QSym.basis_element("Psi", (1, 1)), "M").coeffs == {(1, 1): 2, (2,): 1}


def test_transition_rows_degree_three():
    assert to_coords(M(3), "Psi").coeffs == {(3,): 1}
    assert to_coords(M(2, 1), "Psi").coeffs == {(2, 1): 1, (3,): Fraction(-1, 3)}
    assert to_coords(M(1, 2), "Psi").coeffs == {(1, 2): 1, (3,): Fraction(-2, 3)}
    assert to_coords(M(1, 1, 1), "Psi").coeffs == {
        (1, 1, 1): Fraction(1, 6),
        (2, 1): Fraction(-1, 2),
        (1, 2): Fraction(-1, 2),
        (3,): Fraction(1, 3),
    }
    assert to_coords(M(2, 1), "Phi").coeffs == {(2, 1): 1, (3,): Fraction(-1, 2)}
    assert to_coords(M(1, 2), "Phi").coeffs == {(1, 2): 1, (3,): Fraction(-1, 2)}
    assert to_coords(M(1, 1, 1), "Phi").coeffs == {
        (1, 1, 1): Fraction(1, 6),
        (2, 1): Fraction(-1, 2),
        (1, 2): Fraction(-1, 2),
        (3,): Fraction(1, 3),
    }


def test_transition_degree_zero_and_bad_variant():
    for variant in ("Psi", "Phi"):
        assert to_coords(M(), variant).coeffs == {(): 1}
        assert to_coords(QSym.basis_element(variant, ()), "M").coeffs == {(): 1}
        assert to_coords(QSym.unit("M"), variant) == QSym.unit(variant)
        assert to_coords(QSym.unit(variant), "M") == QSym.unit("M")
    with pytest.raises(ValueError):
        to_coords(M(1, 1), "psi")
    with pytest.raises(ValueError):
        QSym.basis_element("psi", (1, 1))


@pytest.mark.parametrize("variant", ["Psi", "Phi"])
@pytest.mark.parametrize("n", range(0, 6))
def test_transition_structure(n, variant):
    order = enumerate_compositions(n)
    position = {alpha: i for i, alpha in enumerate(order)}
    for beta in order:
        row = to_coords(M(*beta), variant).coeffs
        assert set(row) <= set(order)
        assert row[beta] == Fraction(math.prod(beta), z_of(sort_composition(beta)))
        for alpha in order:
            entry = row.get(alpha, 0)
            if not refines(beta, alpha):
                assert entry == 0
            if entry and alpha != beta:
                # strictly coarser indices come strictly earlier in the order
                assert position[alpha] < position[beta]


def test_to_coords_examples():
    assert to_coords(power_sym((2, 1)), "Psi") == QSym("Psi", {(2, 1): 1, (1, 2): 1})
    assert to_coords(power_sym((2, 1)), "Phi") == QSym("Phi", {(2, 1): 1, (1, 2): 1})
    hook = to_coords(quasischur((2, 1)), "Psi")
    assert hook == QSym(
        "Psi",
        {(2, 1): Fraction(1, 2), (1, 2): Fraction(-1, 2), (1, 1, 1): Fraction(1, 6)},
    )
    assert to_coords(hook, "M") == quasischur((2, 1))
    assert to_coords(hook, "Psi") is hook
    with pytest.raises(ValueError):
        to_coords(hook, "power")


@pytest.mark.parametrize("variant", ["Psi", "Phi"])
@pytest.mark.parametrize("n", range(1, 7))
def test_power_sum_refinement_expansion(n, variant):
    for lam in enumerate_partitions(n):
        expected = QSym(variant, {alpha: 1 for alpha in set(itertools.permutations(lam))})
        assert to_coords(power_sym(lam), variant) == expected


def _random_element(rng, degree):
    comps = enumerate_compositions(degree)
    chosen = rng.sample(comps, k=rng.randint(1, min(5, len(comps))))
    return QSym("M", {alpha: rng.randint(-9, 9) for alpha in chosen})


@pytest.mark.parametrize("variant", ["Psi", "Phi"])
def test_coordinate_round_trips(variant):
    rng = random.Random(74123)
    for degree in range(0, 7):
        for _ in range(100):
            q = _random_element(rng, degree)
            assert to_coords(to_coords(q, variant), "M") == q
    # cross-variant routing goes through M and is still exact
    q = _random_element(rng, 5)
    other = "Phi" if variant == "Psi" else "Psi"
    assert to_coords(to_coords(to_coords(q, variant), other), "M") == q


def test_is_symmetric():
    assert is_symmetric(QSym.zero("M"))
    assert is_symmetric(QSym.unit("M"))
    assert is_symmetric(M(1, 2) + M(2, 1))
    assert not is_symmetric(M(1, 2))
    assert not is_symmetric(M(1, 2) + 2 * M(2, 1))
    assert is_symmetric(quasischur((2,)))  # equals h_2
    assert not is_symmetric(quasischur((2, 1)))
    assert is_symmetric(to_coords(power_sym((2, 1)), "Psi"))


_SYMMETRIC_BUILDERS = (monomial_sym, power_sym, elementary_sym, homogeneous_sym, schur_sym)


@pytest.mark.parametrize("n", range(0, 9))
def test_p_weights_match_the_whole_psi_conversion(n):
    rng = random.Random(9100 + n)
    elements = [build(lam) for lam in enumerate_partitions(n) for build in _SYMMETRIC_BUILDERS]
    for _ in range(4):  # random rational combinations
        picked = rng.sample(elements, k=min(3, len(elements)))
        scaled = (Fraction(rng.randint(-9, 9), rng.randint(1, 9)) * q for q in picked)
        elements.append(sum(scaled, QSym.zero("M")))
    for q in elements:
        psi = to_coords(q, "Psi")  # the reference: the whole conversion
        expected = {mu: z_of(mu) * c for mu, c in psi.coeffs.items() if sort_composition(mu) == mu}
        assert p_weights(q) == p_weights(psi) == p_weights(to_coords(q, "Phi")) == expected
        # The Psi coordinate at every rearrangement alpha of mu is p_weights[mu]/z_mu.
        for alpha in enumerate_compositions(n):
            mu = sort_composition(alpha)
            assert psi.coeffs.get(alpha, 0) == Fraction(expected.get(mu, 0), z_of(mu))


@pytest.mark.parametrize("n", range(0, 8))
def test_p_weights_match_the_transition_count_oracle(n):
    classes = enumerate_partitions(n)
    builders = (homogeneous_sym, elementary_sym, monomial_sym)
    for lam in classes:
        weights = [p_weights(build(lam)) for build in builders]
        for mu in classes:
            expected = [oracle(lam, mu) for oracle in (h_weight, e_weight, m_weight)]
            assert [w.get(mu, 0) for w in weights] == expected, (lam, mu)


@pytest.mark.parametrize("n", range(1, 7))
def test_symmetry_reads_alike_in_every_basis(n):
    rng = random.Random(9200 + n)
    comps = enumerate_compositions(n)
    elements = [build(lam) for lam in enumerate_partitions(n) for build in _SYMMETRIC_BUILDERS]
    elements += [quasischur(alpha) for alpha in comps]
    elements += [elementary_sym((n,)) + M(*comps[-1]), schur_sym((n,)) - M(*comps[0])]
    for _ in range(8):
        chosen = rng.sample(comps, k=rng.randint(1, len(comps)))
        elements.append(QSym("M", {alpha: rng.randint(-2, 2) for alpha in chosen}))
    seen = set()
    for variant in ("Psi", "Phi"):
        for q in elements:
            x = to_coords(q, variant)
            seen.add(is_symmetric(x))
            assert is_symmetric(x) == is_symmetric(q)  # q is x in M
        for _ in range(8):  # sums given in the power-sum basis itself
            chosen = rng.sample(comps, k=rng.randint(1, len(comps)))
            y = QSym(variant, {alpha: rng.randint(-1, 1) for alpha in chosen})
            assert is_symmetric(y) == is_symmetric(to_coords(y, "M"))
    assert seen == ({True, False} if n > 2 else {True})


def test_p_coefficient():
    assert p_coefficient(schur_sym((1, 1, 1)), (1, 1, 1)) == Fraction(1, 6)
    for lam in ((3,), (2, 1), (1, 1, 1)):
        assert p_coefficient(power_sym(lam), lam) == 1
    assert p_coefficient(elementary_sym((2,)), (2,)) == Fraction(-1, 2)
    assert p_coefficient(elementary_sym((2,)), (1, 1)) == Fraction(1, 2)
    assert p_coefficient(schur_sym((2, 1)), (3,)) == Fraction(-1, 3)
    assert p_coefficient(schur_sym((2, 1)), (2, 1)) == 0
    with pytest.raises(ValueError):
        p_coefficient(M(1, 2), (2, 1))
    with pytest.raises(ValueError):
        p_coefficient(power_sym((2,)), (1, 2))


def test_json_serialization_order():
    payload = to_json_dict(schur_sym((2, 1)))
    assert payload == {
        "basis": "M",
        "terms": [
            {"index": "2,1", "coeff": "1"},
            {"index": "1,2", "coeff": "1"},
            {"index": "1,1,1", "coeff": "2"},
        ],
    }
    assert to_json_dict(QSym.zero("Psi")) == {"basis": "Psi", "terms": []}


def test_format_element():
    assert format_element(schur_sym((2, 1))) == "M[2,1] + M[1,2] + 2*M[1,1,1]"
    assert format_element(quasischur((2, 1))) == "M[2,1] + M[1,1,1]"
    assert format_element(QSym.zero("M")) == "0"
    assert format_element(QSym.unit("M")) == "M[]"
    third = QSym("Psi", {(2,): Fraction(-1, 3)})
    assert format_element(third) == "-1/3*Psi[2]"
    assert format_element(M(2) - M(1, 1)) == "M[2] - M[1,1]"
    mixed = M(1) + M(2)
    assert format_element(mixed) == "M[1] + M[2]"
