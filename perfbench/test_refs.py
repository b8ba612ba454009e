"""Each reference in refs.py against brute-force enumeration at n <= 6.

    python3 -m pytest perfbench/test_refs.py -q

Brute force here means summing over all permutations, listing every filling
of a diagram, or expanding symmetric functions as explicit polynomials in n
variables and reading off monomial coefficients.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

import refs
import workloads

# ---------------------------------------------------------------- brute-force helpers


def perm_sum(rows, weight):
    n = len(rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        prod = Fraction(1)
        for i, j in enumerate(perm):
            prod *= rows[i][j]
        total += weight(perm) * prod
    return total


def random_matrix(n, rng, zeros=0.3):
    return [
        [Fraction(0) if rng.random() < zeros else Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
        for _ in range(n)
    ]


def fixed_points(perm):
    return sum(1 for i, j in enumerate(perm) if i == j)


def poly_mul(x, y):
    out = {}
    for ex, cx in x.items():
        for ey, cy in y.items():
            e = tuple(a + b for a, b in zip(ex, ey))
            out[e] = out.get(e, 0) + cx * cy
    return {e: c for e, c in out.items() if c}


def poly_add(x, y, scale=1):
    out = dict(x)
    for e, c in y.items():
        out[e] = out.get(e, 0) + scale * c
    return {e: c for e, c in out.items() if c}


def monomials(k, nvars):
    return [e for e in itertools.product(range(k + 1), repeat=nvars) if sum(e) == k]


def h_poly(k, nvars):
    return {e: 1 for e in monomials(k, nvars)}


def e_poly(k, nvars):
    return {e: 1 for e in monomials(k, nvars) if max(e, default=0) <= 1}


def p_poly(k, nvars):
    return {tuple(k if i == v else 0 for i in range(nvars)): 1 for v in range(nvars)}


def product(factors, nvars):
    out = {(0,) * nvars: 1}
    for f in factors:
        out = poly_mul(out, f)
    return out


def m_coefficients(poly, n):
    """M-expansion of a quasisymmetric polynomial in n variables: read x1^a1...xk^ak."""
    out = {}
    for alpha in refs.compositions(n):
        e = alpha + (0,) * (n - len(alpha))
        if poly.get(e):
            out[alpha] = Fraction(poly[e])
    return out


def schur_poly(lam, nvars):
    """s_lam by listing every semistandard filling with entries 1..nvars."""
    cells = [(i, j) for i, part in enumerate(lam) for j in range(part)]
    out = {}
    for values in itertools.product(range(nvars), repeat=len(cells)):
        t = dict(zip(cells, values))
        if all(t[(i, j)] <= t[(i, j + 1)] for (i, j) in cells if (i, j + 1) in t) and all(
            t[(i, j)] < t[(i + 1, j)] for (i, j) in cells if (i + 1, j) in t
        ):
            e = tuple(values.count(v) for v in range(nvars))
            out[e] = out.get(e, 0) + 1
    return out


def count_syt(lam):
    n = sum(lam)
    cells = [(i, j) for i, part in enumerate(lam) for j in range(part)]
    count = 0
    for values in itertools.permutations(range(n)):
        t = dict(zip(cells, values))
        if all(t[(i, j)] < t[(i, j + 1)] for (i, j) in cells if (i, j + 1) in t) and all(
            t[(i, j)] < t[(i + 1, j)] for (i, j) in cells if (i + 1, j) in t
        ):
            count += 1
    return count


def count_composition_tableaux(alpha, beta):
    """Fillings of alpha with content beta: rows weakly decrease, first column strictly
    increases, and the triple rule holds on the zero-padded rectangle."""
    cells = [(i, j) for i, part in enumerate(alpha) for j in range(part)]
    content = [v + 1 for v, count in enumerate(beta) for _ in range(count)]
    width = max(alpha)
    count = 0
    for values in set(itertools.permutations(content)):
        t = dict(zip(cells, values))
        pad = lambda i, j: t.get((i, j), 0)  # noqa: E731
        rows_ok = all(t[(i, j)] >= t[(i, j + 1)] for (i, j) in cells if (i, j + 1) in t)
        col_ok = all(t[(i, 0)] < t[(i + 1, 0)] for i in range(len(alpha) - 1))
        triple_ok = all(
            not (pad(j, k) and pad(j, k) >= pad(i, k) and pad(j, k) <= pad(i, k - 1))
            for i in range(len(alpha))
            for j in range(i + 1, len(alpha))
            for k in range(1, width)
        )
        count += rows_ok and col_ok and triple_ok
    return count


# ---------------------------------------------------------------- matrix functions


@pytest.mark.parametrize("n", range(1, 7))
def test_matrix_functions_match_permutation_sums(n):
    rng = random.Random(n)
    for _ in range(3):
        rows = random_matrix(n, rng)
        assert refs.ryser_permanent(rows) == perm_sum(rows, lambda p: 1)
        assert refs.det_elimination(rows) == perm_sum(rows, refs.perm_sign)
        assert refs.second_immanant(rows) == perm_sum(rows, lambda p: refs.perm_sign(p) * (fixed_points(p) - 1))
        sums = refs.class_sums(rows)
        for alpha in refs.compositions(n):
            brute = perm_sum(rows, lambda p: int(refs.cycle_composition(p) == alpha))
            assert sums.get(alpha, 0) == brute


@pytest.mark.parametrize("n", range(3, 7))
def test_toeplitz_closed_form(n):
    rows = [[Fraction(int(abs(i - j) == 1)) for j in range(n)] for i in range(n)]
    weights = refs.ccomp_weights(refs.hook_expansion(n), n, "Psi")
    assert refs.toeplitz_hook_qimm(n) == perm_sum(rows, lambda p: weights.get(refs.cycle_composition(p), 0))
    assert refs.toeplitz_d2(n) == perm_sum(rows, lambda p: refs.perm_sign(p) * (fixed_points(p) - 1))


def test_paper_three_by_three_hook_weights():
    weights = refs.ccomp_weights(refs.hook_expansion(3), 3, "Psi")
    table = {p: weights.get(refs.cycle_composition(p), 0) for p in itertools.permutations(range(3))}
    assert table == {(0, 1, 2): 1, (0, 2, 1): -3, (1, 0, 2): 3, (2, 1, 0): 3, (1, 2, 0): 0, (2, 0, 1): 0}


# ---------------------------------------------------------------- element closed forms


@pytest.mark.parametrize("n", range(3, 7))
def test_hook_expansion_counts_composition_tableaux(n):
    alpha = (2,) + (1,) * (n - 2)
    brute = {}
    for beta in refs.compositions(n):
        count = count_composition_tableaux(alpha, beta)
        if count:
            brute[beta] = count
    assert brute == refs.hook_expansion(n)


@pytest.mark.parametrize("n", range(1, 7))
def test_hook_length_formula(n):
    for lam in refs.partitions(n):
        assert refs.hook_length_count(lam) == count_syt(lam)


@pytest.mark.parametrize("n", range(1, 6))
def test_h_and_e_expansions_and_multinomials(n):
    for lam in refs.partitions(n):
        assert refs.h_expansion(lam) == m_coefficients(product([h_poly(k, n) for k in lam], n), n)
        assert refs.e_expansion(lam) == m_coefficients(product([e_poly(k, n) for k in lam], n), n)
        assert refs.h_expansion(lam)[(1,) * n] == refs.multinomial(lam)
        assert refs.e_expansion(lam)[(1,) * n] == refs.multinomial(lam)


@pytest.mark.parametrize("n", range(1, 6))
def test_rearrangement_sums(n):
    for lam in refs.partitions(n):
        m_lam = {e: 1 for e in set(itertools.permutations(lam + (0,) * (n - len(lam))))}
        element = m_coefficients(m_lam, n)
        assert refs.is_rearrangement_sum(element, lam)
        element[next(iter(element))] = Fraction(2)
        assert not refs.is_rearrangement_sum(element, lam)


# ---------------------------------------------------------------- characters and power sums


@pytest.mark.parametrize("n", range(1, 6))
def test_characters_expand_schur_polynomials(n):
    for lam in refs.partitions(n):
        brute = schur_poly(lam, n)
        from_chars = {}
        for mu, c in refs.schur_p_coords(lam).items():
            from_chars = poly_add(from_chars, product([p_poly(k, n) for k in mu], n), c)
        assert from_chars == brute
        assert refs.orthonormal(refs.schur_p_coords(lam))
        assert refs.character(lam, (1,) * n) == count_syt(lam)


def test_orthonormality_rejects_a_wrong_coordinate():
    coords = refs.schur_p_coords((3, 2, 1))
    coords[(3, 2, 1)] += 1
    assert not refs.orthonormal(coords)


@pytest.mark.parametrize("n", range(1, 6))
def test_elementary_weights(n):
    for lam in refs.partitions(n):
        poly = {}
        for mu, w in refs.elementary_weights(lam).items():
            poly = poly_add(poly, product([p_poly(k, n) for k in mu], n), Fraction(w, refs.z(mu)))
        assert poly == product([e_poly(k, n) for k in lam], n)


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("variant", ["Psi", "Phi"])
def test_power_sums_add_up_to_p_and_invert(n, variant):
    for lam in refs.partitions(n):
        p_lam = m_coefficients(product([p_poly(k, n) for k in lam], n), n)
        rearranged = {alpha: 1 for alpha in set(itertools.permutations(lam))}
        assert refs.power_to_m(rearranged, variant) == p_lam
        assert refs.m_to_power(p_lam, n, variant) == rearranged
    rng = random.Random(n)
    coords = {alpha: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for alpha in refs.compositions(n)}
    coords = {a: c for a, c in coords.items() if c}
    assert refs.m_to_power(refs.power_to_m(coords, variant), n, variant) == coords


def test_schur_sum_of_rearranged_quasi_schur_shapes():
    # s_(2,1) = QS_(2,1) + QS_(1,2), with each QS counted from its composition tableaux.
    total = {}
    for alpha in [(2, 1), (1, 2)]:
        for beta in refs.compositions(3):
            count = count_composition_tableaux(alpha, beta)
            if count:
                total[beta] = total.get(beta, 0) + count
    assert {b: Fraction(c) for b, c in total.items()} == workloads.schur_m((2, 1))


# ---------------------------------------------------------------- output parsing


def test_parse_element_and_table():
    assert workloads.parse_element("M[2,1] - 3/4*M[1,1,1]") == ("M", {(2, 1): 1, (1, 1, 1): Fraction(-3, 4)})
    assert workloads.parse_element("-2*Psi[3] + Psi[1,2]") == ("Psi", {(3,): -2, (1, 2): 1})
    assert workloads.parse_element("0") == (None, {})
    table = "check  expected       got            status\n-----  -------------  -------------  ------\nab     1/1 agree      1/1 agree      pass\n1/1 checks passed\n"
    assert workloads.parse_table(table) == ([["ab", "1/1 agree", "1/1 agree", "pass"]], "1/1 checks passed")
