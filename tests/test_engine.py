import copy
import json
import math
import pickle
import random
import re
import sys
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import pytest

from quasimm import engine
from quasimm.characters import character_class_function, irreducible_character
from quasimm.combinatorics import (
    cycle_composition,
    cycle_type,
    enumerate_compositions,
    enumerate_partitions,
    enumerate_permutations,
    sort_composition,
    z_of,
    z_of_composition,
)
from quasimm.engine import (
    CoefficientTable,
    SquareMatrix,
    class_sums,
    determinant,
    determinant_elimination,
    elementary_immanant,
    hook_qimm_coefficient,
    immanant,
    load_matrix,
    matrix_from_json_dict,
    monomial_immanant,
    permanent,
    qimm,
    qimm_coefficient_table,
    qimm_hook_fast,
    second_immanant,
    weighted_perm_sum,
)
from quasimm.qsym import (
    QSym,
    elementary_sym,
    homogeneous_sym,
    is_symmetric,
    monomial_sym,
    quasischur,
    schur_sym,
    to_coords,
)
from oracles import e_weight, m_weight

PRIMES = SquareMatrix([[2, 3, 5], [7, 11, 13], [17, 19, 23]])
ONES3 = SquareMatrix([[1] * 3] * 3)


def _toeplitz(n):
    return SquareMatrix(
        [[1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)]
    )


def _random_matrix(rng, n, lo=-3, hi=3):
    return SquareMatrix([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])


def _sparse_matrix(rng, n):
    rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    cells = [(i, j) for i in range(n) for j in range(n)]
    for i, j in rng.sample(cells, k=(n * n + 1) // 2):
        rows[i][j] = 0
    return SquareMatrix(rows)


def _unpruned_sum(a, table):
    key_fn = cycle_type if table.key == "ctype" else cycle_composition
    values = table.values  # a view built on each read: read it once
    total = Fraction(0)
    for sigma in enumerate_permutations(a.n):
        prod = Fraction(1)
        for i, j in enumerate(sigma, start=1):
            prod *= a.entry(i, j)
        total += values[key_fn(sigma)] * prod
    return total


def test_matrix_construction():
    a = SquareMatrix([[1, "1/2"], [Fraction(3, 4), -2]])
    assert a.n == 2
    assert a.entry(1, 2) == Fraction(1, 2)
    assert a.entry(2, 1) == Fraction(3, 4)
    assert SquareMatrix.identity(3).entry(2, 2) == 1
    assert SquareMatrix.identity(3).entry(1, 2) == 0
    with pytest.raises(ValueError):
        SquareMatrix([[0.5, 1], [1, 1]])
    with pytest.raises(ValueError):
        SquareMatrix([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        SquareMatrix([])


def test_matrix_is_scaled_to_integers_once_and_kept():
    a = SquareMatrix([["1/2", Fraction(2, 4), Decimal("0.5")], [1, 2, "-3"], ["1/6", "1/4", 0]])
    assert a.integers == ((1, 1, 1), (1, 2, -3), (2, 3, 0)) and a.lcms == (2, 1, 12)
    assert a.rows == ((Fraction(1, 2),) * 3, (1, 2, -3), (Fraction(1, 6), Fraction(1, 4), 0))
    assert all(type(e) is Fraction for row in a.rows for e in row)
    assert a.entry(3, 2) == Fraction(1, 4) and type(a.entry(2, 1)) is Fraction
    assert class_sums(a) == _walk_class_sums(a)


def test_differently_spelled_matrices_are_one_matrix():
    # The scaled rows are canonical, so they decide equality and the hash.
    a = SquareMatrix([["1/2", Fraction(2, 4), Decimal("0.5")], [1, 2, "-3"], ["1/6", "1/4", 0]])
    b = SquareMatrix([["2/4"] * 3, [Fraction(1), Decimal("2.0"), -3], [Fraction(1, 6), "3/12", "0/5"]])
    assert a == b and hash(a) == hash(b) and len({a, b, SquareMatrix(a.rows)}) == 1
    assert repr(a) == repr(b) and a.to_json_dict() == b.to_json_dict()
    # Equal scaled rows over other lcms are another matrix.
    assert SquareMatrix([[1, 1], [0, 1]]) != SquareMatrix([["1/2", "1/2"], [0, 1]])


def test_matrix_attributes_are_read_only_and_copies_keep_the_matrix():
    a = SquareMatrix([[1, "1/2"], ["3/4", -2]])
    for name in ("n", "rows", "integers", "lcms", "entry", "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, ())
    with pytest.raises(AttributeError, match="read-only"):
        del a.integers
    for made in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert made == a and hash(made) == hash(a) and made.rows == a.rows
        with pytest.raises(AttributeError, match="read-only"):
            made.lcms = (1, 1)
    assert a.integers == ((2, 1), (3, -8)) and a.lcms == (2, 4)


def test_an_element_is_read_only_so_no_cached_table_goes_stale():
    # Were basis writable, qimm(a, q) would read the table cached for the
    # M element after q had become the Psi element, which gives 6.
    a = SquareMatrix([[1, 2, 0], [0, 1, 3], [1, 1, 1]])
    q = quasischur((2, 1))
    assert qimm(a, q) == -8
    with pytest.raises(AttributeError, match="QSym is read-only: cannot change 'basis'"):
        q.basis = "Psi"
    for name in ("coeffs", "_hash", "degree"):
        with pytest.raises(AttributeError):
            setattr(q, name, None)
    with pytest.raises(AttributeError):
        del q.coeffs
    assert q.basis == "M" and qimm(a, q) == -8
    assert qimm(a, QSym("Psi", {(2, 1): 1, (1, 1, 1): 1})) == 6
    assert copy.copy(q) == q and hash(copy.copy(q)) == hash(q)


def test_determinant_elimination_leaves_the_stored_integers_alone():
    # The stored rows are tuples, so the elimination swaps and overwrites
    # rows of its own copy; a second call reads the same integers.
    rng = random.Random(2700)
    for n in range(1, 7):
        for a in (_rational_matrix(rng, n), _sparse_matrix(rng, n), SquareMatrix([[0] * n] * n)):
            kept = SquareMatrix(a.rows)
            assert determinant_elimination(a) == determinant(a) == determinant_elimination(a)
            assert all(type(row) is tuple for row in a.integers)
            assert a == kept and a.integers == kept.integers and a.lcms == kept.lcms


def test_matrix_json_round_trip():
    payload = PRIMES.to_json_dict()
    assert payload["n"] == 3
    assert payload["entries"][0] == ["2", "3", "5"]
    assert matrix_from_json_dict(payload) == PRIMES
    with pytest.raises(ValueError):
        matrix_from_json_dict({"n": 3})
    with pytest.raises(ValueError):
        matrix_from_json_dict({"n": 4, "entries": [["1"]]})
    with pytest.raises(ValueError):
        matrix_from_json_dict(None)
    with pytest.raises(ValueError, match="'n' must be an integer"):
        matrix_from_json_dict({"n": "3", "entries": payload["entries"]})
    with pytest.raises(ValueError, match="'n' must be an integer"):
        matrix_from_json_dict({"n": True, "entries": [["1"]]})
    with pytest.raises(ValueError, match="matrix entry True is not an integer or a/b"):
        matrix_from_json_dict({"entries": [[True, False], [False, True]]})
    with pytest.raises(ValueError, match="matrix entry False"):
        SquareMatrix([[False]])


def test_load_matrix_json_and_csv(tmp_path):
    json_path = tmp_path / "a.json"
    json_path.write_text(json.dumps(PRIMES.to_json_dict()))
    assert load_matrix(json_path) == PRIMES

    csv_path = tmp_path / "a.csv"
    csv_path.write_text("1, 1/2\n\n-3, 4\n")
    loaded = load_matrix(csv_path)
    assert loaded == SquareMatrix([[1, Fraction(1, 2)], [-3, 4]])
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3\n")
    with pytest.raises(ValueError):
        load_matrix(bad)


@pytest.mark.parametrize(
    "text, message",
    [
        ("1" * 131_073 + ",1\n1,1\n", r"unreadable CSV: field larger than field limit \(131072\)"),
        ("[" * 100_000 + "]" * 100_000, "matrix JSON is nested too deeply to read"),
        ('{"entries": [[' + "[" * 100_000 + "]" * 100_000 + "]]}", "nested too deeply"),
    ],
    ids=["csv-cell-over-field-limit", "json-array", "json-entry"],
)
def test_files_the_parsers_refuse_raise_value_error(tmp_path, text, message):
    path = tmp_path / "matrix.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        load_matrix(path)


@pytest.mark.parametrize("digits", ["1" * 5000, "-" + "7" * 5000], ids=["positive", "negative"])
def test_an_integer_past_the_digit_limit_is_named_in_every_spelling(tmp_path, digits):
    # A JSON number, a JSON string and a CSV cell reach exact as the same text.
    spellings = {
        "number.json": '{"entries": [[' + digits + ", 1], [1, 1]]}",
        "string.json": json.dumps({"entries": [[digits, 1], [1, 1]]}),
        "cell.csv": digits + ",1\n1,1\n",
    }
    limit = sys.get_int_max_str_digits()
    message = f"matrix entry {re.escape(repr(digits[:12] + '...'))} has more than {limit} digits$"
    for name, text in spellings.items():
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            load_matrix(path)
    (tmp_path / "n.json").write_text('{"n": ' + digits + ', "entries": [[1]]}')
    with pytest.raises(ValueError, match="'n' must be an integer"):
        load_matrix(tmp_path / "n.json")


def test_load_matrix_drops_a_byte_order_mark(tmp_path):
    # Spreadsheet exports often start UTF-8 text with a byte-order mark.
    expected = SquareMatrix([[1, Fraction(1, 2)], [-3, 4]])
    csv_path = tmp_path / "bom.csv"
    csv_path.write_text("1,1/2\n-3,4\n", encoding="utf-8-sig")
    json_path = tmp_path / "bom.json"
    json_path.write_text(json.dumps(expected.to_json_dict()), encoding="utf-8-sig")
    assert csv_path.read_bytes().startswith(b"\xef\xbb\xbf")
    assert load_matrix(csv_path) == load_matrix(json_path) == expected


@pytest.mark.parametrize(
    "entry", ["1e3", "1.5", "1_000", "1/0", "0x10", "nan", "1 / 2", "--1", "1/-2", "/3", "3/", ""]
)
def test_text_entries_outside_the_rule_are_rejected(tmp_path, entry):
    csv_path = tmp_path / "bad.csv"
    csv_path.write_text(f"{entry},1\n1,1\n")
    json_path = tmp_path / "bad.json"
    json_path.write_text(json.dumps({"entries": [[entry, "1"], ["1", "1"]]}))
    for path in (csv_path, json_path):
        with pytest.raises(ValueError, match=f"matrix entry {re.escape(repr(entry))} "):
            load_matrix(path)


@pytest.mark.parametrize(
    "entry",
    [None, [1], 1 + 0j, Decimal("NaN"), Decimal("Infinity")],
    ids=["none", "list", "complex", "nan", "infinity"],
)
def test_non_numeric_entries_are_named(entry):
    message = f"matrix entry {re.escape(repr(entry))} is not an integer or a/b"
    with pytest.raises(ValueError, match=message):
        SquareMatrix([[entry, 1], [1, 1]])
    assert SquareMatrix([[Decimal("0.5")]]) == SquareMatrix([[Fraction(1, 2)]])


@pytest.mark.parametrize(
    "rows",
    [["12", "34"], [b"\x01\x02", b"\x03\x04"], {"ab": 1}, None, [[1, 2], "34"]],
    ids=["text-rows", "bytes-rows", "dict", "none", "one-text-row"],
)
def test_rows_must_be_lists_of_entries(rows):
    message = "matrix must be a list of rows, each a list of entries"
    with pytest.raises(ValueError, match=message):
        SquareMatrix(rows)
    with pytest.raises(ValueError, match=message):
        matrix_from_json_dict({"n": 2, "entries": rows})
    assert SquareMatrix(([1, 2], (3, 4))) == SquareMatrix([[1, 2], [3, 4]])


def test_text_entries_accept_signed_integers_and_ratios(tmp_path):
    expected = SquareMatrix([[-3, 4], [Fraction(1, 2), 1]])
    csv_path = tmp_path / "good.csv"
    csv_path.write_text("-3,+4\n 1/2 ,1\n")
    json_path = tmp_path / "good.json"
    json_path.write_text(json.dumps({"entries": [["-3", "+4"], [" 1/2 ", "1"]]}))
    assert load_matrix(csv_path) == load_matrix(json_path) == expected


def test_weighted_perm_sum_basics():
    table = CoefficientTable(1, "ctype", {(1,): Fraction(3)})
    assert weighted_perm_sum(SquareMatrix([[5]]), table) == 15
    with pytest.raises(ValueError):
        weighted_perm_sum(SquareMatrix([[1, 0], [0, 1]]), table)


@pytest.mark.parametrize("n", range(2, 7))
def test_pruned_sum_matches_unpruned_on_sparse_matrices(n):
    rng = random.Random(900 + n)
    ones = CoefficientTable(n, "ctype", {mu: Fraction(1) for mu in enumerate_partitions(n)})
    sign = CoefficientTable(
        n,
        "ctype",
        {mu: Fraction((-1) ** (n - len(mu))) for mu in enumerate_partitions(n)},
    )
    comp = CoefficientTable(
        n,
        "ccomp",
        {alpha: Fraction(len(alpha)) for alpha in enumerate_compositions(n)},
    )
    for _ in range(4):
        a = _sparse_matrix(rng, n)
        zeros = sum(1 for row in a.rows for e in row if e == 0)
        assert zeros * 2 >= n * n
        for table in (ones, sign, comp):
            assert weighted_perm_sum(a, table) == _unpruned_sum(a, table)


def _rational_matrix(rng, n):
    return SquareMatrix(
        [[Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 7))) for _ in range(n)] for _ in range(n)]
    )


def _oracle_matrices(rng, n):
    """Dense rational (mixed denominators), sparse, a zero row and a zero column."""
    dense = _rational_matrix(rng, n)
    zero_row = [list(row) for row in _rational_matrix(rng, n).rows]
    zero_row[rng.randrange(n)] = [0] * n
    zero_column = [list(row) for row in _rational_matrix(rng, n).rows]
    j = rng.randrange(n)
    for row in zero_column:
        row[j] = 0
    return dense, _sparse_matrix(rng, n), SquareMatrix(zero_row), SquareMatrix(zero_column)


@pytest.mark.parametrize("n", range(1, 8))
def test_class_sum_contraction_matches_unpruned_sum(n):
    # Distinct random weights on the compositions: a walk that recorded the
    # cycles of a permutation in any order but the min-first one would read
    # the wrong weight, which a weight depending only on len(alpha) cannot see.
    rng = random.Random(4100 + n)
    compositions = enumerate_compositions(n)
    weights = rng.sample(range(-10 * len(compositions), 10 * len(compositions)), len(compositions))
    tables = (
        CoefficientTable(n, "ccomp", {alpha: Fraction(w, 3) for alpha, w in zip(compositions, weights)}),
        CoefficientTable(n, "ctype", {mu: Fraction(1) for mu in enumerate_partitions(n)}),
        CoefficientTable(n, "ctype", {mu: Fraction((-1) ** (n - len(mu))) for mu in enumerate_partitions(n)}),
    )
    if n == 7:  # 5040 permutations per oracle sum: the distinct weights alone
        tables = tables[:1]
    for a in _oracle_matrices(rng, n):
        for table in tables:
            assert weighted_perm_sum(a, table) == _unpruned_sum(a, table)


def _mixed_ctype_table(rng, n):
    """Distinct numerators over denominators 1..7, with negatives and one zero."""
    partitions = enumerate_partitions(n)
    numerators = rng.sample(range(-10 * len(partitions), 10 * len(partitions)), len(partitions))
    values = {mu: Fraction(k, rng.randint(1, 7)) for mu, k in zip(partitions, numerators)}
    values[rng.choice(partitions)] = Fraction(0)
    return CoefficientTable(n, "ctype", values, "mixed denominators")


@pytest.mark.parametrize("n", range(1, 7))
def test_mixed_denominator_ctype_weights_match_unpruned_sum(n):
    rng = random.Random(4300 + n)
    table = _mixed_ctype_table(rng, n)
    denominators = {w.denominator for w in table.values.values()}
    assert n < 3 or len(denominators) > 1
    for a in _oracle_matrices(rng, n):
        assert weighted_perm_sum(a, table) == _unpruned_sum(a, table)


@pytest.mark.parametrize("n", range(1, 9))
def test_ctype_table_equals_its_spread_ccomp_table(n):
    # Bucketing the class sums by cycle type before the weights are applied
    # must give what reading the same weight at every composition gives.
    rng = random.Random(4400 + n)
    zero_row = [list(row) for row in _rational_matrix(rng, n).rows]
    zero_row[rng.randrange(n)] = [0] * n
    matrices = (_rational_matrix(rng, n), _banded_matrix(rng, n, 1), SquareMatrix(zero_row))
    ctype = _mixed_ctype_table(rng, n)
    spread = {alpha: ctype(sorted(alpha, reverse=True)) for alpha in enumerate_compositions(n)}
    spread = CoefficientTable(n, "ccomp", spread)
    for a in matrices:
        assert weighted_perm_sum(a, ctype) == weighted_perm_sum(a, spread)


def _walk_class_sums(a):
    """class_sums by walking every permutation with a nonzero product.

    Each row is scaled by the lcm of its denominators, as class_sums does.
    The walk goes cycle by cycle, each new cycle opening at the least index
    not yet covered (the min-first order of combinatorics.cycles), so alpha
    grows as it goes; a dense matrix costs n! leaves.
    """
    n, scale, dense = a.n, 1, []
    for row in a.rows:
        lcm = math.lcm(*(e.denominator for e in row))
        scale *= lcm
        dense.append([int(e * lcm) for e in row])
    nonzero = [[(1 << j, j, v) for j, v in enumerate(ints) if v] for ints in dense]
    full = (1 << n) - 1
    sums = {}
    # Open walks: (row i choosing sigma(i), start of the open cycle, indices
    # covered so far, length of the open cycle, closed cycle lengths, product).
    stack = [(0, 0, 1, 1, (), 1)]
    while stack:
        i, start, covered, length, alpha, prod = stack.pop()
        if covered == full:  # the last index left must close the cycle
            v = dense[i][start]
            if v:
                alpha += (length,)
                sums[alpha] = sums.get(alpha, 0) + prod * v
            continue
        for bit, j, v in nonzero[i]:
            if j == start:
                low = ~covered & (covered + 1)
                nxt = low.bit_length() - 1
                stack.append((nxt, nxt, covered | low, 1, alpha + (length,), prod * v))
            elif not covered & bit:
                stack.append((j, start, covered | bit, length + 1, alpha, prod * v))
    return sums, scale


def _nonzero_sums(result):
    # Either route may keep a class whose terms cancel.
    sums, scale = result
    return {alpha: s for alpha, s in sums.items() if s}, scale


def _banded_matrix(rng, n, width):
    return SquareMatrix(
        [
            [
                Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((1, 2, 3, 5)))
                if abs(i - j) <= width
                else 0
                for j in range(n)
            ]
            for i in range(n)
        ]
    )


def _sparse_40_matrix(rng, n):
    rows = [[rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(n)] for _ in range(n)]
    cells = [(i, j) for i in range(n) for j in range(n)]
    for i, j in rng.sample(cells, k=round(0.4 * n * n)):
        rows[i][j] = 0
    return SquareMatrix(rows)


_ORDER_EIGHT_INPUTS = {
    "dense integer": lambda rng: _random_matrix(rng, 8),
    "dense rational": lambda rng: _rational_matrix(rng, 8),
    "band 1": lambda rng: _banded_matrix(rng, 8, 1),
    "band 2": lambda rng: _banded_matrix(rng, 8, 2),
    "band 3": lambda rng: _banded_matrix(rng, 8, 3),
    "40% sparse": lambda rng: _sparse_40_matrix(rng, 8),
}


@pytest.mark.parametrize("kind", list(_ORDER_EIGHT_INPUTS))
def test_class_sums_match_the_walk_at_order_eight(kind):
    a = _ORDER_EIGHT_INPUTS[kind](random.Random(f"walk {kind}"))
    expected = _nonzero_sums(_walk_class_sums(a))
    assert expected[0]  # every input has permutations with nonzero products
    assert _nonzero_sums(class_sums(a)) == expected


def test_class_sums_of_all_ones_at_order_eleven():
    # The walk would visit 11! = 39.9 million leaves.  Class alpha holds
    # prod_k (r_k - 1)!/(r_k - alpha_k)! permutations, r_k = n - alpha_1 - ...
    # - alpha_(k-1): the k-th cycle opens at the least index left and picks
    # its other alpha_k - 1 indices, in order, from the r_k - 1 others.
    n = 11
    expected = {}
    for alpha in enumerate_compositions(n):
        count, left = 1, n
        for part in alpha:
            count *= math.factorial(left - 1) // math.factorial(left - part)
            left -= part
        expected[alpha] = count
    assert sum(expected.values()) == math.factorial(n)
    assert class_sums(SquareMatrix([[1] * n] * n)) == (expected, 1)


def test_tridiagonal_order_24_costs_no_2_to_the_n():
    # The 75 025 permutations with a nonzero product are the compositions of
    # 24 into 1s and 2s, one per class.  The DP reaches only the n + 1 prefix
    # sets, so a pass over all 2^24 of them would show as a slow test.
    a = _banded_matrix(random.Random(24), 24, 1)
    walked = _walk_class_sums(a)
    assert len(walked[0]) == 75025
    assert class_sums(a) == walked
    assert determinant(a) == determinant_elimination(a)


def test_tridiagonal_order_20_against_closed_forms():
    # 10 946 classes, one permutation each.  The permanent of a tridiagonal
    # matrix is the continuant p_k = d_k p_(k-1) + b_(k-1) c_(k-1) p_(k-2)
    # (b above the diagonal, c below), computed here from the entries alone.
    rng = random.Random(20)
    n = 20

    def entries(count):
        return [
            Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((1, 2, 3, 5, 7)))
            for _ in range(count)
        ]

    d, b, c = entries(n), entries(n - 1), entries(n - 1)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for k in range(n):
        rows[k][k] = d[k]
    for k in range(n - 1):
        rows[k][k + 1], rows[k + 1][k] = b[k], c[k]
    before, p = Fraction(1), d[0]
    for k in range(1, n):
        before, p = p, d[k] * p + b[k - 1] * c[k - 1] * before
    a = SquareMatrix(rows)
    assert len(class_sums(a)[0]) == 10946
    assert permanent(a) == p
    assert determinant(a) == determinant_elimination(a)


@pytest.mark.parametrize("n", range(1, 8))
def test_class_sums_of_all_ones_count_each_class(n):
    counts = Counter(cycle_composition(sigma) for sigma in enumerate_permutations(n))
    assert class_sums(SquareMatrix([[1] * n] * n)) == (dict(counts), 1)


def test_class_sums_scale_rows_to_integers():
    a = SquareMatrix([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 4), 0]])
    sums, scale = class_sums(a)
    assert scale == 6 * 4
    assert {alpha: Fraction(s, scale) for alpha, s in sums.items()} == {(2,): Fraction(1, 4)}
    assert class_sums(SquareMatrix([[0, 0], [0, 0]])) == ({}, 1)


def test_permanent_and_determinant_values():
    a = SquareMatrix([[1, 2], [3, 4]])
    assert determinant(a) == -2
    assert permanent(a) == 10
    assert determinant(PRIMES) == -78
    assert permanent(PRIMES) == 3746
    eye = SquareMatrix.identity(4)
    assert determinant(eye) == 1 and permanent(eye) == 1


@pytest.mark.parametrize("n", range(1, 7))
def test_elimination_determinant_agrees(n):
    rng = random.Random(7000 + n)
    for _ in range(5):
        a = _random_matrix(rng, n)
        assert determinant_elimination(a) == determinant(a)
    # rational entries exercise the row-scaling path
    b = SquareMatrix(
        [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
    )
    assert determinant_elimination(b) == determinant(b)


def test_elimination_pivot_handling():
    swap_needed = SquareMatrix([[0, 1], [1, 0]])
    assert determinant_elimination(swap_needed) == -1
    singular = SquareMatrix([[0, 1, 2], [0, 3, 4], [0, 5, 6]])
    assert determinant_elimination(singular) == 0
    repeated = SquareMatrix([[1, 2, 3], [1, 2, 3], [4, 5, 6]])
    assert determinant_elimination(repeated) == 0


@pytest.mark.parametrize("n", range(1, 6))
def test_immanant_extremes(n):
    rng = random.Random(31 + n)
    ones = CoefficientTable(n, "ctype", {mu: 1 for mu in enumerate_partitions(n)})
    for _ in range(3):
        a = _random_matrix(rng, n)
        assert immanant(a, (1,) * n) == determinant(a) == determinant_elimination(a)
        assert immanant(a, (n,)) == permanent(a) == _unpruned_sum(a, ones)


@pytest.mark.parametrize("n", range(1, 9))
def test_permanent_and_determinant_read_the_trivial_and_sign_characters(n, monkeypatch):
    read = []
    contract = engine.weighted_perm_sum
    monkeypatch.setattr(engine, "weighted_perm_sum", lambda a, t: read.append(t) or contract(a, t))
    permanent(SquareMatrix.identity(n))
    determinant(SquareMatrix.identity(n))
    classes = enumerate_partitions(n)
    trivial, sign = {mu: 1 for mu in classes}, {mu: (-1) ** (n - len(mu)) for mu in classes}
    assert [(t.degree, t.key, dict(t.numerators), t.den) for t in read] == [
        (n, "ctype", trivial, 1),
        (n, "ctype", sign, 1),
    ]


@pytest.mark.parametrize("n", range(1, 7))
def test_permanent_and_determinant_share_the_immanant_tables(n):
    a = _random_matrix(random.Random(40 + n), n)
    for fn, shape in ((permanent, (n,)), (determinant, (1,) * n)):
        qimm_coefficient_table.cache_clear()
        assert fn(a) == immanant(a, shape)
        info = qimm_coefficient_table.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)


def test_immanant_shape_validation():
    with pytest.raises(ValueError):
        immanant(PRIMES, (2, 2))
    with pytest.raises(ValueError):
        immanant(PRIMES, (1, 2))


def test_second_immanant_values():
    assert second_immanant(PRIMES) == -316
    assert second_immanant(ONES3) == 0
    for n in range(2, 6):
        assert second_immanant(SquareMatrix.identity(n)) == n - 1
    assert second_immanant(_toeplitz(4)) == -1
    assert second_immanant(_toeplitz(5)) == 0
    with pytest.raises(ValueError):
        second_immanant(SquareMatrix([[7]]))


def test_second_immanant_3x3_class_values():
    # weights by conjugacy class: identity 2, transpositions 0, 3-cycles -1
    perm_matrices = {
        sigma: SquareMatrix(
            [[1 if sigma[i] == j + 1 else 0 for j in range(3)] for i in range(3)]
        )
        for sigma in enumerate_permutations(3)
    }
    expected = {
        (1, 2, 3): 2,
        (1, 3, 2): 0,
        (2, 1, 3): 0,
        (3, 2, 1): 0,
        (2, 3, 1): -1,
        (3, 1, 2): -1,
    }
    got = {sigma: second_immanant(m) for sigma, m in perm_matrices.items()}
    assert got == expected


def test_elementary_and_monomial_immanants_degree_two():
    a = SquareMatrix([[1, 2], [3, 4]])
    assert elementary_immanant(a, (2,)) == determinant(a)
    assert elementary_immanant(a, (1, 1)) == 2 * a.entry(1, 1) * a.entry(2, 2)
    assert monomial_immanant(a, (1, 1)) == determinant(a)
    assert monomial_immanant(a, (2,)) == 2 * a.entry(1, 2) * a.entry(2, 1)
    with pytest.raises(ValueError):
        elementary_immanant(a, (3,))
    with pytest.raises(ValueError):
        monomial_immanant(a, (1, 1, 1))


def test_qimm_worked_values():
    hook = quasischur((2, 1))
    assert qimm(PRIMES, hook) == 3278
    assert qimm(ONES3, hook) == 4
    assert second_immanant(PRIMES) == -316  # the two functionals genuinely differ
    assert qimm(_toeplitz(4), quasischur((2, 1, 1))) == -3


def test_qimm_symmetric_branch_reduces_to_immanants():
    rng = random.Random(5150)
    for n in (2, 3, 4):
        for lam in enumerate_partitions(n):
            a = _random_matrix(rng, n)
            assert qimm(a, schur_sym(lam)) == immanant(a, lam)
            assert qimm(a, elementary_sym(lam), "Phi") == elementary_immanant(a, lam)
            assert qimm(a, monomial_sym(lam), "Phi") == monomial_immanant(a, lam)
        a = _random_matrix(rng, n)
        assert qimm(a, homogeneous_sym((n,))) == permanent(a)
        assert qimm(a, elementary_sym((n,))) == determinant(a)


@pytest.mark.parametrize("n", range(2, 6))
def test_elementary_and_monomial_immanants_match_per_class_families(n):
    # Independent route: weights counted from the p-to-m transition matrix,
    # which shares no code with the engine, summed over every permutation
    # without pruning.
    rng = random.Random(2600 + n)
    matrices = (_random_matrix(rng, n), _sparse_matrix(rng, n))
    classes = enumerate_partitions(n)
    for lam in classes:
        eps = CoefficientTable(n, "ctype", {mu: e_weight(lam, mu) for mu in classes})
        phi = CoefficientTable(n, "ctype", {mu: m_weight(lam, mu) for mu in classes})
        for a in matrices:
            assert elementary_immanant(a, lam) == _unpruned_sum(a, eps)
            assert monomial_immanant(a, lam) == _unpruned_sum(a, phi)


def test_element_table_cache_is_bounded():
    # Element tables and named weight vectors share the one bounded cache.
    info = qimm_coefficient_table.cache_info()
    assert info.maxsize is not None and info.maxsize > 0
    rng = random.Random(128)
    for k in range(1, info.maxsize + 6):
        qimm_coefficient_table(QSym("M", {(1, 1): k, (2,): 1}))
        a = _random_matrix(rng, 2 + k % 5)
        named = (permanent, determinant, second_immanant, qimm_hook_fast) if a.n > 2 else ()
        for fn in named:
            fn(a)
        cut = k % a.n
        elementary_immanant(a, sorted((a.n - cut, cut), reverse=True) if cut else (a.n,))
        assert qimm_coefficient_table.cache_info().currsize <= info.maxsize
    assert qimm_coefficient_table.cache_info().currsize == info.maxsize
    qimm_coefficient_table.cache_clear()
    assert qimm_coefficient_table.cache_info().currsize == 0


_NAMED_WEIGHTS = {
    "permanent": permanent,
    "determinant": determinant,
    "immanant": lambda a: immanant(a, (3, 1)),
    "second_immanant": second_immanant,
    "elementary_immanant": lambda a: elementary_immanant(a, (2, 2)),
    "monomial_immanant": lambda a: monomial_immanant(a, (2, 1, 1)),
    "qimm_hook_fast": qimm_hook_fast,
}


@pytest.mark.parametrize("name", _NAMED_WEIGHTS)
def test_named_weights_are_built_once_per_order(name):
    fn = _NAMED_WEIGHTS[name]
    rng = random.Random(4)
    first, second = _random_matrix(rng, 4), _sparse_matrix(rng, 4)
    qimm_coefficient_table.cache_clear()
    fn(first)
    built = qimm_coefficient_table.cache_info()
    assert built.misses >= 1 and built.currsize >= 1
    fn(second)
    again = qimm_coefficient_table.cache_info()
    assert (again.hits, again.misses, again.currsize) == (built.hits + 1, built.misses, built.currsize)


def test_symmetric_builders_run_once_per_shape(monkeypatch):
    calls = []
    for name in ("induced_sign_character", "monomial_sym"):
        builder = getattr(engine, name)
        monkeypatch.setattr(engine, name, lambda lam, b=builder: calls.append(b.__name__) or b(lam))
    qimm_coefficient_table.cache_clear()
    rng = random.Random(5)
    for _ in range(3):
        a = _random_matrix(rng, 4)
        elementary_immanant(a, (2, 1, 1))
        monomial_immanant(a, [3, 1])
        monomial_immanant(a, (3, 1))
    assert calls == ["induced_sign_character", "monomial_sym"]


def test_immanant_shape_spellings_share_one_table():
    qimm_coefficient_table.cache_clear()
    a = _random_matrix(random.Random(21), 3)
    assert immanant(a, [2, 1]) == immanant(a, (2, 1)) == _unpruned_sum(
        a, character_class_function((2, 1))
    )
    info = qimm_coefficient_table.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    with pytest.raises(ValueError, match="weakly decreasing"):
        immanant(a, [1, 2])


@pytest.mark.parametrize("fn", [immanant, elementary_immanant, monomial_immanant])
def test_a_shape_of_the_wrong_order_builds_no_table(fn):
    # The table for (30,) lists all p(30) = 5604 classes; the order check must come first.
    before = qimm_coefficient_table.cache_info()
    with pytest.raises(ValueError) as refused:
        fn(SquareMatrix.identity(2), (30,))
    assert str(refused.value) == "table degree 30 does not match matrix dimension 2"
    assert qimm_coefficient_table.cache_info().misses == before.misses


@pytest.mark.parametrize("n", range(3, 11))
def test_hook_table_matches_the_per_class_rule(n):
    table = engine._weights(engine._hook_table, n)
    assert (table.degree, table.key) == (n, "ccomp")
    assert table.values == {alpha: hook_qimm_coefficient(alpha) for alpha in enumerate_compositions(n)}


def test_symmetric_element_spellings_share_one_table(monkeypatch):
    e = elementary_sym((2, 2))
    a = _random_matrix(random.Random(22), 4)
    conversions, readings = [], []
    convert, read = engine.power_numerators, engine.p_weights
    monkeypatch.setattr(
        engine, "power_numerators", lambda q, target: conversions.append(target) or convert(q, target)
    )
    monkeypatch.setattr(engine, "p_weights", lambda q: readings.append(q) or read(q))
    qimm_coefficient_table.cache_clear()
    assert qimm(a, e) == qimm(a, e, "Phi")
    table = qimm_coefficient_table(e)
    assert table.key == "ctype"
    assert qimm_coefficient_table(e, "Psi") is table
    assert qimm_coefficient_table(e, "Phi") is table
    assert readings == [e]
    assert conversions == []


@pytest.mark.parametrize("n", range(2, 5))
def test_qimm_determinant_reduction(n):
    rng = random.Random(61 + n)
    column = quasischur((1,) * n)
    for _ in range(3):
        a = _random_matrix(rng, n)
        assert qimm(a, column) == determinant_elimination(a)


def test_composition_keyed_table_recipe():
    # The README recipe for a composition-keyed table of any element, here a
    # symmetric one, which qimm itself keys by cycle type.
    e3, n, variant = elementary_sym((3,)), 3, "Psi"
    coords = to_coords(e3, variant).coeffs
    values = {alpha: math.factorial(n) * coords.get(alpha, 0) for alpha in enumerate_compositions(n)}
    table = CoefficientTable(n, "ccomp", values)
    assert qimm(ONES3, e3) == 0
    assert weighted_perm_sum(ONES3, table) == -4


def test_qimm_linearity_on_non_symmetric_elements():
    rng = random.Random(444)
    x, y = Fraction(2, 3), Fraction(-5, 7)
    for n in (3, 4):
        q1 = quasischur((2,) + (1,) * (n - 2))
        q2 = QSym("M", {tuple([1] * (n - 2) + [2]): 1})
        combined = x * q1 + y * q2
        # Each is read by the composition-keyed functional.
        assert not any(map(is_symmetric, (q1, q2, combined)))
        for _ in range(3):
            a = _random_matrix(rng, n)
            assert qimm(a, combined) == x * qimm(a, q1) + y * qimm(a, q2)


def _class_size_weighted_permanent(a):
    """Sum over sigma of n!/z_mu times a[1,sigma(1)] ... a[n,sigma(n)], mu sigma's cycle type."""
    total = Fraction(0)
    for sigma in enumerate_permutations(a.n):
        term = Fraction(math.factorial(a.n), z_of(cycle_type(sigma)))
        for i, j in enumerate(sigma, start=1):
            term *= a.entry(i, j)
        total += term
    return total


@pytest.mark.parametrize("n", range(3, 7))
def test_qimm_is_linear_on_each_side_of_the_symmetric_split(n):
    # h_n is symmetric, so qimm reads it by cycle type: the permanent.  Moved
    # off Sym by t M[2,1^(n-2)], however small t, the element is read by
    # cycle composition, where h_n weighs sigma by n! [Psi_alpha] h_n = n!/z_mu.
    rng = random.Random(2630 + n)
    a = _small_rational_matrix(rng, n)
    h, m = homogeneous_sym((n,)), QSym.basis_element("M", (2,) + (1,) * (n - 2))
    walked = _class_size_weighted_permanent(a)
    assert qimm(a, h) == permanent(a)
    for t in (Fraction(1), Fraction(1, 10**9)):
        assert not is_symmetric(h + t * m)
        assert qimm(a, h + t * m) == walked + t * qimm(a, m)


def test_qimm_jumps_at_h_3():
    a = SquareMatrix([[1, 2, 0], [0, 1, 3], [1, 1, 1]])
    h, m = homogeneous_sym((3,)), QSym.basis_element("M", (2, 1))
    assert qimm(a, h) == 10 == permanent(a)
    assert _class_size_weighted_permanent(a) == 22 and qimm(a, m) == -12
    assert qimm(a, h + Fraction(1, 10**9) * m) == 22 - Fraction(12, 10**9)


def test_quasischur_is_symmetric_exactly_at_rectangles():
    # So qimm(a, qs_(k^m)) takes the cycle-type reading, and every other shape
    # the cycle-composition one.
    rectangles = []
    for n in range(1, 11):
        for alpha in enumerate_compositions(n):
            q = quasischur(alpha)
            if is_symmetric(q):
                assert q == schur_sym(alpha)
                rectangles.append(alpha)
    expected = [(k,) * (n // k) for n in range(1, 11) for k in range(n, 0, -1) if n % k == 0]
    assert rectangles == expected
    assert len(rectangles) == 27


@pytest.mark.parametrize("n", range(3, 8))
def test_rearranged_hook_quasi_immanants_sum_to_class_size_weighted_characters(n):
    # Not second_immanant(a): each qs_(1^k,2,1^(n-2-k)) is read by cycle
    # composition, so the sum over k weighs each class sum S_beta by n!/z_beta
    # times chi^(2,1^(n-2))(beta).
    rng = random.Random(2640 + n)
    hook = (2,) + (1,) * (n - 2)
    for a in (_small_rational_matrix(rng, n), _sparse_matrix(rng, n)):
        total = sum(qimm(a, quasischur((1,) * k + (2,) + (1,) * (n - 2 - k))) for k in range(n - 1))
        sums, scale = class_sums(a)
        expected = sum(
            Fraction(math.factorial(n) * s, z_of_composition(beta) * scale)
            * irreducible_character(hook, sort_composition(beta))
            for beta, s in sums.items()
        )
        assert total == expected


def test_qimm_argument_validation():
    assert qimm(PRIMES, QSym.zero("M")) == 0
    with pytest.raises(ValueError):
        qimm(PRIMES, QSym("M", {(2,): 1, (2, 1): 1}))
    with pytest.raises(ValueError):
        qimm(PRIMES, QSym.basis_element("M", (4,)))
    with pytest.raises(ValueError):
        qimm(PRIMES, quasischur((2, 1)), variant="psi")
    with pytest.raises(TypeError):
        qimm(PRIMES, quasischur((2, 1)), branch="ccomp")
    with pytest.raises(TypeError):
        qimm_coefficient_table(quasischur((2, 1)), branch="ccomp")


@pytest.mark.parametrize("variant", ["bogus", "psi", None])
def test_qimm_checks_the_variant_of_a_zero_element(variant):
    for q in (QSym.zero("M"), QSym.zero("Psi"), quasischur((2, 1))):
        with pytest.raises(ValueError, match="unknown power-sum variant"):
            qimm(PRIMES, q, variant)
    assert qimm(PRIMES, QSym.zero("Phi"), "Phi") == 0


@pytest.mark.parametrize("n", range(1, 7))
def test_elementary_immanant_matches_the_element_route(n):
    # The induced sign character on one side, e_lam's quasi-shuffle product
    # read back into p on the other, on matrices with rational entries.
    rng = random.Random(7100 + n)
    for lam in enumerate_partitions(n):
        for a in (_small_rational_matrix(rng, n), _sparse_matrix(rng, n)):
            assert elementary_immanant(a, lam) == qimm(a, elementary_sym(lam))


def _small_rational_matrix(rng, n):
    return SquareMatrix(
        [[Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(n)] for _ in range(n)]
    )


def test_hook_coefficient_values():
    assert hook_qimm_coefficient((1, 1, 1)) == 1
    assert hook_qimm_coefficient((1, 2)) == -3
    assert hook_qimm_coefficient((2, 1)) == 3
    assert hook_qimm_coefficient((3,)) == 0
    assert hook_qimm_coefficient((1, 1, 2)) == -6
    assert hook_qimm_coefficient((2, 1, 1)) == 6
    assert hook_qimm_coefficient((1, 3)) == 8
    assert hook_qimm_coefficient((2, 2)) == -3
    assert hook_qimm_coefficient((3, 1)) == 0
    assert hook_qimm_coefficient((4,)) == 0
    with pytest.raises(ValueError):
        hook_qimm_coefficient((2,))
    with pytest.raises(ValueError):
        hook_qimm_coefficient((1, 1))


@pytest.mark.parametrize("n", range(3, 6))
def test_hook_fast_agrees_with_generic_path(n):
    rng = random.Random(12 + n)
    hook = quasischur((2,) + (1,) * (n - 2))
    for _ in range(3):
        a = _random_matrix(rng, n)
        assert qimm_hook_fast(a) == qimm(a, hook)


# The matrix functions at orders 1 and 2 as (weight of the identity, weight of
# the transposition); at order 1 every one of them is the single entry.
_ORDER_TWO_WEIGHTS = {
    "permanent": (lambda a, n: permanent(a), (1, 1)),
    "determinant": (lambda a, n: determinant(a), (1, -1)),
    "immanant row": (lambda a, n: immanant(a, (n,)), (1, 1)),
    "immanant column": (lambda a, n: immanant(a, (1,) * n), (1, -1)),
    "elementary row": (lambda a, n: elementary_immanant(a, (n,)), (1, -1)),
    "elementary column": (lambda a, n: elementary_immanant(a, (1,) * n), (2, 0)),
    "monomial row": (lambda a, n: monomial_immanant(a, (n,)), (0, 2)),
    "monomial column": (lambda a, n: monomial_immanant(a, (1,) * n), (1, -1)),
}
for _variant in ("Psi", "Phi"):
    _ORDER_TWO_WEIGHTS[f"qimm M[n] {_variant}"] = (
        lambda a, n, v=_variant: qimm(a, QSym.basis_element("M", (n,)), v),
        (0, 2),
    )
    _ORDER_TWO_WEIGHTS[f"qimm M[1^n] {_variant}"] = (
        lambda a, n, v=_variant: qimm(a, QSym.basis_element("M", (1,) * n), v),
        (1, -1),
    )


@pytest.mark.parametrize("n", [1, 2])
def test_matrix_functions_at_orders_one_and_two(n):
    rng = random.Random(12 + n)
    rational = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)] for _ in range(n)]
    for a in (_random_matrix(rng, n), SquareMatrix(rational), SquareMatrix.identity(n)):
        if n == 1:
            expected = {name: a.entry(1, 1) for name in _ORDER_TWO_WEIGHTS}
        else:
            diagonal, swap = a.entry(1, 1) * a.entry(2, 2), a.entry(1, 2) * a.entry(2, 1)
            expected = {name: w * diagonal + t * swap for name, (_, (w, t)) in _ORDER_TWO_WEIGHTS.items()}
        got = {name: fn(a, n) for name, (fn, _) in _ORDER_TWO_WEIGHTS.items()}
        assert got == expected
        assert determinant(a) == determinant_elimination(a)
        if n == 1:
            with pytest.raises(ValueError):
                second_immanant(a)
        else:
            assert second_immanant(a) == permanent(a)
        with pytest.raises(ValueError):
            qimm_hook_fast(a)


def test_hook_fast_validation():
    with pytest.raises(ValueError):
        qimm_hook_fast(SquareMatrix([[1, 2], [3, 4]]))


def test_cached_tables_and_elements_are_read_only():
    a = SquareMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    perm, q = permanent(a), quasischur((2, 1))
    value = qimm(a, q)
    table = engine._weights(engine.character_class_function, (3,))
    ones = CoefficientTable(3, "ctype", {(3,): 1, (2, 1): 1, (1, 1, 1): 1})
    with pytest.raises(TypeError):
        table.numerators[(3,)] = 100
    with pytest.raises(TypeError):
        qimm_coefficient_table(q).numerators[(1, 2)] = 100
    with pytest.raises(TypeError):
        q.coeffs[(3,)] = 7
    assert table.numerators[(3,)] == 1 and q == quasischur((2, 1)) == QSym("M", q.coeffs)
    assert permanent(a) == perm == _unpruned_sum(a, ones)
    fresh = engine._element_table(quasischur((2, 1)), "Psi")  # built outside the cache
    assert qimm(a, q) == value == _unpruned_sum(a, fresh)
