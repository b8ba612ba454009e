import copy
import math
import pickle
import sys
import time
from decimal import Decimal
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import given, strategies as st

from quasimm import (
    CoefficientTable,
    QSym,
    SquareMatrix,
    c_sigma,
    character_class_function,
    chi2,
    fixed_points,
    qimm,
    qimm_coefficient_table,
    quasischur,
    sign,
)
from quasimm.combinatorics import (
    PERMUTATION_LIMIT,
    as_composition,
    as_partition,
    as_permutation,
    compositions,
    count_perms_with_ctype,
    cycle_composition,
    cycle_type,
    cycles,
    dominance_key,
    enumerate_compositions,
    enumerate_partitions,
    enumerate_permutations,
    format_parts,
    mask_composition,
    named,
    one_of,
    parse_parts,
    sort_composition,
    z_of,
    z_of_composition,
)
from quasimm.qsym import BASES, VARIANTS, power_numerators, to_coords
from oracles import (
    coarsenings,
    descent_set,
    dominance_order,
    ell_stat,
    lp_stat,
    refines,
    split_blocks,
    weighted_coarsenings,
)


def test_validators():
    assert as_composition([2, 1]) == (2, 1)
    assert as_partition((3, 1, 1)) == (3, 1, 1)
    assert as_permutation([2, 1, 3]) == (2, 1, 3)
    with pytest.raises(ValueError):
        as_composition((2, 0))
    with pytest.raises(ValueError):
        as_partition((1, 2))
    with pytest.raises(ValueError):
        as_permutation((1, 1, 3))


def test_sort_composition():
    assert sort_composition((1, 2)) == (2, 1)
    assert sort_composition(()) == ()
    assert sort_composition((2, 4, 1)) == (4, 2, 1)


def test_descent_set():
    assert descent_set((2, 1)) == {2}
    assert descent_set((1, 1, 1)) == {1, 2}
    assert descent_set((2, 4, 1)) == {2, 6}
    assert descent_set((3,)) == set()
    assert descent_set(()) == set()


@pytest.mark.parametrize("n", range(0, 7))
def test_mask_composition_has_the_mask_as_descent_set(n):
    assert mask_composition(4, 0b101) == (1, 2, 1)
    for mask in range(1 << max(n - 1, 0)):
        alpha = mask_composition(n, mask)
        assert sum(alpha) == n
        assert descent_set(alpha) == {i for i in range(1, n) if mask >> (i - 1) & 1}


def test_refines():
    assert refines((1, 1, 1), (2, 1))
    assert not refines((1, 2), (2, 1))
    assert refines((3, 1), (3, 1))
    with pytest.raises(ValueError):
        refines((1, 1), (3,))


def test_split_blocks():
    assert split_blocks((2, 1, 1), (2, 2)) == ((2,), (1, 1))
    assert split_blocks((1, 1, 1, 1), (4,)) == ((1, 1, 1, 1),)
    assert split_blocks((3, 2), (3, 2)) == ((3,), (2,))
    with pytest.raises(ValueError):
        split_blocks((1, 2), (2, 1))


def test_block_statistics():
    assert ell_stat((2, 1, 1), (2, 2)) == 2
    assert ell_stat((3, 2), (3, 2)) == 1
    assert ell_stat((1, 1, 1), (3,)) == 3
    assert lp_stat((2, 1, 1), (2, 2)) == 2
    assert lp_stat((2, 1, 1, 1), (2, 3)) == 2
    assert lp_stat((1, 1, 1, 1), (2, 2)) == 1


def test_z_of():
    assert z_of((1, 1, 1)) == 6
    assert z_of((2, 1)) == 2
    assert z_of((4, 2, 1)) == 8
    assert z_of(()) == 1
    assert z_of_composition((1, 2)) == 2
    assert z_of_composition((2, 4, 1)) == 8
    assert z_of_composition(()) == 1


def test_cycle_statistics_worked_example():
    sigma = (2, 1, 5, 4, 6, 7, 3)
    assert cycles(sigma) == ((1, 2), (3, 5, 6, 7), (4,))
    assert cycle_composition(sigma) == (2, 4, 1)
    assert cycle_type(sigma) == (4, 2, 1)


_PERMUTATION_READERS = [cycles, cycle_type, cycle_composition, sign, fixed_points, chi2, c_sigma]


@pytest.mark.parametrize("read", _PERMUTATION_READERS, ids=lambda read: read.__name__)
@pytest.mark.parametrize(
    "sigma",
    [("a", 1), (True, 2), (1.0, 2), (1, 1, 1), (3, 3, 3), (2, 2), (7, 7), (0, 1), (5,)],
    ids=["text", "bool", "float", "ones", "threes", "twos", "sevens", "zero", "five"],
)
def test_every_permutation_reader_refuses_what_is_not_a_permutation(read, sigma):
    """Each reader takes sigma through as_permutation: no bare TypeError, and no answer.

    chi2 refuses order 1 by its own rule first.
    """
    if read is chi2 and len(sigma) < 2:
        with pytest.raises(ValueError, match="^chi2 needs a permutation of order at least 2$"):
            read(sigma)
        return
    with pytest.raises(ValueError) as refused:
        read(sigma)
    assert str(refused.value) == f"not a permutation of 1..{len(sigma)}: {sigma!r}"


def test_cycle_statistics_small():
    assert cycle_composition((1, 2, 3)) == (1, 1, 1)
    assert cycle_composition((1, 3, 2)) == (1, 2)
    assert cycle_type((3, 1, 2)) == (3,)
    assert cycle_type(()) == ()


def test_count_perms_with_ctype():
    assert count_perms_with_ctype((2, 1)) == 3
    assert count_perms_with_ctype((1, 1, 1)) == 1
    assert count_perms_with_ctype((2, 2)) == 3
    # brute-force cross-check on S_4
    from collections import Counter

    counts = Counter(cycle_type(sigma) for sigma in enumerate_permutations(4))
    for lam in enumerate_partitions(4):
        assert counts[lam] == count_perms_with_ctype(lam)


@pytest.mark.parametrize("n", range(1, 9))
def test_class_sizes_sum_to_factorial(n):
    assert sum(count_perms_with_ctype(lam) for lam in enumerate_partitions(n)) == math.factorial(n)


def test_dominance_order():
    assert dominance_order((2, 1), (1, 1, 1)) == 1
    assert dominance_order((2, 1), (1, 2)) == 1
    assert dominance_order((3,), (3,)) == 0
    assert dominance_order((1, 2), (2, 1)) == -1
    with pytest.raises(ValueError):
        dominance_order((2,), (1, 1, 1))


@pytest.mark.parametrize("n", range(0, 7))
def test_dominance_is_a_total_order(n):
    comps = enumerate_compositions(n)
    keys = [dominance_key(a) for a in comps]
    # distinct keys give antisymmetry and totality; sorted() transitivity
    # makes the comparison transitive
    assert len(set(keys)) == len(keys)
    for a in comps:
        for b in comps:
            assert dominance_order(a, b) == -dominance_order(b, a)


def test_enumerations():
    assert enumerate_compositions(3) == [(3,), (2, 1), (1, 2), (1, 1, 1)]
    assert enumerate_compositions(0) == [()]
    assert len(enumerate_compositions(6)) == 32
    assert len(enumerate_partitions(4)) == 5
    assert enumerate_partitions(0) == [()]
    assert len(enumerate_permutations(3)) == 6
    assert enumerate_permutations(0) == [()]


@pytest.mark.parametrize("enumerate_", [compositions, enumerate_partitions, enumerate_permutations])
def test_enumerations_refuse_a_negative_order(enumerate_):
    with pytest.raises(ValueError, match="^order must be nonnegative$"):
        enumerate_(-1)


def test_permutations_past_the_limit_are_refused_before_any_is_built():
    assert PERMUTATION_LIMIT == 10
    start = time.perf_counter()
    with pytest.raises(ValueError, match="permutations stop at order 10, so 11 is too large"):
        enumerate_permutations(PERMUTATION_LIMIT + 1)
    assert time.perf_counter() - start < 0.1  # 11! tuples would take minutes


def _recursive_partitions(remaining, cap):
    """Partitions of remaining with parts at most cap, largest first part first."""
    if remaining == 0:
        yield ()
        return
    for first in range(min(remaining, cap), 0, -1):
        for rest in _recursive_partitions(remaining - first, first):
            yield (first,) + rest


@pytest.mark.parametrize("n", range(0, 16))
def test_partition_enumeration_matches_recursive_oracle(n):
    assert enumerate_partitions(n) == list(_recursive_partitions(n, n))


@pytest.mark.parametrize("n", range(1, 7))
def test_composition_enumeration_is_dominance_descending(n):
    comps = enumerate_compositions(n)
    keys = [dominance_key(a) for a in comps]
    assert keys == sorted(keys, reverse=True)
    assert len(set(comps)) == len(comps) == 2 ** (n - 1)


@pytest.mark.parametrize("n", range(1, 9))
def test_coarsening_count(n):
    comps = enumerate_compositions(n)
    for beta in comps:
        coarse = coarsenings(beta)
        assert len(coarse) == len(set(coarse)) == 2 ** (len(beta) - 1)
        assert set(coarse) == {alpha for alpha in comps if refines(beta, alpha)}


@pytest.mark.parametrize("n", range(0, 9))
def test_partition_coarsenings_are_the_weakly_decreasing_ones(n):
    def weight(block):  # distinct per block, so a wrong product shows
        return sum(block) * 7 + len(block) * 3 + block[-1]

    for beta in enumerate_compositions(n):
        every = weighted_coarsenings(beta, weight)
        kept = weighted_coarsenings(beta, weight, partitions=True)
        assert kept == [(alpha, w) for alpha, w in every if sort_composition(alpha) == alpha]


@pytest.mark.parametrize("n", range(1, 8))
def test_blocks_reassemble(n):
    for beta in enumerate_compositions(n):
        for alpha in coarsenings(beta):
            blocks = split_blocks(beta, alpha)
            assert sum(blocks, ()) == beta
            assert tuple(sum(b) for b in blocks) == alpha


@pytest.mark.parametrize("n", range(0, 8))
def test_ctype_is_sorted_ccomp(n):
    for sigma in enumerate_permutations(n):
        assert cycle_type(sigma) == sort_composition(cycle_composition(sigma))


def test_min_first_cycles_are_lex_sorted():
    # ordering cycles by minimum equals lexicographic order of the
    # min-first cycle sequences, since supports are disjoint
    for sigma in enumerate_permutations(6):
        cycs = cycles(sigma)
        assert list(cycs) == sorted(cycs)
        assert all(c[0] == min(c) for c in cycs)


@given(st.permutations(list(range(1, 8))))
def test_cycles_partition_the_ground_set(images):
    sigma = tuple(images)
    cycs = cycles(sigma)
    elements = [x for c in cycs for x in c]
    assert sorted(elements) == list(range(1, 8))
    for c in cycs:
        for pos, x in enumerate(c):
            assert sigma[x - 1] == c[(pos + 1) % len(c)]


@given(st.lists(st.integers(min_value=1, max_value=5), max_size=6))
def test_parse_format_round_trip(parts):
    alpha = tuple(parts)
    assert parse_parts(format_parts(alpha)) == alpha


def test_parse_parts_rejects_garbage():
    with pytest.raises(ValueError):
        parse_parts("2,x")
    with pytest.raises(ValueError):
        parse_parts("2,,1")
    with pytest.raises(ValueError):
        parse_parts("0,1")
    assert parse_parts("") == ()
    assert parse_parts(" 2,1 ") == (2, 1)


# Each door by which a caller hands the package a number, read back as the Fraction it stored.
_DOORS = {
    "matrix entry": lambda v: SquareMatrix([[v]]).entry(1, 1),
    "coefficient": lambda v: QSym("M", {(1,): v}).coefficient((1,)),
    "scalar": lambda v: (QSym.unit() * v).coefficient(()),
    "weight": lambda v: CoefficientTable(1, "ctype", {(1,): v})((1,)),
}


@pytest.mark.parametrize(
    "value, expected",
    [
        (3, Fraction(3)),
        (Fraction(1, 3), Fraction(1, 3)),
        (Decimal("0.5"), Fraction(1, 2)),
        ("1/2", Fraction(1, 2)),
        (" -3 ", Fraction(-3)),
        ("0.5", ""),
        ("1e3", ""),
        ("x", ""),
        (0.5, "floating-point "),
        (True, "boolean "),
        (None, ""),
        (1j, ""),
        (Decimal("NaN"), ""),
        (Decimal("Infinity"), ""),
    ],
    ids=["int", "fraction", "decimal", "text-a/b", "text-padded", "text-decimal", "text-exponent",
         "text-word", "float", "bool", "none", "complex", "nan", "infinity"],
)
def test_every_door_reads_a_number_by_one_rule(value, expected):
    """Each door stores the same Fraction, or refuses with a ValueError naming the value.

    A refused float or boolean says so first.
    """
    for door, read in _DOORS.items():
        if isinstance(expected, Fraction):
            stored = read(value)
            assert stored == expected and type(stored) is Fraction, door
            continue
        with pytest.raises(ValueError, match="is not an integer or a/b") as refused:
            read(value)
        message = str(refused.value)
        assert message.startswith(expected) and repr(value) in message, door


@pytest.mark.parametrize(
    "doors, value, shown",
    [
        (_DOORS, list(range(100_000)), "[0, 1, 2, 3,..."),
        (_DOORS, [[0] * 100_000], "[[0, 0, 0, 0..."),
        (_DOORS, "x" * 100_000, "'xxxxxxxxxxxx...'"),
        (_DOORS, "x" * 79, "'xxxxxxxxxxxx...'"),
        (_DOORS, "x" * 78, repr("x" * 78)),
        (_DOORS, [1] * 26, repr([1] * 26)),
        ({"composition parts": as_composition}, tuple(range(100_000)) + (0,), "(0, 1, 2, 3,..."),
        ({"composition parts": as_composition}, (1,) * 25 + (0,), repr((1,) * 25 + (0,))),
        ({"partition parts": as_partition}, tuple(range(1, 100_000)), "(1, 2, 3, 4,..."),
        ({"not a permutation": as_permutation}, tuple(range(100_000)), "(0, 1, 2, 3,..."),
        ({"malformed index": parse_parts}, "1" * 5000, "'111111111111...'"),
        ({"ccomp table": lambda v: CoefficientTable(1, "ccomp", {v: 1})}, tuple(range(1, 100_000)),
         "the foreign class (1, 2, 3, 4,..."),
        ({"coefficient 'x' at": lambda v: QSym("M", {v: "x"})}, (1,) * 40, "(1, 1, 1, 1,..."),
        ({"weights (at the ctype class": lambda v: CoefficientTable(1, "ctype", {v: "x"})},
         (1,) * 40, "(1, 1, 1, 1,..."),
        ({"unknown table key": lambda v: CoefficientTable(1, v, {(1,): "x"})}, "k" * 5000,
         "'kkkkkkkkkkkk...'"),
    ],
    ids=[
        "long-list", "nested-list", "long-text", "repr-81", "repr-80", "list-repr-78",
        "long-composition", "composition-repr-78", "long-partition", "long-permutation",
        "long-index-text", "long-foreign-class", "coefficient-index", "weight-class",
        "long-table-key",
    ],
)
def test_every_door_names_a_long_refused_value_by_its_first_characters(doors, value, shown):
    """A value whose repr passes 80 characters is named by its first 12; a shorter one whole.

    The exact-number doors name the number, the index doors the index, and a
    refused number's index is named by the same rule.
    """
    reason = "is not an integer or a/b" if doors is _DOORS else None
    for door, read in doors.items():
        with pytest.raises(ValueError, match=reason) as refused:
            read(value)
        message = str(refused.value)
        assert message.startswith(door.split()[0]) and shown in message, door
        assert len(message) < 200, door


@pytest.mark.parametrize("value", [[10**5000], ([1, 2], {3: -(10**4301)})], ids=["list", "nested"])
def test_every_door_names_a_refused_value_holding_an_int_past_the_digit_limit(value):
    """Such a value has no repr, so it is named by its type, not by Python's bare digit-limit error."""
    name = f"<{type(value).__name__} holding an int past the digit limit>"
    for door, read in _DOORS.items():
        with pytest.raises(ValueError, match="is not an integer or a/b") as refused:
            read(value)
        message = str(refused.value)
        assert message.startswith(door.split()[0]) and name in message, door
    listed = "<list holding an int past the digit limit>"
    held = "<tuple holding an int past the digit limit>"
    refusals = [
        (lambda: SquareMatrix([[[10**5000]]]), f"matrix entry {listed} is not an integer or a/b"),
        (lambda: QSym("M", {(1,): [10**5000]}), f"coefficient {listed} at (1,) is not an integer or a/b"),
        (lambda: QSym("M", {(10**5000,): "x"}), f"coefficient 'x' at {held} is not an integer or a/b"),
        (
            lambda: CoefficientTable(1, "ctype", {(10**5000,): "x"}),
            f"weights (at the ctype class {held}): 'x' is not an integer or a/b",
        ),
        (
            lambda: CoefficientTable(1, "ctype", {(10**5000,): 1}),
            f"ctype table of degree 1 has the foreign class {held}",
        ),
        (lambda: as_composition((10**5000, 0)), f"composition parts must be positive integers: {held}"),
        (lambda: as_partition((1, 10**5000)), f"partition parts must be weakly decreasing: {held}"),
        (lambda: as_permutation((10**5000,)), f"not a permutation of 1..1: {held}"),
    ]
    for build, message in refusals:
        with pytest.raises(ValueError) as refused:
            build()
        assert str(refused.value) == message


@pytest.mark.parametrize("text", ["1" * 5000, "-" + "7" * 5000, "3/" + "2" * 5000])
def test_every_door_names_text_past_the_digit_limit(text):
    """Text past the interpreter's int-to-text limit is refused by position, not echoed in full."""
    limit = sys.get_int_max_str_digits()
    for door, read in _DOORS.items():
        with pytest.raises(ValueError, match=f"has more than {limit} digits") as refused:
            read(text)
        message = str(refused.value)
        assert message.startswith(door.split()[0]) and repr(text[:12] + "...") in message, door
        assert len(message) < 200, door


# Each door by which a caller names a basis, a power-sum variant or a table key:
# (what the refusal calls the name, the names it takes, the door).
_NAME_DOORS = {
    "QSym": ("basis", BASES, lambda v: QSym(v)),
    "to_coords": ("basis", BASES, lambda v: to_coords(QSym("M"), v)),
    "power_numerators": ("power-sum basis", VARIANTS, lambda v: power_numerators(QSym("M"), v)),
    "qimm": ("power-sum variant", VARIANTS, lambda v: qimm(SquareMatrix([[1]]), QSym("M"), v)),
    "qimm_coefficient_table": (
        "power-sum variant", VARIANTS, lambda v: qimm_coefficient_table(QSym("M", {(1,): 1}), v),
    ),
    "CoefficientTable": ("table key", ("ctype", "ccomp"), lambda v: CoefficientTable(1, v, {(1,): 1})),
    "from_numerators": (
        "table key", ("ctype", "ccomp"), lambda v: CoefficientTable.from_numerators(1, v, {(1,): 1}, 1),
    ),
}


@pytest.mark.parametrize("door", _NAME_DOORS)
@pytest.mark.parametrize(
    "name",
    ["psi", "m", "CTYPE", "", None, ("Psi",), "k" * 5000],
    ids=["psi", "m", "CTYPE", "empty", "none", "tuple", "long"],
)
def test_every_door_refuses_an_unknown_name_by_one_rule(door, name):
    """The refusal is one_of's: the name by the rule of named (a long one cut to 12 characters)."""
    what, choices, read = _NAME_DOORS[door]
    with pytest.raises(ValueError) as refused:
        read(name)
    shown = "'kkkkkkkkkkkk...'" if name == "k" * 5000 else repr(name)
    assert shown == named(name)
    assert str(refused.value) == f"unknown {what} {shown}; expected one of {choices}"
    for choice in choices:
        read(choice)  # each name the door takes passes its check


def test_one_of_returns_the_value_it_checks():
    assert one_of("Phi", VARIANTS, "power-sum variant") == "Phi"
    with pytest.raises(ValueError, match=r"^unknown colour 'red'; expected one of \('blue',\)$"):
        one_of("red", ("blue",), "colour")


def test_a_table_with_an_unknown_key_and_a_refused_weight_reports_the_key():
    for build in (
        lambda: CoefficientTable(1, "cycles", {(1,): "x"}),
        lambda: CoefficientTable.from_numerators(1, "cycles", {(1,): "x"}, 0),
    ):
        with pytest.raises(ValueError) as refused:
            build()
        assert str(refused.value) == "unknown table key 'cycles'; expected one of ('ctype', 'ccomp')"


_VALUES = {
    "matrix": (lambda: SquareMatrix([[1, "1/2"], ["3/4", -2]]), ()),
    "element": (lambda: quasischur((2, 1)), ("coeffs",)),
    "character": (lambda: character_class_function((2, 1)), ("numerators",)),
    "element table": (lambda: qimm_coefficient_table(quasischur((2, 1))), ("numerators",)),
}


@pytest.mark.parametrize("build, mappings", _VALUES.values(), ids=_VALUES)
def test_copies_and_pickles_of_a_value_are_equal_read_only_values(build, mappings):
    value = build()
    pickles = [pickle.loads(pickle.dumps(value, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for made in (copy.copy(value), copy.deepcopy(value), *pickles):
        assert type(made) is type(value) and made == value and hash(made) == hash(value)
        read_only = [name for name in made.__slots__ if type(getattr(made, name)) is MappingProxyType]
        assert read_only == list(mappings)
        for name in mappings:
            with pytest.raises(TypeError):
                getattr(made, name)[()] = 1
        with pytest.raises(AttributeError, match="read-only"):
            setattr(made, made.__slots__[0], None)


def test_an_unpickled_element_finds_its_cached_table():
    a = SquareMatrix([[1, 2, 0], [0, 1, 3], [1, 1, 1]])
    q = quasischur((2, 1))
    assert qimm(a, q) == -8
    hits = qimm_coefficient_table.cache_info().hits
    assert qimm(a, pickle.loads(pickle.dumps(q))) == -8
    assert qimm_coefficient_table.cache_info().hits == hits + 1


def test_no_attribute_of_a_fresh_value_can_be_set_or_deleted():
    q = QSym("M", {(1,): 1})
    for name in ("basis", "coeffs", "_hash", "degree", "extra"):
        with pytest.raises(AttributeError, match=f"QSym is read-only: cannot change '{name}'"):
            setattr(q, name, None)
        with pytest.raises(AttributeError, match=f"QSym is read-only: cannot change '{name}'"):
            delattr(q, name)
    assert not hasattr(q, "_hash")  # never hashed: the hash is computed on the first call, once
    assert hash(q) == q._hash == hash(QSym("M", {(1,): Fraction(1)}))
    assert not hasattr(QSym, "_made")


def test_equal_tables_hash_equal_however_built():
    built = CoefficientTable(3, "ctype", {(3,): Fraction(1, 2), (2, 1): 0, (1, 1, 1): "3/2"}, "p")
    numerators = {(3,): 2, (2, 1): 0, (1, 1, 1): 6}
    made = CoefficientTable.from_numerators(3, "ctype", numerators, 4, "p")
    assert built == made and hash(built) == hash(made) and len({built, made}) == 1
    assert made != CoefficientTable.from_numerators(3, "ctype", numerators, 4, "q")
    assert made != SquareMatrix([[1]]) and made != 3
