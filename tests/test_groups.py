import math
import random
import time

import pytest
from hypothesis import given, strategies as st

from cayleywl import (
    GroupSpec,
    OrderedPartition,
    build_cayley,
    canonical_form_prime_circulant,
    divisor_count,
    element_power,
    initial_cayley_smodule,
    parse_group_spec,
    power_class_count,
    power_equivalence_classes,
    refine_con,
    stabilizer_subgroup,
    unit_multipliers,
)
from cayleywl.groups import _MILLER_RABIN_BOUND, is_prime, multiplier_orbits
from invariants import is_prime_oracle, power_classes_oracle


def test_parse_group_spec():
    assert parse_group_spec("Z9").moduli == (9,)
    assert parse_group_spec("z4xz4").moduli == (4, 4)
    assert parse_group_spec("Z2xZ3xZ4").moduli == (2, 3, 4)
    with pytest.raises(ValueError):
        parse_group_spec("Q8")
    with pytest.raises(ValueError):
        parse_group_spec("Z")


def test_spec_validation():
    with pytest.raises(ValueError):
        GroupSpec(())
    with pytest.raises(ValueError):
        GroupSpec((0,))
    assert GroupSpec((1,)).order == 1
    assert str(GroupSpec((4, 4))) == "Z4xZ4"


def test_indexing_most_significant_first():
    spec = GroupSpec((4, 4))
    assert spec.index((1, 3)) == 7
    assert spec.element(7) == (1, 3)
    spec = GroupSpec((2, 3, 4))
    assert spec.index((1, 2, 3)) == 1 * 12 + 2 * 4 + 3


@given(st.sampled_from([(5,), (9,), (2, 2), (4, 4), (2, 3, 4)]), st.data())
def test_index_round_trip(moduli, data):
    spec = GroupSpec(moduli)
    i = data.draw(st.integers(0, spec.order - 1))
    assert spec.index(spec.element(i)) == i


def test_arithmetic_reduces():
    spec = GroupSpec((9,))
    assert spec.add(5, 7) == 3
    assert spec.neg(2) == 7
    assert spec.scale(4, -1) == 5
    spec = GroupSpec((4, 4))
    assert spec.add(spec.index((3, 3)), spec.index((1, 2))) == spec.index((0, 1))


@pytest.mark.parametrize(
    "moduli",
    [(1,), (7,), (12,), (2, 2), (2, 3), (4, 4), (2, 2, 4), (3, 3, 3),
     (2, 2, 2, 2), (5, 1, 3), (1, 4), (17, 17),
     (2, 2, 2, 2, 2), (4, 4, 4), (2, 3, 4), (3, 9), (64,)],
    ids=str,
)
def test_sum_row_matches_residue_tuple_addition(moduli):
    """Every sum row equals residue-tuple addition (:meth:`GroupSpec.add`),
    is a fresh list and holds ``_ids``' own int objects; Z17xZ17's indices
    reach past the interned small ints.  Z2^5, Z4^3 and Z2xZ3xZ4 rotate
    their small factors by strided columns and their large ones run by run."""
    spec = GroupSpec(moduli)
    for a in spec.elements():
        row = spec.sum_row(a)
        assert row == [spec.add(a, b) for b in spec.elements()], a
        assert all(x is spec._ids[x] for x in row), a
        assert row is not spec._ids and row is not spec.sum_row(a), a


@pytest.mark.parametrize(
    "moduli", [(1,), (2,), (13,), (2, 8), (4, 4), (3, 3, 3), (2,) * 5], ids=str
)
def test_sum_getters_are_kept_and_read_the_sum_rows(moduli):
    """Each element's getter reads a sequence at its sum row, is built once
    and kept, and is the addition table's row."""
    spec = GroupSpec(moduli)
    rng = random.Random(34)
    items = [rng.random() for _ in spec.elements()]
    for a in spec.elements():
        getter = spec.sum_getter(a)
        assert tuple(getter(items)) == tuple(items[b] for b in spec.sum_row(a)), a
        assert spec.sum_getter(a) is getter, a
    assert all(row is spec.sum_getter(a) for a, row in enumerate(spec.addition_table))


def test_sum_getters_above_the_table_limit_are_not_kept():
    spec = GroupSpec((4099,))
    getter = spec.sum_getter(5)
    assert getter(spec._ids) == tuple(spec.sum_row(5))
    assert spec.sum_getter(5) is not getter
    assert not spec._sum_getters


@pytest.mark.parametrize("moduli", [(4, 4), (2, 2, 4)], ids=str)
@pytest.mark.parametrize("units", ["all", "7"])
def test_multiplier_orbits_off_the_identity_match_residue_tuples(moduli, units):
    """Orbits of ``g -> origin + m*(g - origin)`` for every origin, against
    the maps applied to residue tuples."""
    spec = GroupSpec(moduli)
    multipliers = unit_multipliers(spec) if units == "all" else [7]
    for origin in spec.elements():
        o = spec.element(origin)
        expected = set()
        for g in spec.elements():
            offset = [x - y for x, y in zip(spec.element(g), o)]
            expected.add(frozenset(
                [g] + [spec.index([y + m * x for x, y in zip(offset, o)]) for m in multipliers]
            ))
        part = multiplier_orbits(spec, multipliers, origin)
        assert {frozenset(c) for c in part.classes} == expected, origin


def test_element_power_examples():
    z9 = GroupSpec((9,))
    assert element_power(z9, (3,), 1) == (3,)
    assert element_power(z9, (3,), 2) == (6,)
    z44 = GroupSpec((4, 4))
    assert element_power(z44, (1, 3), 3) == (3, 1)


def test_divisor_count():
    assert divisor_count(7) == 2
    assert divisor_count(12) == 6
    assert divisor_count(1) == 1
    assert divisor_count(36) == 9
    with pytest.raises(ValueError):
        divisor_count(0)


def test_is_prime_matches_trial_division_below_200000():
    assert [n for n in range(200_000) if is_prime(n) != is_prime_oracle(n)] == []


def test_is_prime_rejects_strong_pseudoprimes_and_carmichael_numbers():
    """Each strong pseudoprime is the least one to the prime bases up to 2,
    7, 23 and 37, so only a later base rejects it; the Chernick numbers
    (6k + 1)(12k + 1)(18k + 1) with three prime factors are Carmichael
    numbers, which pass the Fermat test to every coprime base."""
    pseudoprimes = {
        2047: (23, 89),
        3215031751: (151, 751, 28351),
        3825123056546413051: (149491, 747451, 34233211),
        318665857834031151167461: (399165290221, 798330580441),
    }
    for n, factors in pseudoprimes.items():
        assert math.prod(factors) == n and not is_prime(n)
    chernick = [
        (6 * k + 1) * (12 * k + 1) * (18 * k + 1)
        for k in range(1, 20_000)
        if all(is_prime_oracle(j * k + 1) for j in (6, 12, 18))
    ]
    assert chernick[:3] == [1729, 294409, 56052361]
    assert len(chernick) > 100 and chernick[-1] > 10**14
    assert not any(map(is_prime, chernick))


def test_is_prime_answers_large_orders_at_once():
    """Primes near 10^14 and 10^18, the Mersenne prime 2^61 - 1 and a
    product of two primes near 10^12 take microseconds; trial division spent
    1.2 s on 10^14 + 31.  Above the Miller-Rabin bound the check refuses,
    even where a small factor would be found at once."""
    started = time.perf_counter()
    assert is_prime(10**14 + 31) and is_prime(10**18 + 3) and is_prime(2**61 - 1)
    assert not is_prime(1000000000039 * 1000000000061)
    assert time.perf_counter() - started < 0.5
    for n in (43 * (10**24 + 7), 1009 * (10**22 + 9)):
        with pytest.raises(ValueError, match="^prime check limited to numbers below"):
            is_prime(n)
    assert is_prime(13)


# the greatest prime below the Miller-Rabin bound and the least one above it
_PRIME_BELOW_BOUND = 3317044064679887385961813
_PRIME_ABOVE_BOUND = 3317044064679887385962123


def test_is_prime_answers_below_its_bound_and_refuses_from_it_at_once():
    """Below the bound the check answers: bound - 2 has the factor 17, and
    the greatest prime below it passes every Miller-Rabin base.  The bound
    (a strong pseudoprime to every base) and the least prime above it raise
    at once; trial division there would take about 10^12 steps."""
    assert _MILLER_RABIN_BOUND == 3_317_044_064_679_887_385_961_981
    started = time.perf_counter()
    assert not is_prime(_MILLER_RABIN_BOUND - 2) and (_MILLER_RABIN_BOUND - 2) % 17 == 0
    assert is_prime(_PRIME_BELOW_BOUND)
    assert time.perf_counter() - started < 0.1
    for n in (_MILLER_RABIN_BOUND, _PRIME_ABOVE_BOUND):
        started = time.perf_counter()
        with pytest.raises(ValueError) as err:
            is_prime(n)
        assert time.perf_counter() - started < 0.1
        assert str(err.value) == (
            f"prime check limited to numbers below 3317044064679887385961981, got {n}"
        )


def test_unit_multipliers():
    assert unit_multipliers(GroupSpec((9,))) == [1, 2, 4, 5, 7, 8]
    assert unit_multipliers(GroupSpec((7,))) == [1, 2, 3, 4, 5, 6]
    assert unit_multipliers(GroupSpec((12,))) == [1, 5, 7, 11]


def test_power_classes_prime():
    part = power_equivalence_classes(GroupSpec((7,)))
    assert part.classes == ((0,), (1, 2, 3, 4, 5, 6))


def test_power_classes_z12_match_gcd_and_oracle():
    spec = GroupSpec((12,))
    part = power_equivalence_classes(spec)
    assert len(part.classes) == 6
    by_gcd = {}
    import math

    for g in range(12):
        by_gcd.setdefault(math.gcd(g, 12), set()).add(g)
    assert {frozenset(c) for c in part.classes} == {frozenset(s) for s in by_gcd.values()}
    assert {frozenset(c) for c in part.classes} == power_classes_oracle(spec)


def test_power_classes_product_group_oracle():
    spec = GroupSpec((4, 4))
    part = power_equivalence_classes(spec)
    assert {frozenset(c) for c in part.classes} == power_classes_oracle(spec)
    assert power_class_count(spec) == 10


@pytest.mark.parametrize("n", range(1, 201))
def test_power_class_count_is_divisor_count(n):
    assert len(power_equivalence_classes(GroupSpec((n,))).classes) == divisor_count(n)


Z5 = GroupSpec((5,))


@pytest.mark.parametrize(
    "entry, con, message",
    [
        (lambda con: build_cayley(Z5, con), (-1,), "element -1 out of range for Z5"),
        (lambda con: build_cayley(Z5, con), (7,), "element 7 out of range for Z5"),
        (lambda con: initial_cayley_smodule(Z5, con), (7,), "element 7 out of range"),
        (lambda con: refine_con(OrderedPartition.single(Z5), con), (7,), "element 7 out of range"),
        (lambda con: canonical_form_prime_circulant(Z5, con), (2, 7), "element 7 out of range"),
        (lambda con: stabilizer_subgroup(5, con), (7,), "element 7 out of range"),
        (lambda con: stabilizer_subgroup(5, con), (0, 1), "identity element not allowed"),
    ],
    ids=[
        "build_cayley-negative",
        "build_cayley",
        "initial_cayley_smodule",
        "refine_con",
        "canonical_form_prime_circulant",
        "stabilizer_subgroup-range",
        "stabilizer_subgroup-identity",
    ],
)
def test_connection_set_checked_at_every_entry_point(entry, con, message):
    with pytest.raises(ValueError, match=message):
        entry(con)
