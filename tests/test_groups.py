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
from invariants import power_classes_oracle


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
