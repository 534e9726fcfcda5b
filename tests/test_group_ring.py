import itertools

import pytest
from hypothesis import given, strategies as st

from cayleywl import (
    GroupSpec,
    OrderedPartition,
    exponentiation_closure,
    extract_by_coefficient,
    induced_partition,
    initial_cayley_smodule,
    is_exponentiation_stable,
    multiply,
    parse_cayley_graph,
    power_equivalence_classes,
    power_map,
    refine,
    refine_con,
    simple_quantity,
    stabilize_refine,
    stabilize_refine_con,
    unit_multipliers,
)
from cayleywl.group_ring import GroupRingElement, scaled_partition
from cayleywl.partition import refine_to_stable
from invariants import (
    MIXED_SPECS,
    coarsen,
    conv_oracle,
    exponentiation_closure_oracle,
    induced_partition_oracle,
    is_exponentiation_stable_oracle,
    pushforward_oracle,
    random_partition,
    refine_oracle,
    refine_table_oracle,
    scaled_partition_oracle,
)

Z7 = GroupSpec((7,))
Z9 = GroupSpec((9,))


def ring_elements(max_order=12):
    return st.sampled_from([(n,) for n in range(2, max_order + 1)] + [(2, 2), (2, 4)]).flatmap(
        lambda moduli: st.builds(
            lambda coeffs: GroupRingElement(GroupSpec(moduli), tuple(coeffs)),
            st.lists(
                st.integers(0, 3),
                min_size=GroupSpec(moduli).order,
                max_size=GroupSpec(moduli).order,
            ),
        )
    )


def test_simple_quantity():
    zero = simple_quantity(Z9, ())
    assert zero.coeffs == (0,) * 9
    unit = simple_quantity(Z9, {0})
    assert unit.coeffs[0] == 1 and sum(unit.coeffs) == 1
    t = simple_quantity(Z9, {1, 3})
    assert t.coeffs == (0, 1, 0, 1, 0, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        simple_quantity(Z9, {9})


def test_unit_law():
    unit = simple_quantity(Z9, {0})
    v = GroupRingElement(Z9, (3, 0, 1, 4, 0, 0, 2, 0, 5))
    assert multiply(unit, v).coeffs == v.coeffs


def test_multiply_hand_convolution():
    t = simple_quantity(Z9, {1, 3})
    # sums of ordered pairs from {1,3}: 2, 4, 4, 6
    assert multiply(t, t).coeffs == (0, 0, 1, 0, 2, 0, 1, 0, 0)


def test_multiply_coefficient_of_identity():
    u = simple_quantity(Z7, {1, 2, 4})
    v = simple_quantity(Z7, {3, 5, 6})
    assert multiply(u, v).coeffs[0] == 3  # pairs (1,6), (2,5), (4,3)


def test_multiply_spec_mismatch():
    with pytest.raises(ValueError):
        multiply(simple_quantity(Z7, {1}), simple_quantity(Z9, {1}))


@given(ring_elements())
def test_multiply_matches_residue_oracle(u):
    v = GroupRingElement(u.spec, tuple(reversed(u.coeffs)))
    assert multiply(u, v).coeffs == conv_oracle(u.spec, u, v)


@given(ring_elements())
def test_multiply_commutative(u):
    v = GroupRingElement(u.spec, tuple((c * 2 + 1) % 5 for c in u.coeffs))
    assert multiply(u, v).coeffs == multiply(v, u).coeffs


@given(ring_elements())
def test_multiply_associative(u):
    v = GroupRingElement(u.spec, tuple((c + 1) % 3 for c in u.coeffs))
    w = GroupRingElement(u.spec, tuple((2 * c) % 3 for c in u.coeffs))
    assert multiply(multiply(u, v), w).coeffs == multiply(u, multiply(v, w)).coeffs


def test_power_map_examples():
    t = simple_quantity(Z9, {1, 3})
    assert power_map(t, 1).coeffs == t.coeffs
    assert power_map(t, 2).coeffs == simple_quantity(Z9, {2, 6}).coeffs
    collapsed = power_map(t, 3)  # 3*3 = 0 mod 9
    assert collapsed.coeffs[3] == 1 and collapsed.coeffs[0] == 1 and sum(collapsed.coeffs) == 2


@given(ring_elements(), st.integers(-12, 12))
def test_power_map_matches_pushforward_oracle(v, m):
    assert power_map(v, m).coeffs == pushforward_oracle(v.spec, v, m)


@given(ring_elements(), st.data())
def test_power_map_multiplicative_for_units(u, data):
    from cayleywl import unit_multipliers

    m = data.draw(st.sampled_from(unit_multipliers(u.spec)))
    v = GroupRingElement(u.spec, tuple((c + 1) % 4 for c in u.coeffs))
    lhs = power_map(multiply(u, v), m)
    rhs = multiply(power_map(u, m), power_map(v, m))
    assert lhs.coeffs == rhs.coeffs


def test_induced_partition_examples():
    assert induced_partition(simple_quantity(Z9, ())).classes == (tuple(range(9)),)
    unit = simple_quantity(Z7, {0})
    assert induced_partition(unit).classes == ((0,), (1, 2, 3, 4, 5, 6))
    t = simple_quantity(Z9, {1, 3})
    prod = multiply(t, t)
    assert induced_partition(prod).classes == ((0, 1, 3, 5, 7, 8), (2, 6), (4,))


def test_extract_by_coefficient():
    assert extract_by_coefficient(simple_quantity(Z9, ()), 0) == frozenset(range(9))
    t = simple_quantity(Z9, {1, 3})
    prod = multiply(t, t)
    assert extract_by_coefficient(prod, 2) == frozenset({4})
    assert extract_by_coefficient(prod, 1) == frozenset({2, 6})


def test_simple_quantity_products_bounded():
    for n in (6, 9, 12):
        spec = GroupSpec((n,))
        full = simple_quantity(spec, range(n))
        prod = multiply(full, full)
        assert all(0 <= c <= n for c in prod.coeffs)


Z9_INITIAL = [[0], [1, 3, 6, 8], [2, 4, 5, 7]]
Z9_STABLE = [[0], [1, 8], [3, 6], [2, 7], [4, 5]]


def test_refine_fixes_discrete():
    discrete = OrderedPartition.discrete(Z9)
    assert refine(discrete).classes == discrete.classes


def test_refine_z9_example_step():
    initial = OrderedPartition.from_classes(Z9, Z9_INITIAL)
    stable = OrderedPartition.from_classes(Z9, Z9_STABLE)
    assert refine(initial).classes == stable.classes
    assert refine(stable).classes == stable.classes


def test_refine_to_stable_z9_example():
    trace = stabilize_refine(OrderedPartition.from_classes(Z9, Z9_INITIAL))
    assert trace.rounds == 1
    assert trace.final.to_text() == "0|1,8|2,7|3,6|4,5"
    assert trace.class_counts == (3, 5)


def test_refine_to_stable_discrete_start():
    trace = stabilize_refine(OrderedPartition.discrete(Z9))
    assert trace.rounds == 0
    assert trace.class_counts == (9,)


@given(
    st.sampled_from(
        [(12,), (16,), (2, 2, 2, 2), (2, 4, 3), (3, 3), (2, 3, 4), (2, 2, 2, 2, 2)]
    ),
    st.integers(1, 6),
    st.randoms(use_true_random=False),
)
def test_refine_matches_class_pair_oracle(moduli, k, rnd):
    spec = GroupSpec(moduli)
    part = OrderedPartition.from_labels(spec, [rnd.randrange(k) for _ in range(spec.order)])
    assert refine(part).classes == refine_oracle(part).classes


@pytest.mark.parametrize("moduli", [(1,), (2,), (3,), (2, 2)], ids=str)
def test_refine_matches_class_pair_oracle_on_every_partition(moduli):
    """Every partition of the groups of order 1 to 4.  The one sum row of
    Z1 needs a getter that returns a sequence, not a bare item."""
    spec = GroupSpec(moduli)
    labelings = itertools.product(range(spec.order), repeat=spec.order)
    for part in {OrderedPartition.from_labels(spec, labels) for labels in labelings}:
        assert refine(part) == refine_oracle(part), part


@pytest.mark.parametrize("graph", ["Z1024:1", "Z32xZ32:(0,1),(1,0)"])
def test_refine_traces_match_the_table_loop(graph):
    """Round for round, the sum-row getters give the partitions of the
    double loop over the sum rows, from the structural start of a graph."""
    g = parse_cayley_graph(graph)
    start = initial_cayley_smodule(g.spec, g.con)
    trace = stabilize_refine(start)
    assert trace.rounds > 1
    assert trace == refine_to_stable(start, refine_table_oracle)


def test_sum_rows_above_table_limit():
    spec = GroupSpec((4099,))
    u = simple_quantity(spec, (1, 4098))
    assert multiply(u, u).coeffs[:3] == (2, 0, 1)
    part = OrderedPartition.from_classes(spec, [[0], range(1, 4099)])
    assert refine_con(part, (1, 4098)).to_text().startswith("0|1,4098|2,")


def test_refine_rejects_groups_above_the_table_limit():
    part = OrderedPartition.from_classes(GroupSpec((4097,)), [[0], range(1, 4097)])
    with pytest.raises(ValueError, match="at most 4096, got 4097"):
        refine(part)


def test_refine_con_empty_set():
    p = OrderedPartition.from_classes(Z7, [[0], [1, 2, 3, 4, 5, 6]])
    assert refine_con(p, ()).classes == p.classes


def test_refine_con_chain():
    p0 = OrderedPartition.from_classes(Z7, [[0], [1, 2, 3, 4, 5, 6]])
    p1 = refine_con(p0, {1, 6})
    assert p1.to_text() == "0|1,6|2,3,4,5"
    p2 = refine_con(p1, {1, 6})
    assert p2.to_text() == "0|1,6|2,5|3,4"
    trace = stabilize_refine_con(p0, {1, 6})
    assert trace.rounds == 2
    assert trace.final.to_text() == "0|1,6|2,5|3,4"
    with pytest.raises(ValueError):
        stabilize_refine_con(p0, {0, 1})


def test_exponentiation_closure():
    assert exponentiation_closure(OrderedPartition.discrete(Z9)).is_discrete()
    initial = OrderedPartition.from_classes(Z9, Z9_INITIAL)
    closed = exponentiation_closure(initial)
    assert {frozenset(c) for c in closed.classes} == exponentiation_closure_oracle(initial)
    fixed = OrderedPartition.from_classes(Z7, [[0], [1, 2, 4], [3, 5, 6]])
    assert exponentiation_closure(fixed).classes == fixed.classes
    assert is_exponentiation_stable(closed)


def test_is_exponentiation_stable():
    assert is_exponentiation_stable(OrderedPartition.discrete(Z7))
    assert is_exponentiation_stable(
        OrderedPartition.from_classes(Z7, [[0], [1, 2, 4], [3, 5, 6]])
    )
    assert not is_exponentiation_stable(
        OrderedPartition.from_classes(Z7, [[0], [1, 2], [3, 4, 5, 6]])
    )


@given(st.sampled_from(MIXED_SPECS), st.randoms(use_true_random=False))
def test_induced_partition_matches_oracle(spec, rnd):
    v = GroupRingElement(spec, tuple(rnd.randint(-3, 3) for _ in range(spec.order)))
    assert induced_partition(v).classes == induced_partition_oracle(v).classes


@given(st.sampled_from(MIXED_SPECS), st.integers(1, 6), st.randoms(use_true_random=False))
def test_exponentiation_helpers_match_oracles(spec, k, rnd):
    part = random_partition(spec, rnd, k)
    for m in unit_multipliers(spec):
        assert scaled_partition(part, m).classes == scaled_partition_oracle(part, m).classes
    closed = exponentiation_closure(part)
    assert {frozenset(c) for c in closed.classes} == exponentiation_closure_oracle(part)
    assert is_exponentiation_stable_oracle(closed)
    for p in (part, closed, coarsen(closed, rnd), power_equivalence_classes(spec)):
        assert is_exponentiation_stable(p) == is_exponentiation_stable_oracle(p)


@given(st.sampled_from(MIXED_SPECS), st.integers(1, 6), st.randoms(use_true_random=False))
def test_scaled_partition_by_one_and_back(spec, k, rnd):
    """Scaling by 1 returns the partition itself; scaling by a unit m and
    then by its inverse mod |G| gives back the original classes."""
    part = random_partition(spec, rnd, k)
    assert scaled_partition(part, 1) is part
    for m in unit_multipliers(spec):
        back = scaled_partition(scaled_partition(part, m), pow(m, -1, spec.order))
        assert back.classes == part.classes
