import pytest
from hypothesis import example, given, strategies as st

from cayleywl import GroupSpec, OrderedPartition, meet
from cayleywl.partition import rank_signatures
from invariants import MIXED_SPECS, meet_oracle, random_partition, rank_signatures_oracle


Z4 = GroupSpec((4,))
Z9 = GroupSpec((9,))
Z9_STABLE = OrderedPartition.from_classes(Z9, [[0], [1, 8], [3, 6], [2, 7], [4, 5]])


def test_canonical_ordering():
    p = OrderedPartition.from_classes(Z9, [[4, 5], [0], [2, 7], [1, 8], [6, 3]])
    assert p.classes == ((0,), (1, 8), (2, 7), (3, 6), (4, 5))
    assert p.to_text() == "0|1,8|2,7|3,6|4,5"


def test_validation():
    with pytest.raises(ValueError):
        OrderedPartition.from_classes(Z4, [[0, 1], [1, 2, 3]])
    with pytest.raises(ValueError):
        OrderedPartition.from_classes(Z4, [[0, 1]])
    with pytest.raises(ValueError):
        OrderedPartition.from_labels(Z4, [0, 0, 0])


def test_from_classes_reads_each_class_once():
    # an iterator class is consumed by its first read; empty classes are dropped
    p = OrderedPartition.from_classes(GroupSpec((3,)), (iter(c) for c in [[0], [2, 1], []]))
    assert p.classes == ((0,), (1, 2))


def test_membership_and_class_of():
    assert Z9_STABLE.membership == (0, 1, 2, 3, 4, 4, 3, 2, 1)
    assert Z9_STABLE.class_of(6) == (3, 6)


def test_meet_idempotent():
    assert meet(Z9_STABLE, Z9_STABLE).classes == Z9_STABLE.classes


def test_meet_discrete_absorbs():
    discrete = OrderedPartition.discrete(Z9)
    assert meet(Z9_STABLE, discrete).classes == discrete.classes


def test_meet_crossing():
    p = OrderedPartition.from_classes(Z4, [[0, 1], [2, 3]])
    q = OrderedPartition.from_classes(Z4, [[0, 2], [1, 3]])
    assert p.meet(q).classes == ((0,), (1,), (2,), (3,))


def test_meet_spec_mismatch():
    with pytest.raises(ValueError):
        OrderedPartition.single(Z4).meet(OrderedPartition.single(Z9))


def partitions(spec):
    return st.builds(
        lambda labels: OrderedPartition.from_labels(spec, labels),
        st.lists(st.integers(0, 4), min_size=spec.order, max_size=spec.order),
    )


@given(partitions(Z9), partitions(Z9))
def test_meet_commutative_and_refining(p, q):
    m = p.meet(q)
    assert m.classes == q.meet(p).classes
    assert m.refines(p) and m.refines(q)


@given(partitions(Z9), partitions(Z9), partitions(Z9))
def test_meet_associative(p, q, r):
    assert p.meet(q).meet(r).classes == p.meet(q.meet(r)).classes


@given(st.sampled_from(MIXED_SPECS), st.integers(1, 6), st.randoms(use_true_random=False))
def test_meet_matches_oracle(spec, k, rnd):
    p, q = random_partition(spec, rnd, k), random_partition(spec, rnd, k)
    assert p.meet(q).classes == meet_oracle(p, q).classes


def test_spans():
    assert Z9_STABLE.spans(())
    assert Z9_STABLE.spans(range(9))
    assert Z9_STABLE.spans({1, 8, 3, 6})
    assert not Z9_STABLE.spans({1, 3})


def test_refines():
    single = OrderedPartition.single(Z9)
    assert Z9_STABLE.refines(single)
    assert not single.refines(Z9_STABLE)
    assert Z9_STABLE.refines(Z9_STABLE)


def test_text_round_trip():
    text = "0|1,8|2,7|3,6|4,5"
    assert OrderedPartition.from_text(Z9, text).to_text() == text


def test_refine_to_stable_with_custom_step():
    from cayleywl import refine_to_stable

    def split_step(p):
        # peel one element off the first non-singleton class
        for i, cls in enumerate(p.classes):
            if len(cls) > 1:
                parts = list(p.classes[:i]) + [cls[:-1], cls[-1:]] + list(p.classes[i + 1:])
                return OrderedPartition.from_classes(p.spec, parts)
        return p

    trace = refine_to_stable(OrderedPartition.single(Z4), split_step)
    assert trace.rounds == 3
    assert trace.class_counts == (1, 2, 3, 4)
    assert trace.final.is_discrete()


@given(
    st.lists(
        st.tuples(st.integers(0, 2), st.lists(st.integers(0, 3), max_size=4)),
        max_size=12,
    )
)
@example([(0, [1]), (0, [1, 2]), (0, [2]), (0, [])])
@example([(1, []), (0, []), (1, [0]), (0, [0, 0]), (0, [0])])
def test_rank_signatures_matches_nested_ranking(rows):
    """Flat signatures ``(o, *sorted(g))`` rank as the nested
    ``(o, tuple(sorted(g)))``, gathered lists of mixed lengths included:
    a proper prefix ([1] against [1, 2]) and the empty list sort first.
    Asked for, the kernel appends the distinct signatures it ranked, in
    rank order."""
    old = [o for o, _ in rows]
    gathered = [g for _, g in rows]
    ids = rank_signatures_oracle(old, gathered)
    ranked = [["earlier round"]]
    assert rank_signatures(old, gathered) == rank_signatures(old, gathered, ranked) == ids
    by_rank = {i: (o, *sorted(g)) for i, o, g in zip(ids, old, gathered)}
    assert ranked == [["earlier round"], [by_rank[i] for i in range(len(by_rank))]]
