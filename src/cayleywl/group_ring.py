"""Exact integer group-ring arithmetic and partition refinement operators.

Coefficients are Python integers, so every convolution of indicator
vectors is exact; the products driving the refinement loop only ever
produce coefficients in ``[0, |G|]``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import add
from typing import Iterable

from .groups import GroupSpec, unit_multipliers
from .partition import OrderedPartition, RefinementTrace, refine_to_stable
from .wl import (
    CayleyGraph,
    coloring_from_partition,
    cr_refine,
    cr_step,
    partition_from_coloring,
)


@dataclass(frozen=True)
class GroupRingElement:
    """Dense integer coefficient vector indexed by group element."""

    spec: GroupSpec
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.spec.order:
            raise ValueError(
                f"expected {self.spec.order} coefficients, got {len(self.coeffs)}"
            )

    def __mul__(self, other: GroupRingElement) -> GroupRingElement:
        return multiply(self, other)


def simple_quantity(spec: GroupSpec, elements: Iterable[int]) -> GroupRingElement:
    """Indicator vector of an element-index set (the empty set gives zero)."""
    coeffs = [0] * spec.order
    for g in elements:
        if not 0 <= g < spec.order:
            raise ValueError(f"element index {g} out of range for {spec}")
        coeffs[g] = 1
    return GroupRingElement(spec, tuple(coeffs))


def multiply(u: GroupRingElement, v: GroupRingElement) -> GroupRingElement:
    """Exact convolution over the group; commutative since the group is abelian.
    Sums are read per non-zero coefficient of ``u``, so sparse products work
    on groups too large for an addition table."""
    if u.spec != v.spec:
        raise ValueError("group ring elements over different groups")
    spec = u.spec
    out = [0] * spec.order
    for a, ca in enumerate(u.coeffs):
        if ca == 0:
            continue
        row = spec.sum_row(a)
        for b, cb in enumerate(v.coeffs):
            if cb:
                out[row[b]] += ca * cb
    return GroupRingElement(spec, tuple(out))


def power_map(v: GroupRingElement, m: int) -> GroupRingElement:
    """Push coefficients forward along ``g -> m*g``.

    For ``gcd(m, |G|) != 1`` the map is not injective and coefficients
    landing on the same element accumulate.
    """
    spec = v.spec
    out = [0] * spec.order
    for g, c in enumerate(v.coeffs):
        if c:
            out[spec.scale(g, m)] += c
    return GroupRingElement(spec, tuple(out))


def induced_partition(v: GroupRingElement) -> OrderedPartition:
    """Group elements by equal coefficient."""
    return OrderedPartition.from_labels(v.spec, v.coeffs)


def extract_by_coefficient(v: GroupRingElement, value: int) -> frozenset[int]:
    """All elements carrying the given coefficient."""
    return frozenset(g for g, c in enumerate(v.coeffs) if c == value)


def refine(partition: OrderedPartition) -> OrderedPartition:
    """One refinement round: meet with the coefficient partitions of all
    pairwise products of class indicators.

    The coefficient of g in ``C_i * C_j`` counts the pairs (a, b) with
    a + b = g, a in class i and b in class j, so each g gathers the class
    pair of every (a, b) summing to it.  With a = -y and b = g + y these are
    read off one cached getter per sum row (``GroupSpec.addition_table``):
    it gathers the classes of g + y in y order, and ``scaled`` holds the
    classes of -y, times the class count, to add the pairs in one int each.
    A round gathers |G|^2 pairs, so groups above
    ``groups.ADDITION_TABLE_LIMIT`` are rejected before any row is built.

    Each g is labelled by its class and its sorted pairs, unranked:
    :meth:`OrderedPartition.from_labels` numbers the classes by least
    element, so ranks (:func:`partition.rank_signatures`) would be dropped.
    """
    spec = partition.spec
    table = spec.addition_table
    labels = partition.membership
    r = partition.class_count
    scaled = [r * labels[y] for y in spec.negatives]
    return OrderedPartition.from_labels(
        spec, [(o, *sorted(map(add, scaled, row(labels)))) for o, row in zip(labels, table)]
    )


def refine_con(partition: OrderedPartition, con: Iterable[int]) -> OrderedPartition:
    """One color-refinement round on Cay(G, con), read as a partition.

    Equals the meet with the coefficient partitions of the connection-set
    indicator times each class indicator.
    """
    spec = partition.spec
    stepped = cr_step(CayleyGraph(spec, tuple(con)), coloring_from_partition(partition))
    return partition_from_coloring(stepped, spec)


def stabilize_refine(partition: OrderedPartition) -> RefinementTrace:
    """Iterate :func:`refine` to its fixed point."""
    return refine_to_stable(partition, refine)


def stabilize_refine_con(partition: OrderedPartition, con: Iterable[int]) -> RefinementTrace:
    """Color refinement on Cay(G, con) from the partition to its fixed point."""
    spec = partition.spec
    trace = cr_refine(CayleyGraph(spec, tuple(con)), coloring_from_partition(partition))
    return replace(trace, final=OrderedPartition(spec, trace.final))


def scaled_partition(partition: OrderedPartition, m: int) -> OrderedPartition:
    """Image of the partition under ``g -> m*g`` for a unit multiplier ``m``:
    the class indices pushed forward along the map.  ``m = 1`` is the
    identity map, so the partition comes back as it is."""
    if m == 1:
        return partition
    return induced_partition(power_map(GroupRingElement(partition.spec, partition.membership), m))


def exponentiation_closure(partition: OrderedPartition) -> OrderedPartition:
    """Meet of all unit-multiplier images of the partition.

    The result is exponentiation-stable and refines the input.
    """
    result = partition
    for m in unit_multipliers(partition.spec):
        if m != 1:
            result = result.meet(scaled_partition(partition, m))
    return result


def is_exponentiation_stable(partition: OrderedPartition) -> bool:
    """True when every unit-multiplier image of every class is a union of
    classes.  Each image has the partition's class count, so the partition
    refines an image exactly when they are equal, and it is stable exactly
    when it is its own closure."""
    return exponentiation_closure(partition) == partition
