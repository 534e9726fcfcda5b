"""Prime-order circulant machinery: connection-set stabilizer, eigenvalue
classes of the adjacency operator, and predicted stable partitions.

Eigenvalue equality is decided exactly through the multiplier-coset
criterion; the floating-point spectrum exists only for display and
sanity cross-checks.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Iterable

from .groups import GroupSpec, connection_set, is_prime, multiplier_orbits
from .partition import OrderedPartition

# stabilizer and spectrum take p * |con| steps: the complete graph on Z2039 takes 3.2 s
SPECTRUM_LIMIT = 2048


@dataclass(frozen=True)
class StabilizerData:
    """Multiplicative stabilizer of a connection set in the units mod p."""

    p: int
    con: tuple[int, ...]
    h_elements: tuple[int, ...]
    d_con: int

    @property
    def spec(self) -> GroupSpec:
        return GroupSpec((self.p,))


def stabilizer_subgroup(p: int, con: Iterable[int]) -> StabilizerData:
    """Compute the multipliers h with ``h * con == con`` (a subgroup of the
    units mod p) together with its index."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    elements = connection_set(GroupSpec((p,)), con)
    if not elements:
        raise ValueError("connection set must be nonempty")
    con_set = frozenset(elements)
    h_elements = tuple(
        h for h in range(1, p) if {(h * c) % p for c in con_set} == con_set
    )
    d_con = (p - 1) // len(h_elements)
    data = StabilizerData(p, elements, h_elements, d_con)
    assert 1 in data.h_elements
    assert data.d_con * len(data.h_elements) == p - 1
    return data


def eigenvalue_classes(sd: StabilizerData) -> OrderedPartition:
    """Partition of 0..p-1 into {0} plus the stabilizer cosets; character
    indices in the same class have equal adjacency eigenvalues."""
    return multiplier_orbits(sd.spec, sd.h_elements)


def numeric_spectrum(sd: StabilizerData) -> list[complex]:
    """Floating eigenvalues of the adjacency operator, one per character index.

    The k-th value is the sum of the primitive p-th roots of unity raised to
    c*k over the connection elements c; index 0 always gives exactly |con|.
    """
    p = sd.p
    return [sum(cmath.exp(2j * cmath.pi * c * k / p) for c in sd.con) for k in range(p)]


def predicted_individualized_partition(sd: StabilizerData, g0: int) -> OrderedPartition:
    """Stable coloring predicted after individualizing one vertex: the
    singleton g0 plus the translated stabilizer cosets g0 + a*H."""
    p = sd.p
    if not 0 <= g0 < p:
        raise ValueError(f"vertex {g0} out of range for Z_{p}")
    return multiplier_orbits(sd.spec, sd.h_elements, origin=g0)
