"""Finite abelian groups as products of cyclic factors, with 0-based element indices.

Elements are residue tuples; every element also has a fixed integer index
under mixed-radix encoding with the most significant factor first.  All
partitions, colorings, and output formats in this package use these indices.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property, partial
from operator import itemgetter
from typing import Iterable, Sequence

GroupElement = tuple[int, ...]
"""Residue tuple, component ``i`` in ``[0, moduli[i])``."""

_SPEC_RE = re.compile(r"z(\d+)((?:xz\d+)*)", re.IGNORECASE)

# a group-ring refinement round gathers one entry per table cell: 4096^2 =
# 2^24, as many as a 2-WL round at its limit of 256 vertices (256^3)
ADDITION_TABLE_LIMIT = 4096


def gatherer(indices: Sequence[int]) -> itemgetter:
    """Getter of the items at ``indices`` from a sequence, as a sequence.
    ``itemgetter`` returns a bare item for one index and rejects none, so 0
    and 1 indices (in-degrees 0 and 1, a pair layout on 0 or 1 vertices, or
    the sum row of the order-1 group) take the slice
    ``indices[0]:indices[0] + len(indices)`` instead."""
    if len(indices) >= 2:
        return itemgetter(*indices)
    start = indices[0] if indices else 0
    return itemgetter(slice(start, start + len(indices)))


@dataclass(frozen=True)
class GroupSpec:
    """Direct product of cyclic groups ``Z_{n_1} x ... x Z_{n_k}``, written additively."""

    moduli: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.moduli:
            raise ValueError("group needs at least one cyclic factor")
        if any(n < 1 for n in self.moduli):
            raise ValueError(f"cyclic factor orders must be >= 1, got {self.moduli}")

    @cached_property
    def order(self) -> int:
        return math.prod(self.moduli)

    @cached_property
    def _factors(self) -> tuple[tuple[int, int, int], ...]:
        """``(stride, n, run)`` of every factor ``Z_n``, most significant first.

        The stride is the product of the orders of all less significant
        factors, and each aligned run of ``run = stride * n`` indices holds
        every residue of the factor."""
        factors = []
        stride = 1
        for n in reversed(self.moduli):
            factors.append((stride, n, stride * n))
            stride *= n
        return tuple(reversed(factors))

    @property
    def identity(self) -> int:
        return 0

    def elements(self) -> range:
        return range(self.order)

    def element(self, index: int) -> GroupElement:
        """Residue tuple for an element index (inverse of :meth:`index`)."""
        if not 0 <= index < self.order:
            raise ValueError(f"element index {index} out of range for order {self.order}")
        residues = []
        for stride, n, _ in self._factors:
            residues.append((index // stride) % n)
        return tuple(residues)

    def index(self, residues: Sequence[int]) -> int:
        """Element index of a residue tuple; residues are reduced componentwise."""
        if len(residues) != len(self.moduli):
            raise ValueError(
                f"expected {len(self.moduli)} residues, got {len(residues)}"
            )
        return sum((r % n) * s for r, (s, n, _) in zip(residues, self._factors))

    def add(self, i: int, j: int) -> int:
        """Index of the sum of elements ``i`` and ``j``."""
        a, b = self.element(i), self.element(j)
        return self.index(tuple(x + y for x, y in zip(a, b)))

    def neg(self, i: int) -> int:
        """Index of the inverse of element ``i``."""
        return self.scale(i, -1)

    def scale(self, i: int, m: int) -> int:
        """Index of the ``m``-fold multiple of element ``i``."""
        if len(self.moduli) == 1:
            return (i * m) % self.moduli[0]
        return self.index(tuple(r * m for r in self.element(i)))

    @cached_property
    def _ids(self) -> list[int]:
        """Every element index once, so sum rows share their int objects."""
        return list(self.elements())

    @cached_property
    def negatives(self) -> tuple[int, ...]:
        """Index of the inverse of every element, in element order."""
        return tuple(map(self.neg, self.elements()))

    def sum_row(self, a: int) -> list[int]:
        """Indices of ``a + b`` for every element ``b``, in element order, as
        a fresh list.

        Adding residue ``r`` to the factor of stride ``s`` rotates each of
        its runs by ``r * s``; a cyclic group is one run.  The row starts
        from :attr:`_ids` and rotates the runs of each factor that ``a``
        moves: run by run when there are fewer runs than run positions,
        otherwise one strided column per position, so a factor costs at most
        ``sqrt(|G|)`` slices."""
        row = self._ids
        order = self.order
        for s, n, run in self._factors:
            cut = a // s % n * s
            if not cut:
                continue
            if run * run <= order:
                rotated = [0] * order
                for t in range(run):
                    rotated[t::run] = row[(t + cut) % run :: run]
            else:
                rotated = []
                for at in range(0, order, run):
                    rotated += row[at + cut : at + run]
                    rotated += row[at : at + cut]
            row = rotated
        return row if a else row.copy()

    @cached_property
    def _sum_getters(self) -> dict[int, itemgetter]:
        """The getters :meth:`sum_getter` has kept, by element."""
        return {}

    def sum_getter(self, a: int) -> itemgetter:
        """Getter of the items at ``a + b`` for every element ``b``, in
        element order, from a sequence indexed by element:
        ``gatherer(self.sum_row(a))`` (see :func:`gatherer`).

        Groups of order at most :data:`ADDITION_TABLE_LIMIT` build each
        getter once and keep it, so every connection set, difference row
        and table over this spec shares it; larger groups build one on
        every call and keep none, so a spec never holds more rows than its
        addition table would."""
        if self.order > ADDITION_TABLE_LIMIT:
            return gatherer(self.sum_row(a))
        kept = self._sum_getters
        getter = kept.get(a)
        if getter is None:
            getter = kept[a] = gatherer(self.sum_row(a))
        return getter

    @cached_property
    def addition_table(self) -> tuple[itemgetter, ...]:
        """The addition table as the getter :meth:`sum_getter` keeps for
        every element ``a``, in element order: applied to a sequence indexed
        by element, row a returns the items at ``a + b`` for every ``b``.
        Built for groups of order at most :data:`ADDITION_TABLE_LIMIT`;
        larger groups raise before any row is built."""
        if self.order > ADDITION_TABLE_LIMIT:
            raise ValueError(
                f"addition table limited to groups of order at most "
                f"{ADDITION_TABLE_LIMIT}, got {self.order}"
            )
        return tuple(map(self.sum_getter, range(self.order)))

    def __str__(self) -> str:
        return "x".join(f"Z{n}" for n in self.moduli)


def parse_group_spec(text: str) -> GroupSpec:
    """Parse ``"Z9"`` or ``"Z4xZ4"`` (case-insensitive) into a :class:`GroupSpec`."""
    m = _SPEC_RE.fullmatch(text.strip())
    if m is None:
        raise ValueError(f"malformed group spec {text!r}; expected e.g. 'Z9' or 'Z4xZ4'")
    moduli = tuple(int(part) for part in re.findall(r"\d+", text))
    return GroupSpec(moduli)


def connection_set(spec: GroupSpec, con: Iterable[int]) -> tuple[int, ...]:
    """The connection set sorted and deduplicated, after checking that it
    holds element indices only and not the identity."""
    elements = tuple(sorted(set(con)))
    for s in elements:
        if not 0 <= s < spec.order:
            raise ValueError(f"connection element {s} out of range for {spec}")
    if spec.identity in elements:
        raise ValueError("identity element not allowed in a connection set")
    return elements


def element_power(spec: GroupSpec, g: GroupElement, m: int) -> GroupElement:
    """The ``m``-fold multiple of ``g``, componentwise mod the factor orders.

    Bijective on the group exactly when ``gcd(m, |G|) = 1``.
    """
    if len(g) != len(spec.moduli):
        raise ValueError(f"element {g} does not match group {spec}")
    return tuple((r * m) % n for r, n in zip(g, spec.moduli))


def divisor_count(n: int) -> int:
    """Number of positive divisors of ``n``."""
    if n < 1:
        raise ValueError(f"divisor_count requires n >= 1, got {n}")
    count = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            count += 1 if d * d == n else 2
        d += 1
    return count


def unit_multipliers(spec: GroupSpec) -> list[int]:
    """Ascending multipliers ``m`` in ``[1, |G|)`` with ``gcd(m, |G|) = 1``."""
    order = spec.order
    return [m for m in range(1, order) if math.gcd(m, order) == 1]


def multiplier_orbits(spec: GroupSpec, multipliers: Sequence[int], origin: int = 0):
    """Orbits of ``g -> origin + m*(g - origin)`` over multipliers closed under
    multiplication (the units mod |G| or a subgroup of them; 1 may be left out)."""
    from .partition import OrderedPartition

    plus, minus = spec.sum_row(origin), spec.sum_row(spec.neg(origin))
    labels = [-1] * spec.order
    for g in spec.elements():
        if labels[g] == -1:
            offset = minus[g]
            labels[g] = g
            for m in multipliers:
                labels[plus[spec.scale(offset, m)]] = g
    return OrderedPartition.from_labels(spec, labels)


def power_equivalence_classes(spec: GroupSpec):
    """Partition of the group into power-equivalence classes.

    Two elements are equivalent when one is a unit multiple of the other.
    The class count is the divisor count of ``n`` for cyclic ``Z_n``.
    """
    return multiplier_orbits(spec, unit_multipliers(spec))


def power_class_count(spec: GroupSpec) -> int:
    """Number of power-equivalence classes (equals divisor_count(n) for Z_n)."""
    return len(power_equivalence_classes(spec).classes)


# divided out first, then the Miller-Rabin bases
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# the least strong pseudoprime to every base in _SMALL_PRIMES (Sorenson and
# Webster, Strong pseudoprimes to twelve prime bases, 2017)
_MILLER_RABIN_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Primality by division by the small primes, then Miller-Rabin, which is
    exact below :data:`_MILLER_RABIN_BOUND`; ``n`` from there up raise ``ValueError``."""
    if n >= _MILLER_RABIN_BOUND:
        raise ValueError(f"prime check limited to numbers below {_MILLER_RABIN_BOUND}, got {n}")
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    return all(map(partial(_strong_probable_prime, n), _SMALL_PRIMES))


def _strong_probable_prime(n: int, a: int) -> bool:
    """Miller-Rabin test of the odd ``n > a`` to base ``a``: with
    ``n - 1 = d * 2**s``, d odd, ``a**d`` is 1 mod n or one of its first s
    squarings is -1 mod n."""
    d = n - 1
    s = (d & -d).bit_length() - 1
    x = pow(a, d >> s, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False
