"""Ordered partitions of a finite abelian group, refinement traces, and the
kernel and fixed-point loop shared by every refinement engine.

A partition doubles as the basis description of the linear span of its
class indicator vectors inside the group ring, so the refinement
operators in :mod:`cayleywl.group_ring` act directly on this type.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Hashable, Iterable, Optional, Sequence

from .groups import GroupSpec


@dataclass(frozen=True)
class OrderedPartition:
    """Disjoint nonempty element-index classes covering the group.

    Canonical form: each class sorted ascending, classes ordered by their
    minimum element.  Construct via :meth:`from_classes` / :meth:`from_labels`
    so the canonical form and the partition invariants always hold.
    """

    spec: GroupSpec
    classes: tuple[tuple[int, ...], ...]

    @classmethod
    def from_classes(cls, spec: GroupSpec, classes: Iterable[Iterable[int]]) -> OrderedPartition:
        """Canonical partition from classes in any order; each class is read
        once, so iterators will do, and empty classes are dropped."""
        normalized = sorted(filter(None, (tuple(sorted(set(c))) for c in classes)))
        seen: set[int] = set().union(*normalized)
        total = sum(map(len, normalized))
        if seen != set(range(spec.order)) or total != spec.order:
            raise ValueError(f"classes do not partition the {spec.order} group elements")
        return cls(spec, tuple(normalized))

    @classmethod
    def from_labels(cls, spec: GroupSpec, labels: Sequence[Hashable]) -> OrderedPartition:
        """Group the elements by equal label; any hashable labels will do."""
        if len(labels) != spec.order:
            raise ValueError(f"expected {spec.order} labels, got {len(labels)}")
        return cls(spec, label_classes(labels))

    @classmethod
    def single(cls, spec: GroupSpec) -> OrderedPartition:
        """The one-class partition."""
        return cls(spec, (tuple(range(spec.order)),))

    @classmethod
    def discrete(cls, spec: GroupSpec) -> OrderedPartition:
        """All-singletons partition."""
        return cls(spec, tuple((g,) for g in range(spec.order)))

    @cached_property
    def membership(self) -> tuple[int, ...]:
        """Class index (position in ``classes``) per element."""
        labels = [0] * self.spec.order
        for ci, c in enumerate(self.classes):
            for g in c:
                labels[g] = ci
        return tuple(labels)

    @property
    def class_count(self) -> int:
        return len(self.classes)

    def is_discrete(self) -> bool:
        return len(self.classes) == self.spec.order

    def class_of(self, g: int) -> tuple[int, ...]:
        return self.classes[self.membership[g]]

    def refines(self, other: OrderedPartition) -> bool:
        """True when every class of self lies inside a class of other."""
        if self.spec != other.spec:
            raise ValueError("partitions over different groups")
        theirs = other.membership
        return all(len({theirs[g] for g in c}) == 1 for c in self.classes)

    def meet(self, other: OrderedPartition) -> OrderedPartition:
        """Coarsest common refinement: all nonempty pairwise intersections."""
        if self.spec != other.spec:
            raise ValueError("partitions over different groups")
        pairs = tuple(zip(self.membership, other.membership))
        return OrderedPartition.from_labels(self.spec, pairs)

    def spans(self, elements: Iterable[int]) -> bool:
        """True when the element set is exactly a union of classes."""
        target = set(elements)
        if not target:
            return True
        touched = {self.membership[g] for g in target}
        return sum(len(self.classes[ci]) for ci in touched) == len(target)

    def to_text(self) -> str:
        """Canonical text form, e.g. ``"0|1,8|2,7|3,6|4,5"``."""
        return classes_text(self.classes)

    @classmethod
    def from_text(cls, spec: GroupSpec, text: str) -> OrderedPartition:
        classes = [
            [int(tok) for tok in chunk.split(",") if tok != ""]
            for chunk in text.split("|")
        ]
        return cls.from_classes(spec, classes)


def meet(p: OrderedPartition, q: OrderedPartition) -> OrderedPartition:
    return p.meet(q)


def label_classes(labels: Iterable[Hashable]) -> tuple[tuple[int, ...], ...]:
    """Positions grouped by equal label, each class ascending.  Classes come
    in order of first occurrence, which is the order of their minima."""
    buckets: dict[Hashable, list[int]] = {}
    for i, lab in enumerate(labels):
        buckets.setdefault(lab, []).append(i)
    return tuple(map(tuple, buckets.values()))


def classes_text(classes: Iterable[Iterable[int]]) -> str:
    """Classes as comma-separated indices joined by ``|``."""
    return "|".join(",".join(map(str, c)) for c in classes)


def dense_rank(values: Sequence[Any]) -> tuple[int, ...]:
    """Each value's rank among the sorted distinct values."""
    ids = {v: i for i, v in enumerate(sorted(set(values)))}
    return tuple(map(ids.__getitem__, values))


@dataclass(frozen=True)
class RefinementTrace:
    """Record of one run of a refinement loop.

    ``rounds`` counts strictly refining applications only; the terminal
    application that confirms the fixed point is not counted.
    ``class_counts`` holds the class count before any refinement followed by
    the count after each refining round (``rounds + 1`` entries, strictly
    increasing).
    """

    rounds: int
    class_counts: tuple[int, ...]
    final: Any


def rank_signatures(
    old: Sequence[int],
    gathered: Iterable[Iterable[int]],
    ranked: Optional[list[list[tuple[int, ...]]]] = None,
) -> tuple[int, ...]:
    """The refinement kernel: one new color per position.

    Position ``i`` gets the rank of ``(old[i], sorted(gathered[i]))`` among
    the sorted distinct signatures.  Ranking sorted signatures keeps the ids
    independent of the position order, which canonical labeling relies on.
    The signature is ranked flat, as ``(old[i], *sorted(gathered[i]))``:
    tuples compare item by item with a proper prefix first, so the flat
    tuples of ints sort exactly as the nested ones.  When ``ranked`` is
    given, the sorted distinct signatures are appended to it as one list.
    """
    signatures = [(o, *sorted(g)) for o, g in zip(old, gathered)]
    distinct = sorted(set(signatures))
    if ranked is not None:
        ranked.append(distinct)
    ids = {s: i for i, s in enumerate(distinct)}
    return tuple(map(ids.__getitem__, signatures))


def refine_to_stable(start: Any, step: Callable[[Any], Any]) -> RefinementTrace:
    """Apply a refining operator until a step no longer raises ``class_count``.

    Works for anything with a ``class_count`` and ``is_discrete()``:
    partitions, vertex colorings, pair colorings.  Every step refines its
    input, so a step that keeps the class count keeps the classes, and its
    input is the fixed point.  A discrete input cannot refine, so it is the
    fixed point without a confirming step.
    """
    current = start
    counts = [current.class_count]
    while not current.is_discrete():
        refined = step(current)
        count = refined.class_count
        if count == counts[-1]:
            break
        current = refined
        counts.append(count)
    return RefinementTrace(rounds=len(counts) - 1, class_counts=tuple(counts), final=current)
