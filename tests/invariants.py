"""Shared oracles and invariant suites.

The oracle functions recompute expected values from first principles
(residue-tuple arithmetic, brute-force closures, in-neighbor counting) so
they stay independent of the library code paths they validate.  The
check_* functions run at configurable ranges: unit tests call them on small
slices, the acceptance suite at the full stated ranges.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from operator import add
from typing import Iterator, Optional, Sequence

from cayleywl import (
    CayleyGraph,
    GroupSpec,
    OrderedPartition,
    StabilizerData,
    build_cayley,
    cr_step,
    divisor_count,
    eigenvalue_classes,
    exponentiation_closure,
    induced_partition,
    induced_smodule,
    is_exponentiation_stable,
    multiply,
    numeric_spectrum,
    power_map,
    refine,
    refine_con,
    simple_quantity,
    stabilizer_subgroup,
    unit_multipliers,
    wl2_step,
)
from cayleywl.group_ring import GroupRingElement
from cayleywl import tinhofer
from cayleywl.groups import is_prime
from cayleywl.tinhofer import IsoResult, TinhoferReport, individualize
from cayleywl.partition import RefinementTrace, dense_rank, label_classes, rank_signatures
from cayleywl.wl import (
    DiGraph,
    PairColoring,
    coloring_from_partition,
    cr_stabilize,
    initial_cayley_smodule,
    initial_pair_coloring,
    partition_from_coloring,
    uniform_coloring,
)


# ---------------------------------------------------------------------------
# oracles (independent recomputations)
# ---------------------------------------------------------------------------

def as_digraph(g) -> DiGraph:
    """g itself, or the digraph a Cayley descriptor's sum rows build."""
    return g.digraph() if isinstance(g, CayleyGraph) else g


def conv_oracle(spec: GroupSpec, u: GroupRingElement, v: GroupRingElement) -> tuple[int, ...]:
    """Convolution recomputed on residue tuples with a dict accumulator."""
    acc: dict[tuple[int, ...], int] = {}
    for a, ca in enumerate(u.coeffs):
        if not ca:
            continue
        ra = spec.element(a)
        for b, cb in enumerate(v.coeffs):
            if not cb:
                continue
            rb = spec.element(b)
            key = tuple((x + y) % m for x, y, m in zip(ra, rb, spec.moduli))
            acc[key] = acc.get(key, 0) + ca * cb
    out = [0] * spec.order
    for residues, coeff in acc.items():
        out[spec.index(residues)] = coeff
    return tuple(out)


def pushforward_oracle(spec: GroupSpec, v: GroupRingElement, m: int) -> tuple[int, ...]:
    out = [0] * spec.order
    for g, c in enumerate(v.coeffs):
        residues = tuple((r * m) % mod for r, mod in zip(spec.element(g), spec.moduli))
        out[spec.index(residues)] += c
    return tuple(out)


def power_classes_oracle(spec: GroupSpec) -> set[frozenset[int]]:
    """Brute-force closure of g ~ m*g over all multipliers coprime to |G|."""
    units = unit_multipliers(spec) or [0]
    classes = set()
    for g in range(spec.order):
        classes.add(frozenset(spec.scale(g, m) for m in units) | {g})
    return classes


def in_neighbor_split_oracle(
    spec: GroupSpec, con: tuple[int, ...], partition: OrderedPartition
) -> OrderedPartition:
    """One color-refinement round by direct in-neighbor counting on the graph."""
    member = partition.membership
    labels = []
    for v in range(spec.order):
        counts = Counter(member[spec.add(v, spec.neg(s))] for s in con)
        labels.append((member[v], tuple(sorted(counts.items()))))
    canon = {lab: i for i, lab in enumerate(sorted(set(labels)))}
    return OrderedPartition.from_labels(spec, [canon[l] for l in labels])


def cr_round_oracle(in_neighbors, colors) -> list[int]:
    """One naive refinement round; new ids by sorted-signature rank.

    Sorted-rank assignment keeps the ids independent of the vertex labeling,
    which the canonical-labeling pipeline relies on.
    """
    sigs = [
        (colors[v], tuple(sorted(colors[u] for u in in_neighbors[v])))
        for v in range(len(colors))
    ]
    ids = {s: i for i, s in enumerate(sorted(set(sigs)))}
    return [ids[s] for s in sigs]


def rank_signatures_oracle(old, gathered) -> tuple[int, ...]:
    """The kernel's ranking on nested signatures: position i gets the rank
    of ``(old[i], tuple(sorted(gathered[i])))`` among the distinct ones."""
    sigs = [(o, tuple(sorted(g))) for o, g in zip(old, gathered)]
    ids = {s: i for i, s in enumerate(sorted(set(sigs)))}
    return tuple(ids[s] for s in sigs)


def cr_stabilize_oracle(in_neighbors, colors) -> RefinementTrace:
    """Iterate :func:`cr_round_oracle` on plain in-neighbor lists until the
    class count stops rising; the final colors are a tuple."""
    colors = list(colors)
    count = len(set(colors))
    counts = [count]
    rounds = 0
    while True:
        new = cr_round_oracle(in_neighbors, colors)
        new_count = len(set(new))
        if new_count == count:
            break
        colors = new
        count = new_count
        counts.append(count)
        rounds += 1
    return RefinementTrace(rounds=rounds, class_counts=tuple(counts), final=tuple(colors))


def is_prime_oracle(n: int) -> bool:
    """Primality by trial division by every d with d * d <= n."""
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def cayley_in_neighbors(spec: GroupSpec, con: tuple[int, ...]) -> list[list[int]]:
    """In-neighbors v - s of every vertex v of Cay(G, con), on residue tuples."""
    out = []
    for v in range(spec.order):
        rv = spec.element(v)
        out.append(sorted(
            spec.index(tuple((x - y) % m for x, y, m in zip(rv, spec.element(s), spec.moduli)))
            for s in con
        ))
    return out


def transposed_in_neighbors(g: DiGraph) -> tuple[tuple[int, ...], ...]:
    """In-neighbors of every vertex read off the out-lists by an edge test
    per vertex pair, not from the digraph's own in-lists."""
    return tuple(
        tuple(u for u in range(g.n) if v in g.out_neighbors[u]) for v in range(g.n)
    )


def ladder_connection_set(p: int) -> tuple[int, ...]:
    """Ten elements: a five-step geometric ladder and its negatives, so the
    graph mixes fast and the round count stays nearly size-independent."""
    base = p ** 0.2
    ladder: list[int] = []
    for k in range(5):
        v = max(1, round(base ** (k + 1))) % p
        while v == 0 or v in ladder or (p - v) in ladder:
            v = (v + 1) % p
        ladder.append(v)
    con = sorted(set(ladder) | {p - v for v in ladder})
    assert len(con) == 10
    return tuple(con)


def adjacency_error_line_oracle(text: str) -> Optional[int]:
    """The line of the first bad edge line of an adjacency text whose header
    is a vertex count, numbered over ``enumerate(text.splitlines(), 1)``
    with blank lines included; None when every edge line is good.  A line
    is bad when it is not two integers, names a vertex out of range or is a
    loop."""
    lines = [(i, ln.split()) for i, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    n = int(lines[0][1][0])
    for i, parts in lines[1:]:
        try:
            u, v = map(int, parts)
        except ValueError:
            return i
        if not (0 <= u < n and 0 <= v < n) or u == v:
            return i
    return None


def wl2_step_oracle(c: PairColoring) -> PairColoring:
    """One 2-WL round: recolor each pair by its old color together with the
    multiset over all third vertices v of the color pair (left leg, right leg).

    Fresh ids are assigned by first occurrence in row-major order.
    """
    n = c.n
    cols = c.colors
    sigs = []
    for i in range(n):
        row_base = i * n
        for j in range(n):
            legs = sorted((cols[row_base + v], cols[v * n + j]) for v in range(n))
            sigs.append((cols[row_base + j], tuple(legs)))
    ids: dict[object, int] = {}
    return PairColoring(n, tuple(ids.setdefault(s, len(ids)) for s in sigs))


def wl2_step_all_pairs(c: PairColoring) -> PairColoring:
    """One 2-WL round that gathers and ranks the signature of every pair,
    with the kernel's ids: the round :func:`cayleywl.wl2_step` computes from
    the pairs with i <= j and their mirrors."""
    n, k = c.n, c.class_count
    cols = c.colors
    left = [[x * k for x in cols[i * n : (i + 1) * n]] for i in range(n)]
    right = [cols[j::n] for j in range(n)]
    gathered = (map(add, row, col) for row in left for col in right)
    return PairColoring(n, rank_signatures(cols, gathered))


def initial_pair_coloring_oracle(dg: DiGraph) -> PairColoring:
    """Structural pair coloring from two edge queries per pair."""
    n = dg.n
    raw = [
        0 if i == j else 1 + dg.has_edge(i, j) + 2 * dg.has_edge(j, i)
        for i in range(n)
        for j in range(n)
    ]
    return PairColoring(n, dense_rank(raw))


def is_cayley_partition_oracle(c: PairColoring, spec: GroupSpec) -> bool:
    """Cayley-partition check on every pair: the diagonal is one class,
    every per-factor unit shift preserves the coloring, and transposition
    maps classes onto classes."""
    n = spec.order
    cols = c.colors
    diag = cols[0]
    for g in range(n):
        if cols[g * n + g] != diag:
            return False
    for i in range(n):
        for j in range(n):
            if i != j and cols[i * n + j] == diag:
                return False
    # translations are generated by the per-factor unit shifts
    generators = []
    for k, modulus in enumerate(spec.moduli):
        if modulus > 1:
            residues = [0] * len(spec.moduli)
            residues[k] = 1
            generators.append(spec.index(residues))
    for t in generators:
        for g1 in range(n):
            tg1 = spec.add(g1, t)
            for g2 in range(n):
                if cols[g1 * n + g2] != cols[tg1 * n + spec.add(g2, t)]:
                    return False
    transpose_of: dict[int, int] = {}
    for i in range(n):
        for j in range(n):
            color = cols[i * n + j]
            flipped = cols[j * n + i]
            if transpose_of.setdefault(color, flipped) != flipped:
                return False
    return True


def difference_rows(spec: GroupSpec) -> list[list[int]]:
    """Row g lists ``h - g`` for every element h, the sum row of -g: row 0
    read through it is row g of a translation-invariant pair coloring."""
    return [spec.sum_row(spec.neg(g)) for g in spec.elements()]


def is_translation_invariant_oracle(c: PairColoring, spec: GroupSpec) -> bool:
    """Every row of the pair coloring is row 0 read through its difference row."""
    n = spec.order
    row0 = c.colors[:n]
    return all(
        c.colors[g * n : (g + 1) * n] == tuple(map(row0.__getitem__, diffs))
        for g, diffs in enumerate(difference_rows(spec))
    )


def pair_coloring_from_smodule_oracle(partition: OrderedPartition) -> PairColoring:
    """The pair coloring with ``(g1, g2)`` colored by the class of ``g2 - g1``,
    read through the difference rows."""
    member = partition.membership
    cols = [member[d] for diffs in difference_rows(partition.spec) for d in diffs]
    return PairColoring(partition.spec.order, tuple(cols))


def first_occurrence(colors) -> tuple[int, ...]:
    """Colors renumbered by first occurrence: equal exactly when the two
    colorings induce the same partition of the positions."""
    ids: dict[int, int] = {}
    return tuple(ids.setdefault(c, len(ids)) for c in colors)


def refine_oracle(partition: OrderedPartition) -> OrderedPartition:
    """One module refinement round as the meet over all ordered class pairs of
    the coefficient partitions of ``C_i * C_j``, convolved by :func:`conv_oracle`."""
    spec = partition.spec
    indicators = [simple_quantity(spec, cls) for cls in partition.classes]
    keys = [[lab] for lab in partition.membership]
    for u in indicators:
        for v in indicators:
            for g, coeff in enumerate(conv_oracle(spec, u, v)):
                keys[g].append(coeff)
    canon = {key: i for i, key in enumerate(sorted({tuple(k) for k in keys}))}
    return OrderedPartition.from_labels(spec, [canon[tuple(k)] for k in keys])


def refine_table_oracle(partition: OrderedPartition) -> OrderedPartition:
    """One module refinement round as a double loop over the sum rows: each
    (a, b) appends the class pair of a and b, as one int, to a + b's list,
    and :func:`rank_signatures` ranks the signatures.  The gather that
    ``group_ring.refine`` reads off cached sum-row getters instead."""
    spec = partition.spec
    labels = partition.membership
    r = partition.class_count
    gathered: list[list[int]] = [[] for _ in range(spec.order)]
    for a, la in enumerate(labels):
        la *= r
        for g, lb in zip(spec.sum_row(a), labels):
            gathered[g].append(la + lb)
    return OrderedPartition.from_labels(spec, rank_signatures(labels, gathered))


def is_equitable(spec: GroupSpec, con: tuple[int, ...], partition: OrderedPartition) -> bool:
    """True when one in-neighbor counting round splits no class: every vertex
    of a class has the same number of in-neighbors in every class."""
    return in_neighbor_split_oracle(spec, con, partition).classes == partition.classes


def stable_partition_oracle(
    spec: GroupSpec, con: tuple[int, ...], partition: OrderedPartition
) -> OrderedPartition:
    """Fixed point of :func:`in_neighbor_split_oracle` from the given start."""
    while not is_equitable(spec, con, partition):
        partition = in_neighbor_split_oracle(spec, con, partition)
    return partition


def individualize_oracle(partition: OrderedPartition, v: int) -> OrderedPartition:
    """Split vertex v off its class into a singleton class of its own."""
    classes = [[g for g in c if g != v] for c in partition.classes] + [[v]]
    return OrderedPartition.from_classes(partition.spec, classes)


def linear_automorphisms(spec: GroupSpec, con: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Vertex permutations x -> Mx of Cay(Z_m^k, con), one per k x k matrix M
    over Z_m that maps con onto itself and permutes the group.

    Each map is checked edge by edge to be a graph automorphism.  All of them
    fix vertex 0, so they form a subgroup of its stabilizer.  The matrices
    act on residue tuples directly; no library automorphism search is used.
    """
    m = spec.moduli[0]
    if any(n != m for n in spec.moduli):
        raise ValueError(f"linear maps need equal cyclic factors, got {spec.moduli}")
    k = len(spec.moduli)
    elements = [spec.element(g) for g in range(spec.order)]
    con_res = {elements[s] for s in con}
    edges = {
        (u, tuple((a + b) % m for a, b in zip(u, s))) for u in elements for s in con_res
    }
    found = []
    for entries in itertools.product(range(m), repeat=k * k):
        rows = [entries[i * k : (i + 1) * k] for i in range(k)]

        def image(x: tuple[int, ...]) -> tuple[int, ...]:
            return tuple(sum(r * xi for r, xi in zip(row, x)) % m for row in rows)

        if {image(s) for s in con_res} != con_res:
            continue
        f = {x: image(x) for x in elements}
        if len(set(f.values())) != spec.order:
            continue
        assert {(f[u], f[v]) for u, v in edges} == edges, (spec, con, rows)
        found.append(tuple(spec.index(f[x]) for x in elements))
    return found


def orbit_cut_witness(
    automorphisms: list[tuple[int, ...]], partition: OrderedPartition
) -> Optional[tuple[int, int]]:
    """A pair (v, f(v)) whose two vertices lie in different classes, for the
    first automorphism f that moves some vertex out of its class; None when
    the partition is invariant under all of them."""
    member = partition.membership
    for f in automorphisms:
        for v, fv in enumerate(f):
            if member[v] != member[fv]:
                return v, fv
    return None


def exponentiation_closure_oracle(partition: OrderedPartition) -> set[frozenset[int]]:
    """Meet over multiplier images computed with frozensets."""
    spec = partition.spec
    keys: dict[int, list] = {g: [] for g in range(spec.order)}
    for m in unit_multipliers(spec):
        image_member = {}
        for ci, cls in enumerate(partition.classes):
            for g in cls:
                image_member[spec.scale(g, m)] = ci
        for g in range(spec.order):
            keys[g].append(image_member[g])
    groups: dict[tuple, set[int]] = {}
    for g, key in keys.items():
        groups.setdefault(tuple(key), set()).add(g)
    return {frozenset(s) for s in groups.values()}


def meet_oracle(p: OrderedPartition, q: OrderedPartition) -> OrderedPartition:
    """Meet by first-occurrence ids of the (class, class) pairs."""
    if p.spec != q.spec:
        raise ValueError("partitions over different groups")
    mine, theirs = p.membership, q.membership
    keys: dict[tuple[int, int], int] = {}
    labels = []
    for g in range(p.spec.order):
        key = (mine[g], theirs[g])
        labels.append(keys.setdefault(key, len(keys)))
    return OrderedPartition.from_labels(p.spec, labels)


def induced_partition_oracle(v: GroupRingElement) -> OrderedPartition:
    """Coefficient partition by first-occurrence ids of the coefficients."""
    keys: dict[int, int] = {}
    labels = [keys.setdefault(c, len(keys)) for c in v.coeffs]
    return OrderedPartition.from_labels(v.spec, labels)


def scaled_partition_oracle(partition: OrderedPartition, m: int) -> OrderedPartition:
    """Image under ``g -> m*g`` (m a unit), class by class."""
    spec = partition.spec
    image = [0] * spec.order
    for ci, cls in enumerate(partition.classes):
        for g in cls:
            image[spec.scale(g, m)] = ci
    return OrderedPartition.from_labels(spec, image)


def is_exponentiation_stable_oracle(partition: OrderedPartition) -> bool:
    """Every unit-multiplier image of every class is a union of classes."""
    spec = partition.spec
    for m in unit_multipliers(spec):
        if m == 1:
            continue
        for cls in partition.classes:
            if not partition.spans(spec.scale(g, m) for g in cls):
                return False
    return True


def color_bijections_oracle(
    a: DiGraph,
    b: DiGraph,
    colors_a: Sequence[int],
    colors_b: Sequence[int],
    forced: Sequence[tuple[int, int]] = (),
) -> Iterator[tuple[int, ...]]:
    """Yield all bijections a -> b preserving colors and adjacency, with the
    forced vertex pairs pre-assigned.  Backtracking with exact-consistency
    checks against every previously mapped vertex.

    Every candidate comes from the color class, so this is the oracle for
    the neighborhood-driven :func:`cayleywl.tinhofer.color_bijections`,
    which answers one query on one colored digraph: the first
    color-preserving automorphism with one pair (v0, w0) forced, or None.
    With ``b`` and ``colors_b`` the same as ``a`` and ``colors_a``, its
    first result with ``forced=[(v0, w0)]`` exists exactly when that answer
    is not None."""
    n = a.n
    if b.n != n or Counter(colors_a) != Counter(colors_b):
        return
    pool: dict[int, list[int]] = {}
    for w, c in enumerate(colors_b):
        pool.setdefault(c, []).append(w)
    mapping = [-1] * n
    used = [False] * n

    def consistent(v: int, w: int) -> bool:
        if colors_a[v] != colors_b[w]:
            return False
        for u in range(n):
            mu = mapping[u]
            if mu < 0:
                continue
            if a.has_edge(v, u) != b.has_edge(w, mu):
                return False
            if a.has_edge(u, v) != b.has_edge(mu, w):
                return False
        return True

    for v, w in forced:
        if used[w] or mapping[v] >= 0 or not consistent(v, w):
            return
        mapping[v] = w
        used[w] = True

    free = [v for v in range(n) if mapping[v] < 0]
    free.sort(key=lambda v: (len(pool.get(colors_a[v], ())), colors_a[v], v))

    def dfs(k: int) -> Iterator[tuple[int, ...]]:
        if k == len(free):
            yield tuple(mapping)
            return
        v = free[k]
        for w in pool.get(colors_a[v], ()):
            if used[w] or not consistent(v, w):
                continue
            mapping[v] = w
            used[w] = True
            yield from dfs(k + 1)
            mapping[v] = -1
            used[w] = False

    yield from dfs(0)


def coloring_orbits_oracle(dg: DiGraph, colors: Sequence[int]) -> tuple[int, ...]:
    """Orbit label per vertex under the color-preserving automorphism group.

    Orbits are discovered by pairwise automorphism searches inside each color
    class; every found automorphism merges all its vertex orbits at once.
    Runs on :func:`color_bijections_oracle`.
    """
    n = dg.n
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    classes: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        classes.setdefault(c, []).append(v)
    for members in classes.values():
        for i, v0 in enumerate(members):
            for v in members[i + 1 :]:
                if find(v0) == find(v):
                    continue
                perm = next(
                    color_bijections_oracle(dg, dg, colors, colors, forced=[(v0, v)]), None
                )
                if perm is not None:
                    for u in range(n):
                        union(u, perm[u])
    return tuple(find(v) for v in range(n))


# the class-scanning search tests every placement against every mapped vertex
_GENERIC_LIMIT = 10


def brute_force_iso_oracle(g, h) -> Optional[tuple[int, ...]]:
    """Independent isomorphism witness search.

    Prime-order cyclic Cayley inputs are compared by multiplier search
    (m * con of one graph must equal the other's connection set, giving the
    witness x -> m*x); everything else runs :func:`color_bijections_oracle`,
    limited to 10 vertices.  Neither branch calls ``cayleywl.tinhofer``.
    """
    if (
        isinstance(g, CayleyGraph)
        and isinstance(h, CayleyGraph)
        and g.spec == h.spec
        and len(g.spec.moduli) == 1
        and is_prime(g.spec.order)
    ):
        p = g.spec.order
        con_g, con_h = set(g.con), set(h.con)
        for m in range(1, p):
            if {(m * c) % p for c in con_g} == con_h:
                return tuple((m * x) % p for x in range(p))
        return None
    dg, dh = as_digraph(g), as_digraph(h)
    if dg.n != dh.n:
        return None
    if dg.n > _GENERIC_LIMIT:
        raise ValueError(f"generic oracle limited to {_GENERIC_LIMIT} vertices")
    cols = (0,) * dg.n
    return next(color_bijections_oracle(dg, dh, cols, cols), None)


def disjoint_union(a: DiGraph, b: DiGraph) -> DiGraph:
    """a ⊎ b: b's vertices follow a's, shifted by a.n."""
    shifted = [[a.n + v for v in heads] for heads in b.out_neighbors]
    return DiGraph.from_out_lists(a.out_neighbors + tuple(shifted))


def union_judge(n: int, colors: Sequence[int]) -> tuple[str, object]:
    """Judge a stable coloring of a 2n-vertex disjoint union whose second
    copy follows the first: ``("mismatch", None)`` when the copies' color
    multisets differ, ``("split", colors)`` with the colors held by two or
    more vertices per copy, ascending, else ``("leaf", perm)`` with the
    color-matching bijection from the first copy to the second."""
    counts = Counter(colors[:n])
    if counts != Counter(colors[n:]):
        return "mismatch", None
    repeated = sorted(c for c, k in counts.items() if k > 1)
    if repeated:
        return "split", repeated
    where = {c: w for w, c in enumerate(colors[n:])}
    return "leaf", tuple(where[c] for c in colors[:n])


def tinhofer_iso_test_oracle(g, h) -> IsoResult:
    """The isomorphism procedure refining the whole union G ⊎ H with
    ``cr_stabilize`` after every individualized pair: the oracle for
    :func:`cayleywl.tinhofer.tinhofer_iso_test`, which refines each copy
    alone.  Same choices: least eligible color, least vertex in each copy."""
    dg, dh = as_digraph(g), as_digraph(h)
    union = disjoint_union(dg, dh)
    n = dg.n
    coloring = uniform_coloring(union.n)
    history: tuple[tuple[int, int], ...] = ()
    while True:
        stable = cr_stabilize(union, coloring).final
        kind, found = union_judge(n, stable.colors)
        if kind == "mismatch":
            return IsoResult("non-isomorphic", None, history)
        if kind == "leaf":
            return IsoResult("isomorphic", found, history)
        v = stable.colors.index(found[0])
        w = stable.colors.index(found[0], n) - n
        coloring = individualize(stable, v, n + w)
        history += ((v, w),)


class _OracleBudgetExceeded(Exception):
    pass


def tinhofer_search_oracle(g, budget: int = 1_000_000) -> TinhoferReport:
    """The Tinhofer property search refining the whole union G ⊎ G once for
    every tried pair (v, w), with ``cr_stabilize`` on the union colored by
    the node's stable coloring with v and n + w individualized: the oracle
    for :func:`cayleywl.tinhofer.has_tinhofer_property`, which refines each
    copy once per vertex and node.  Same orbit pruning, verdict memo,
    ``nodes`` count and budget."""
    dg = as_digraph(g)
    n = dg.n
    union = disjoint_union(dg, dg)
    nodes = 0
    memo: dict[tuple[int, ...], Optional[tuple[tuple[int, int], ...]]] = {}
    orbit_memo: dict[tuple[tuple[int, ...], ...], tuple[int, ...]] = {}

    def orbits(copy_colors: tuple[int, ...]) -> tuple[int, ...]:
        key = label_classes(copy_colors)
        if key not in orbit_memo:
            orbit_memo[key] = tinhofer.coloring_orbits(dg, copy_colors)
        return orbit_memo[key]

    def judge(stable):
        colors = stable.colors
        kind, found = union_judge(n, colors)
        if kind != "split":
            return () if kind == "mismatch" else None
        c_g, c_h = colors[:n], colors[n:]
        orbit_g, orbit_h = orbits(c_g), orbits(c_h)
        for color in found:
            vs = [v for v in range(n) if c_g[v] == color and orbit_g[v] == v]
            ws = [w for w in range(n) if c_h[w] == color and orbit_h[w] == w]
            for v, w in itertools.product(vs, ws):
                sub = explore(cr_stabilize(union, individualize(stable, v, n + w)).final)
                if sub is not None:
                    return ((v, w),) + sub
        return None

    def explore(stable):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise _OracleBudgetExceeded
        if stable.colors not in memo:
            memo[stable.colors] = judge(stable)
        return memo[stable.colors]

    try:
        failure = explore(cr_stabilize(union, uniform_coloring(union.n)).final)
    except _OracleBudgetExceeded:
        return TinhoferReport("budget-exceeded", None, nodes)
    if failure is None:
        return TinhoferReport("true", None, nodes)
    return TinhoferReport("false", failure, nodes)


def refine_copy_oracle(
    dg: DiGraph, colors: tuple[int, ...], v: Optional[int] = None
) -> tuple[tuple[int, ...], list[list[tuple[int, ...]]]]:
    """A copy run that gathers every vertex in every round, its first
    included: the oracle for :func:`cayleywl.tinhofer._refine_copy`, which
    reads its first round off the uniform coloring or off the last
    certificate entry of the run that gave ``colors``.  v, when given, gets
    the fresh id ``max + 1``."""
    count = max(colors, default=-1) + 1
    if v is not None:
        colors = colors[:v] + (count,) + colors[v + 1 :]
        count += 1
    certificate: list[list[tuple[int, ...]]] = []
    while True:
        refined = rank_signatures(colors, dg.in_colors(colors), certificate)
        if len(certificate[-1]) == count:
            return colors, certificate
        colors, count = refined, len(certificate[-1])


# ---------------------------------------------------------------------------
# deterministic partition generators
# ---------------------------------------------------------------------------

def relabeled(g: DiGraph, colors: Sequence[int], pi: Sequence[int]) -> tuple[DiGraph, tuple[int, ...]]:
    """The copy of (g, colors) in which vertex v is called pi[v]."""
    moved = [0] * g.n
    for v, c in enumerate(colors):
        moved[pi[v]] = c
    edges = [(pi[u], pi[v]) for u in range(g.n) for v in g.out_neighbors[u]]
    return DiGraph.from_edges(g.n, edges), tuple(moved)


def is_isomorphism(a: DiGraph, b: DiGraph, perm: Sequence[int]) -> bool:
    """True when perm is a bijection of the vertices that maps the edge set
    of a exactly onto the edge set of b."""
    edges_a = {(u, v) for u in range(a.n) for v in a.out_neighbors[u]}
    edges_b = {(u, v) for u in range(b.n) for v in b.out_neighbors[u]}
    return (
        a.n == b.n
        and sorted(perm) == list(range(b.n))
        and {(perm[u], perm[v]) for u, v in edges_a} == edges_b
    )


# cyclic groups of order 2..16 and the non-cyclic groups of order 8 and 9
MIXED_SPECS = [GroupSpec((n,)) for n in range(2, 17)] + [
    GroupSpec(moduli) for moduli in ((2, 4), (3, 3), (2, 2, 2))
]


def random_partition(spec: GroupSpec, rng: random.Random, max_classes: int = 0) -> OrderedPartition:
    k = rng.randint(1, max_classes or spec.order)
    labels = [rng.randrange(k) for _ in range(spec.order)]
    return OrderedPartition.from_labels(spec, labels)


def coarsen(partition: OrderedPartition, rng: random.Random) -> OrderedPartition:
    """Random partition that the input refines."""
    r = len(partition.classes)
    k = rng.randint(1, r)
    merge = [rng.randrange(k) for _ in range(r)]
    labels = [merge[partition.membership[g]] for g in range(partition.spec.order)]
    return OrderedPartition.from_labels(partition.spec, labels)


def small_group_specs(max_order: int) -> list[GroupSpec]:
    specs = [GroupSpec((n,)) for n in range(2, max_order + 1)]
    for moduli in ((2, 2), (2, 4), (3, 3), (2, 2, 3), (2, 6), (4, 4)):
        if math.prod(moduli) <= max_order:
            specs.append(GroupSpec(moduli))
    return specs


def all_connection_sets(n: int):
    for mask in range(1 << (n - 1)):
        yield tuple(j for j in range(1, n) if mask >> (j - 1) & 1)


# ---------------------------------------------------------------------------
# invariant suites
# ---------------------------------------------------------------------------

def check_classwise_extraction(max_order: int, samples_per_spec: int, seed: int) -> int:
    """Coefficient-wise images of module elements stay constant on classes:
    the induced partition of any class-combination is coarsened by the
    partition itself."""
    rng = random.Random(seed)
    checked = 0
    for spec in small_group_specs(max_order):
        for _ in range(samples_per_spec):
            part = random_partition(spec, rng)
            weights = [rng.randint(-3, 3) for _ in part.classes]
            coeffs = [0] * spec.order
            for w, cls in zip(weights, part.classes):
                for g in cls:
                    coeffs[g] = w
            v = GroupRingElement(spec, tuple(coeffs))
            assert part.refines(induced_partition(v)), (spec, part.to_text(), weights)
            checked += 1
    return checked


def check_spans_closure(max_order: int, samples_per_spec: int, seed: int) -> int:
    """Unions of classes are closed under intersection and union."""
    rng = random.Random(seed)
    checked = 0
    for spec in small_group_specs(max_order):
        for _ in range(samples_per_spec):
            part = random_partition(spec, rng)
            r = len(part.classes)
            pick1 = [i for i in range(r) if rng.random() < 0.5]
            pick2 = [i for i in range(r) if rng.random() < 0.5]
            t1 = {g for i in pick1 for g in part.classes[i]}
            t2 = {g for i in pick2 for g in part.classes[i]}
            assert part.spans(t1) and part.spans(t2)
            assert part.spans(t1 & t2), (spec, part.to_text())
            assert part.spans(t1 | t2), (spec, part.to_text())
            checked += 1
    return checked


def check_product_membership(max_order: int, samples_per_spec: int, seed: int) -> int:
    """Products of module elements have constant coefficients on the classes
    of the refined partition."""
    rng = random.Random(seed)
    checked = 0
    for spec in small_group_specs(max_order):
        for _ in range(samples_per_spec):
            part = random_partition(spec, rng)
            refined = refine(part)

            def combo() -> GroupRingElement:
                coeffs = [0] * spec.order
                for cls in part.classes:
                    w = rng.randint(0, 3)
                    for g in cls:
                        coeffs[g] = w
                return GroupRingElement(spec, tuple(coeffs))

            product = multiply(combo(), combo())
            assert refined.refines(induced_partition(product)), (spec, part.to_text())
            checked += 1
    return checked


def check_refine_monotone(max_order: int, samples_per_spec: int, seed: int) -> int:
    """Refining a finer partition keeps it finer, for both operators."""
    rng = random.Random(seed)
    checked = 0
    for spec in small_group_specs(max_order):
        for _ in range(samples_per_spec):
            fine = random_partition(spec, rng)
            coarse = coarsen(fine, rng)
            assert refine(fine).refines(refine(coarse)), (spec, fine.to_text())
            con = tuple(
                s for s in range(1, spec.order) if rng.random() < 0.4
            )
            assert refine_con(fine, con).refines(refine_con(coarse, con))
            checked += 1
    return checked


def _ceil_log2(m: int) -> int:
    return (m - 1).bit_length()


def check_power_membership(max_order: int, samples_per_spec: int, seed: int) -> int:
    """Multiplier images of classes appear within 2*ceil(log2 m) refinement
    rounds."""
    rng = random.Random(seed)
    checked = 0
    for spec in small_group_specs(max_order):
        parts = [random_partition(spec, rng) for _ in range(samples_per_spec)]
        if len(spec.moduli) == 1:
            parts += [
                initial_cayley_smodule(spec, con)
                for con in all_connection_sets(spec.order)
                if rng.random() < 0.2
            ]
        for part in parts:
            chain = [part]
            for m in unit_multipliers(spec):
                if m == 1:
                    continue
                depth = 2 * _ceil_log2(m)
                while len(chain) <= depth:
                    chain.append(refine(chain[-1]))
                target = chain[depth]
                for cls in part.classes:
                    image = {spec.scale(g, m) for g in cls}
                    assert target.spans(image), (spec, part.to_text(), m, cls)
            checked += 1
    return checked


def check_stability_preserved(max_order: int, samples_per_spec: int, seed: int) -> int:
    """Refinement keeps exponentiation-stability."""
    rng = random.Random(seed)
    checked = 0
    for spec in small_group_specs(max_order):
        for _ in range(samples_per_spec):
            stable = exponentiation_closure(random_partition(spec, rng))
            assert is_exponentiation_stable(stable)
            assert is_exponentiation_stable(refine(stable)), (spec, stable.to_text())
            checked += 1
    return checked


def check_wl_module_equivalence(n: int, sample_masks=None) -> int:
    """One pair-coloring round equals one module refinement round, and the
    stabilized results agree, for Cay(Z_n, S)."""
    spec = GroupSpec((n,))
    checked = 0
    sets = (
        all_connection_sets(n)
        if sample_masks is None
        else (tuple(j for j in range(1, n) if mask >> j & 1) for mask in sample_masks)
    )
    for con in sets:
        g = build_cayley(spec, con)
        coloring = initial_pair_coloring(g)
        module = induced_smodule(coloring, spec)
        assert module.classes == initial_cayley_smodule(spec, con).classes
        for _ in range(2):
            stepped = wl2_step(coloring)
            refined = refine(module)
            assert induced_smodule(stepped, spec).classes == refined.classes, (n, con)
            coloring, module = stepped, refined
        checked += 1
    return checked


def check_cr_con_equivalence(max_order: int, samples_per_spec: int, seed: int) -> int:
    """One color-refinement round on a Cayley graph equals one connection-set
    refinement round on the vertex partition."""
    rng = random.Random(seed)
    checked = 0
    for spec in small_group_specs(max_order):
        dgs = {}
        for _ in range(samples_per_spec):
            con = tuple(s for s in range(1, spec.order) if rng.random() < 0.4)
            if con not in dgs:
                dgs[con] = build_cayley(spec, con)
            part = random_partition(spec, rng)
            stepped = cr_step(dgs[con], coloring_from_partition(part))
            expected = refine_con(part, con)
            assert partition_from_coloring(stepped, spec).classes == expected.classes
            oracle = in_neighbor_split_oracle(spec, con, part)
            assert oracle.classes == expected.classes, (spec, con, part.to_text())
            checked += 1
    return checked


def check_cr_respects_automorphisms(primes: tuple[int, ...], seed: int) -> int:
    """A refinement round applied to a coloring invariant under one of the
    linear automorphisms x -> h*x + b stays invariant under it."""
    rng = random.Random(seed)
    checked = 0
    for p in primes:
        spec = GroupSpec((p,))
        for con in all_connection_sets(p):
            if not con:
                continue
            sd = stabilizer_subgroup(p, con)
            dg = build_cayley(spec, con)
            for h in sd.h_elements:
                b = rng.randrange(p)
                phi = [(h * x + b) % p for x in range(p)]
                # random coloring constant on the cycles of phi
                cycle = [-1] * p
                cycles = 0
                for x in range(p):
                    if cycle[x] == -1:
                        y = x
                        while cycle[y] == -1:
                            cycle[y] = cycles
                            y = phi[y]
                        cycles += 1
                merge = [rng.randrange(cycles) for _ in range(cycles)]
                labels = [merge[cycle[x]] for x in range(p)]
                base = coloring_from_partition(OrderedPartition.from_labels(spec, labels))
                assert all(base.colors[phi[x]] == base.colors[x] for x in range(p))
                after = cr_step(dg, base)
                assert all(
                    after.colors[phi[x]] == after.colors[x] for x in range(p)
                ), (p, con, h, b)
                checked += 1
    return checked


def check_automorphism_family(primes: tuple[int, ...]) -> int:
    """Every map x -> h*x + b with h in the stabilizer is an automorphism,
    and for nontrivial connection sets these are all of them."""
    checked = 0
    for p in primes:
        spec = GroupSpec((p,))
        for con in all_connection_sets(p):
            if not con:
                continue
            sd = stabilizer_subgroup(p, con)
            dg = build_cayley(spec, con)
            out_sets = [set(s) for s in dg.out_neighbors]
            for h in sd.h_elements:
                for b in range(p):
                    phi = [(h * x + b) % p for x in range(p)]
                    for u in range(p):
                        assert {phi[v] for v in out_sets[u]} == out_sets[phi[u]], (p, con, h, b)
            if len(con) < p - 1:
                cols = (0,) * p
                count = sum(1 for _ in color_bijections_oracle(dg, dg, cols, cols))
                assert count == p * len(sd.h_elements), (p, con, count)
            checked += 1
    return checked


def group_spectrum(
    sd: StabilizerData, values: Sequence[complex], tolerance: float = 1e-9
) -> OrderedPartition:
    """Group character indices whose eigenvalues agree within tolerance
    (transitively); at sane tolerances this reproduces eigenvalue_classes."""
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    p = sd.p
    parent = list(range(p))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(p):
        for j in range(i + 1, p):
            if abs(values[i] - values[j]) <= tolerance:
                parent[find(i)] = find(j)
    return OrderedPartition.from_labels(sd.spec, [find(k) for k in range(p)])


def check_spectrum_grouping(primes: tuple[int, ...], tolerance: float = 1e-9) -> int:
    """Tolerance grouping of the floating spectrum reproduces the exact coset
    classes."""
    checked = 0
    for p in primes:
        for con in all_connection_sets(p):
            if not con:
                continue
            sd = stabilizer_subgroup(p, con)
            values = numeric_spectrum(sd)
            assert values[0] == complex(len(con))
            grouped = group_spectrum(sd, values, tolerance)
            assert grouped.classes == eigenvalue_classes(sd).classes, (p, con)
            checked += 1
    return checked


def check_power_bijectivity(max_order: int) -> int:
    """x -> m*x permutes the group exactly when gcd(m, |G|) = 1."""
    checked = 0
    for spec in small_group_specs(max_order):
        n = spec.order
        for m in range(n):
            image = {spec.scale(g, m) for g in range(n)}
            assert (len(image) == n) == (math.gcd(m, n) == 1), (spec, m)
            checked += 1
    return checked
