"""Individualization-refinement: the 5-step isomorphism procedure, a decision
procedure for the Tinhofer property, and canonical labeling for prime-order
circulant graphs.

The property search prunes the choice tree to one representative per orbit of
the color-preserving automorphism group and skips every node (a pair of stable
copy colorings) whose subtree it has finished; both reductions preserve the
all-leaves verdict, since relabeling either copy by a color-preserving
automorphism maps failing runs to failing runs.  Without them the full pair
enumeration is hopeless already for complete graphs of modest size.  The
orbits are memoized per partition of a copy, which is all they depend on.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator, Optional, Sequence

from .groups import GroupSpec, is_prime
from .partition import dense_rank, label_classes, rank_signatures
from .wl import CayleyGraph, Graph, VertexColoring


def individualize(c: VertexColoring, *vertices: int) -> VertexColoring:
    """Give the vertices one shared fresh color, placed after all existing
    ids (a pair is one vertex in each copy of a disjoint union)."""
    colors = list(c.colors)
    fresh = c.class_count
    for v in vertices:
        colors[v] = fresh
    return VertexColoring(c.n, dense_rank(colors))


# ---------------------------------------------------------------------------
# color-preserving automorphism search
# ---------------------------------------------------------------------------

def color_bijections(
    dg: Graph, colors: Sequence[int], v0: int, w0: int
) -> Optional[tuple[int, ...]]:
    """The first color-preserving automorphism of dg with v0 -> w0, or None
    when there is none.

    It maps v0's weak component C onto w0's, D, and any color-preserving
    isomorphism C -> D extends to one fixing all else, by its inverse on D
    if D != C.  So only C is placed, breadth-first from v0, walking each
    placed vertex's out-list, then its in-list; a vertex reached from a
    placed u draws its candidates from the out- or in-list of u's image, as
    its arc leaves or enters u.  A candidate w for v is consistent when the
    placed out- and in-neighbors of w are exactly the images of the placed
    out- and in-neighbors of v: set intersections in O(degree) instead of
    an arc test against every placed vertex.  Placements are injective and
    keep arcs both ways, so one of C is onto D when |C| = |D|."""
    n = dg.n
    outs, ins = dg._out_sets, dg._in_sets
    mapping = list(range(n))  # the identity off C, until D takes the inverse
    placed, image = set(), set()
    mapped = mapping.__getitem__

    def consistent(v: int, w: int) -> bool:
        return (
            colors[v] == colors[w]
            and set(map(mapped, outs[v] & placed)) == outs[w] & image
            and set(map(mapped, ins[v] & placed)) == ins[w] & image
        )

    # breadth-first order of C, then of D if D != C: (v, u, lists) draws v's
    # candidates from lists[mapping[u]], the image's out- or in-list; v0 draws w0
    steps: list[tuple[int, int, tuple[tuple[int, ...], ...]]] = []
    seen = [False] * n
    head = size = 0  # steps are also the queue, which stops once all are seen
    for root in (v0, w0):
        if seen[root]:
            break
        seen[root] = True
        steps.append((root, -1, ()))
        while head < len(steps) < n:
            u = steps[head][0]
            head += 1
            for lists in (dg.out_neighbors, dg.in_neighbors):
                for v in lists[u]:
                    if not seen[v]:
                        seen[v] = True
                        steps.append((v, u, lists))
        size = size or len(steps)  # |C|
    if len(steps) not in (size, 2 * size):  # |D| != |C|
        return None

    # tried[k]: candidates tried at level k; a resumed level first undoes its placement
    k, tried = 0, [0] * size
    while 0 <= k < size:
        v, u, lists = steps[k]
        if tried[k]:
            placed.discard(v)
            image.discard(mapping[v])
        candidates = lists[mapping[u]] if k else (w0,)
        for i in range(tried[k], len(candidates)):
            w = candidates[i]
            if w not in image and consistent(v, w):
                tried[k] = i + 1
                mapping[v] = w
                placed.add(v)
                image.add(w)
                k += 1
                break
        else:
            tried[k] = 0
            k -= 1
    if k == size < len(steps):  # D != C takes the inverse
        for v, _, _ in steps[:size]:
            mapping[mapping[v]] = v
    return tuple(mapping) if k == size else None


def coloring_orbits(dg: Graph, colors: Sequence[int]) -> tuple[int, ...]:
    """Orbit label per vertex under the color-preserving automorphism group.

    A digraph or descriptor with more than half of all arcs is searched as
    its ``_complement``, which has the same automorphisms.  Twins of one
    color (its ``_twins``) are merged first, as sets, in any list order.
    Orbits are discovered by automorphism searches between the orbit roots
    of each color class; every found automorphism merges all its vertex
    orbits at once.  A vertex that is no longer its own root is skipped on
    either side: its root's search decided the same pair.
    """
    n = dg.n
    if 2 * dg.edge_count > n * (n - 1):
        dg = dg._complement
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

    for twins in dg._twins:
        first: dict[int, int] = {}
        for v in twins:
            union(first.setdefault(colors[v], v), v)
    for members in label_classes(colors):
        for i, v0 in enumerate(members):
            for v in members[i + 1 :]:
                if parent[v0] != v0 or parent[v] != v:
                    continue
                perm = color_bijections(dg, colors, v0, v)
                if perm is not None:
                    for u, w in enumerate(perm):
                        if u != w:
                            union(u, w)
    return tuple(find(v) for v in range(n))


# ---------------------------------------------------------------------------
# Tinhofer procedure
# ---------------------------------------------------------------------------

def _eligible(c_g: Sequence[int], c_h: Sequence[int]) -> Optional[list[int]]:
    """The leaf rule on a stable coloring of a disjoint union, given by its
    copies' colors: None when their color multisets differ, else the colors
    held twice or more per copy, ascending; an empty list is a leaf.

    A leaf's color-matching bijection is an isomorphism: partners share a
    color, so in a stable coloring their in-neighbors' color multisets are
    equal, and with every color held once per copy the bijection maps in(v)
    onto in(perm v).
    """
    ascending = sorted(c_g)
    if ascending != sorted(c_h):
        return None
    # a repeated color sits next to itself
    return list(dict.fromkeys(c for c, d in zip(ascending, ascending[1:]) if c == d))


@dataclass(frozen=True)
class IsoResult:
    verdict: str  # "isomorphic" | "non-isomorphic"
    witness: Optional[tuple[int, ...]]
    history: tuple[tuple[int, int], ...]


def tinhofer_iso_test(g: Graph, h: Graph) -> IsoResult:
    """Run the individualization-refinement isomorphism procedure on g ⊎ h,
    refining each copy alone (see :func:`_refine_copy`).

    A stable coloring holding every color once per copy yields the
    color-matching bijection, an isomorphism (see :func:`_eligible`), as the
    witness; copies whose color multisets differ are non-isomorphic.
    Individualized vertices are chosen canonically: least eligible color
    id, least vertex index in each copy.  A descriptor is read through its
    sum rows; no digraph is built.
    """
    c_g, certificate_g = _refine_copy(g)
    c_h, certificate_h = _refine_copy(h)
    history: tuple[tuple[int, int], ...] = ()
    # equal certificates can still hide unequal multiplicities, which _eligible sees
    while certificate_g == certificate_h:
        eligible = _eligible(c_g, c_h)
        if eligible is None:
            break
        if not eligible:
            where_h = dict(zip(c_h, range(h.n)))
            return IsoResult("isomorphic", tuple(map(where_h.__getitem__, c_g)), history)
        v, w = c_g.index(eligible[0]), c_h.index(eligible[0])
        c_g, certificate_g = _refine_copy(g, (c_g, certificate_g[-1]), v)
        c_h, certificate_h = _refine_copy(h, (c_h, certificate_h[-1]), w)
        history += ((v, w),)
    return IsoResult("non-isomorphic", None, history)


@dataclass(frozen=True)
class TinhoferReport:
    status: str  # "true" | "false" | "budget-exceeded"
    certificate: Optional[tuple[tuple[int, int], ...]]
    nodes: int


# a copy run: final colors, and the sorted distinct signatures of each round
_CopyRun = tuple[tuple[int, ...], list[list[tuple[int, ...]]]]
# a stable copy coloring, and the last certificate entry of the run that gave it
_Stable = tuple[tuple[int, ...], list[tuple[int, ...]]]
# a search node, the stable colorings of both copies, and a choice sequence
_Node = tuple[tuple[int, ...], tuple[int, ...]]
_Choices = tuple[tuple[int, int], ...]
# the last certificate entries of a node's copy runs
_Lasts = tuple[list[tuple[int, ...]], list[tuple[int, ...]]]


def _refine_copy(
    dg: Graph, parent: Optional[_Stable] = None, v: Optional[int] = None, *, alone: bool = False
) -> _CopyRun:
    """Color refinement of dg, a digraph or a Cayley descriptor, from the
    uniform coloring or, given a stable coloring ``parent = (colors,
    last)``, from ``colors`` with v individualized: the final colors and
    the certificate, the sorted distinct signatures of every round.

    On a disjoint union whose copies start from its halves, with v
    individualized in one copy and a partner in the other, the union ranks
    each round's signatures among both copies'.  While the copies'
    signature sets agree round by round, the union's ids are each copy's
    ids, and both stop in the same round, so equal certificates give the
    union's stable coloring as the two final colorings concatenated.
    Otherwise some color is held in one copy only, and the union run ends
    in a color-multiset mismatch.  A nonempty union whose copies share
    every color is never discrete, so it always confirms its fixed point,
    and so does the certificate, even on a discrete copy.

    A graph refined ``alone``, not as a copy of a union, stops at a
    discrete coloring without the confirming round, as
    :func:`cayleywl.partition.refine_to_stable` does: no round refines
    it, and it is a leaf.  Its certificate keeps the last entry only,
    which is all a further individualization reads.

    ``colors`` is the final coloring of a copy run and ``last`` the last
    entry of that run's certificate.  v's color is held by another vertex
    too, as at a splitting node, so the fresh id ``k = len(last)``
    individualizes v as :func:`individualize` would, with no ids to
    re-rank.

    Round 1 is read off the start; :func:`rank_signatures` gathers from
    round 2 on.  From the uniform coloring, x's signature is 0 followed by
    d(x) zeros, d(x) its in-degree, and such tuples sort as their lengths,
    so round 1 ranks the in-degrees.  From a stable coloring c, the
    confirming round that produced ``last`` kept every id, so ``last``
    holds one signature per class in id order: ``last[b]`` is
    (b, sorted c over in(x)) for every x of class b.  Individualizing v
    changes what round 1 gathers only at the out-neighbors x of v, where
    one c(v) turns into k, the largest id: every such x of class b has the
    hit signature of b, ``last[b]`` with one c(v) removed and k appended.
    v, not its own in-neighbor, gathers as before under the fresh id, so
    its signature (k, *last[c(v)][1:]) sorts last.  The hit signature of b
    sorts after ``last[b]``: with j the last position of c(v) in
    ``last[b]``, the two agree before j, and at j the hit one holds the
    next larger item or k.  It sorts before ``last[b + 1]`` by its first
    item.  So round 1's sorted distinct signatures are ``last`` with each
    hit signature inserted after its class's own, which is dropped when
    out(v) and v cover the class, and v's appended: O(k + deg(v)·d) work
    for signatures of length at most d, and one relabel of the n ids,
    with the ids and the entry a full gather would give.
    """
    certificate: list[list[tuple[int, ...]]] = []
    if parent is None:
        degrees = tuple(map(len, dg.in_colors((0,) * dg.n)))
        certificate.append([(0,) * (d + 1) for d in sorted(set(degrees))])
        refined, count = dense_rank(degrees), min(dg.n, 1)
    else:
        colors, last = parent
        k, fresh = len(last), colors[v]
        outs = dg.out_neighbors[v]
        # met[b]: v's out-neighbors in class b; the new ids are own[b] for
        # the other vertices of class b and hit[b] for these
        met: dict[int, int] = {}
        for x in outs:
            met[colors[x]] = met.get(colors[x], 0) + 1
        first: list[tuple[int, ...]] = []
        own: list[int] = []
        hit: dict[int, int] = {}
        start = 0
        for b in sorted(met):
            own += range(len(first), len(first) + b - start)
            first += last[start:b]
            own.append(len(first))
            signature = last[b]
            if colors.count(b) > met[b] + (b == fresh):
                first.append(signature)
            j = signature.index(fresh, 1)
            hit[b] = len(first)
            first.append((*signature[:j], *signature[j + 1 :], k))
            start = b + 1
        own += range(len(first), len(first) + k - start)
        first += last[start:]
        first.append((k, *last[fresh][1:]))
        relabeled = list(map(own.__getitem__, colors))
        for x in outs:
            relabeled[x] = hit[colors[x]]
        relabeled[v] = len(first) - 1
        certificate.append(first)
        refined, count = tuple(relabeled), k + 1
    discrete = dg.n if alone else -1
    while len(certificate[-1]) not in (count, discrete):
        count = len(certificate[-1])
        if alone:
            certificate.clear()
        refined = rank_signatures(refined, dg.in_colors(refined), certificate)
    return refined, certificate


# a copy run of Z_p:1 takes p rounds of O(p) work and keeps every round's
# signatures: tinhofer-check Z2048:1 takes 3.7 s and 214 MB
TINHOFER_LIMIT = 2048


def check_tinhofer_order(n: int) -> None:
    if n > TINHOFER_LIMIT:
        raise ValueError(f"tinhofer-check limited to at most {TINHOFER_LIMIT} vertices, got {n}")


def has_tinhofer_property(g: Graph, budget: int = 1_000_000) -> TinhoferReport:
    """Exhaustively check the individualization-refinement procedure against
    the graph itself: at every stable non-discrete coloring, every eligible
    color class and every orbit-distinct cross-copy pair is tried, and the
    two copies' color multisets must never diverge.  Every leaf induces an
    automorphism (see :func:`_eligible`), so a divergence is the only failure.

    Returns the first failing choice sequence as a certificate.  The choice
    tree is explored depth-first in canonical order, so the reported
    certificate is the least one among orbit representatives.  A node is
    the pair of stable copy colorings; a child is refined copy by copy (see
    :func:`_refine_copy`), each copy once per individualized vertex at its
    node.  A failure ends the search, so every node whose children are all
    done holds no failure below it, and a later visit skips it.  Copy runs
    and orbit queries read a descriptor through its sum rows, and no
    digraph is built; graphs above :data:`TINHOFER_LIMIT` vertices are
    rejected before any row is.
    """
    check_tinhofer_order(g.n)
    n = g.n
    finished: set[_Node] = set()
    orbit_memo: dict[tuple[int, ...], tuple[int, ...]] = {}

    def orbits(copy_colors: tuple[int, ...]) -> tuple[int, ...]:
        # orbits depend only on the partition (each is labeled by its least
        # vertex), keyed by the colors relabeled in first-occurrence order;
        # both copies are g, so one memo serves both
        first = dict(zip(dict.fromkeys(copy_colors), range(n)))
        key = tuple(map(first.__getitem__, copy_colors))
        if key not in orbit_memo:
            orbit_memo[key] = coloring_orbits(g, copy_colors)
        return orbit_memo[key]

    def children(
        prefix: _Choices, node: _Node, lasts: _Lasts, eligible: list[int]
    ) -> Iterator[tuple[_Choices, Optional[_Node], Optional[_Lasts]]]:
        """The children of a splitting node in canonical order, each with
        its choice sequence and its copies' last certificate entries; None
        stands for a child whose copy certificates differ, a color-multiset
        mismatch.  One vertex per orbit is tried in each copy: the least,
        which labels its orbit."""
        (c_g, c_h), (last_g, last_h) = node, lasts
        orbit_g = orbits(c_g)
        orbit_h = orbit_g if c_g == c_h else orbits(c_h)
        for color in eligible:
            # this color's copy runs by vertex, shared when the copies agree
            runs_g: dict[int, _CopyRun] = {}
            runs_h = runs_g if c_g == c_h else {}
            vs = [v for v in range(n) if c_g[v] == color and orbit_g[v] == v]
            ws = [w for w in range(n) if c_h[w] == color and orbit_h[w] == w]
            for v, w in product(vs, ws):
                if v not in runs_g:
                    runs_g[v] = _refine_copy(g, (c_g, last_g), v)
                if w not in runs_h:
                    runs_h[w] = _refine_copy(g, (c_h, last_h), w)
                final_g, certificate_g = runs_g[v]
                final_h, certificate_h = runs_h[w]
                choices = prefix + ((v, w),)
                if certificate_g == certificate_h:
                    yield choices, (final_g, final_h), (certificate_g[-1], certificate_h[-1])
                else:
                    yield choices, None, None
        finished.add((c_g, c_h))

    root, certificate = _refine_copy(g)
    stack = [iter([((), (root, root), (certificate[-1],) * 2)])]
    del certificate  # a node keeps its last certificate entries only
    nodes = 0
    while stack:
        visit = next(stack[-1], None)
        if visit is None:
            stack.pop()
            continue
        choices, node, lasts = visit
        nodes += 1
        if nodes > budget:
            return TinhoferReport("budget-exceeded", None, nodes)
        if node in finished:
            continue
        eligible = None if node is None else _eligible(*node)
        if eligible is None:
            return TinhoferReport("false", choices, nodes)
        if eligible:
            stack.append(children(choices, node, lasts, eligible))
    return TinhoferReport("true", None, nodes)


# ---------------------------------------------------------------------------
# canonical labeling for prime-order circulants
# ---------------------------------------------------------------------------

# the code has p^2 bits and a run of Z_p:1 p rounds of O(p) work:
# canon Z2039:1,2038 takes 3.0 s and 28 MB on a 2-vCPU VM
CANON_LIMIT = 2048


@dataclass(frozen=True)
class CanonicalForm:
    """Vertex order plus the row-major adjacency bit string it induces."""

    order: tuple[int, ...]
    code: str

    def __post_init__(self) -> None:
        n = len(self.order)
        if sorted(self.order) != list(range(n)):
            raise ValueError("order must be a permutation of the vertices")
        if len(self.code) != n * n or set(self.code) - {"0", "1"}:
            raise ValueError("code must be an n*n bit string")

    @property
    def hex(self) -> str:
        """Code as lowercase hex; bits padded with trailing zeros to a nibble."""
        bits = self.code + "0" * (-len(self.code) % 4)
        return f"{int(bits, 2):0{len(bits) // 4}x}" if bits else ""


def canonical_form_prime_circulant(spec: GroupSpec, con: Iterable[int]) -> CanonicalForm:
    """Canonical labeling of Cay(Z_p, con) by individualization-refinement.

    While the stable coloring is not discrete, the least vertex of the
    least non-singleton color class is individualized (at most twice).  The
    vertex order sorts by final color id.  Any vertex of the class gives the
    same code, as the automorphisms act transitively on color classes.
    Edgeless and complete graphs never refine and take the identity order.
    The graph is its descriptor: runs gather through its sum rows, each
    refined alone (see :func:`_refine_copy`) from the one-class root, as
    every in-degree is |con|.  Orders above :data:`CANON_LIMIT` are
    rejected before any sum row is built.
    """
    if len(spec.moduli) != 1 or not is_prime(spec.order):
        raise ValueError(f"canonical labeling requires a prime-order cyclic group, got {spec}")
    p = spec.order
    if p > CANON_LIMIT:
        raise ValueError(f"canon limited to groups of order at most {CANON_LIMIT}, got {p}")
    g = CayleyGraph(spec, tuple(con))

    def labeled(order: tuple[int, ...]) -> CanonicalForm:
        position = [0] * p
        for j, i in enumerate(order):
            position[i] = j
        bits = bytearray(b"0") * (p * p)
        for row, i in enumerate(order):
            for j in g.out_neighbors[i]:
                bits[row * p + position[j]] = 49  # ord("1")
        return CanonicalForm(order, bits.decode())

    degree = len(g.con)
    if degree in (0, p - 1):
        return labeled(tuple(range(p)))
    # every vertex has in-degree |con|: the root run confirms the one class
    colors, last = (0,) * p, [(0,) * (degree + 1)]
    for depth in range(3):
        repeated = _eligible(colors, colors)
        if not repeated:
            return labeled(tuple(sorted(range(p), key=colors.__getitem__)))
        if depth == 2:
            raise AssertionError("prime circulant not discrete after two individualizations")
        colors, (last,) = _refine_copy(g, (colors, last), colors.index(repeated[0]), alone=True)
