"""Reference 2-WL and color-refinement engines plus the Cayley-graph bridge.

The pair-coloring engine is the generic oracle; for Cayley graphs the
partition-of-the-group view (see :mod:`cayleywl.group_ring`) computes the
same refinement much faster, and the two are cross-validated in tests.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from itertools import accumulate, chain, repeat
from operator import add, itemgetter
from typing import Callable, Iterable, Optional, Sequence, TextIO, Union

from .groups import GroupSpec, connection_set, gatherer, parse_group_spec
from .partition import (
    OrderedPartition,
    RefinementTrace,
    dense_rank,
    label_classes,
    rank_signatures,
    refine_to_stable,
)


class GraphFormatError(ValueError):
    """Malformed graph description; ``position`` is the offset in the input."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} at position {position}")
        self.position = position


@dataclass(frozen=True)
class DiGraph:
    """Directed graph without loops; vertices are ``0..n-1``."""

    n: int
    out_neighbors: tuple[tuple[int, ...], ...]
    in_neighbors: tuple[tuple[int, ...], ...]

    @classmethod
    def from_out_lists(cls, outs: Sequence[Sequence[int]]) -> DiGraph:
        """Digraph from ascending, duplicate-free out-lists of in-range heads.
        The in-lists come out ascending because tails are visited in order."""
        ins: list = [[] for _ in outs]
        for u, heads in enumerate(outs):
            for v in heads:
                ins[v].append(u)
        # each in-list is freed as soon as its tuple exists
        for v, tails in enumerate(ins):
            ins[v] = tuple(tails)
        return cls(len(outs), tuple(map(tuple, outs)), tuple(ins))

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> DiGraph:
        """Digraph from in-range, loop-free edges, duplicates dropped.  Every
        head is stored as the one int object of its vertex, not as the int
        the edge carried, as :meth:`GroupSpec.sum_row` rows share theirs."""
        ids = list(range(n))
        outs: list[list[int]] = [[] for _ in ids]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for {n} vertices")
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            outs[u].append(ids[v])
        # in place, so each edge list is freed as its sorted list replaces it
        for u, heads in enumerate(outs):
            outs[u] = sorted(set(heads))
        return cls.from_out_lists(outs)

    @cached_property
    def _out_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(s) for s in self.out_neighbors)

    @cached_property
    def _in_gatherers(self) -> tuple[itemgetter, ...]:
        """Per vertex, a getter of its in-neighbors' colors (see
        :func:`gatherer`), so a color-refinement round gathers each
        vertex with one call."""
        return tuple(map(gatherer, self.in_neighbors))

    def in_colors(self, colors: Sequence[int]) -> Iterable[tuple[int, ...]]:
        """Per vertex, the colors of its in-neighbors, as a tuple in in-list
        order: what a color-refinement round gathers."""
        # itemgetter.__call__ rather than operator.call, which needs Python 3.11
        return map(itemgetter.__call__, self._in_gatherers, repeat(colors))

    @cached_property
    def _in_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(s) for s in self.in_neighbors)

    @cached_property
    def _twins(self) -> tuple[tuple[int, ...], ...]:
        """Buckets of two or more twins, vertices with equal out- and in-lists
        or equal closed lists (each list with the vertex itself added):
        swapping two twins and fixing the rest is an automorphism."""
        buckets: dict[tuple, list[int]] = {}
        for v, (outs, ins) in enumerate(zip(self.out_neighbors, self.in_neighbors)):
            buckets.setdefault((False, outs, ins), []).append(v)
            closed = (True, tuple(sorted((*outs, v))), tuple(sorted((*ins, v))))
            buckets.setdefault(closed, []).append(v)
        return tuple(tuple(twins) for twins in buckets.values() if len(twins) > 1)

    @cached_property
    def _complement(self) -> DiGraph:
        """The loopless complement.  It has the same automorphisms, and
        the same twin buckets: open twins of the one are closed twins of
        the other."""
        everyone = set(range(self.n))
        return DiGraph.from_out_lists(
            [sorted(everyone - heads - {u}) for u, heads in enumerate(self._out_sets)]
        )

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._out_sets[u]

    @property
    def edge_count(self) -> int:
        return sum(len(s) for s in self.out_neighbors)


@dataclass(frozen=True)
class CayleyGraph:
    """Cayley graph descriptor: edges ``h -> s + h`` for connection elements s.

    Its lists are read off the sum rows of its spec.  Its in-gatherers come
    from :meth:`GroupSpec.sum_getter`, which keeps them on the spec up to the
    addition table's limit, so descriptors over one spec share them.  Its
    out-lists read a row through the getter the spec keeps, if any, and
    build it otherwise, adding none to the spec: a descriptor keeps no more
    rows than its in-gatherers hold."""

    spec: GroupSpec
    con: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "con", connection_set(self.spec, self.con))

    @property
    def n(self) -> int:
        return self.spec.order

    @cached_property
    def out_neighbors(self) -> Sequence[tuple[int, ...]]:
        """Per vertex h, its heads ``s + h`` in connection-set order, read
        off the sum rows of the connection elements: through the getter the
        spec keeps for s, if any, else from a fresh sum row."""
        spec = self.spec
        ids, kept = spec._ids, spec._sum_getters
        rows = [kept[s](ids) if s in kept else spec.sum_row(s) for s in self.con]
        return list(zip(*rows)) if rows else [()] * self.n

    @cached_property
    def _in_gatherers(self) -> tuple[itemgetter, ...]:
        """Per connection element s, a getter of the colors at ``x - s`` for
        every vertex x: in(x) = {x - s}, so the spec's getter of -s gathers them."""
        spec = self.spec
        return tuple(spec.sum_getter(spec.neg(s)) for s in self.con)

    def in_colors(self, colors: Sequence[int]) -> Iterable[tuple[int, ...]]:
        """Per vertex, the colors of its in-neighbors, as :meth:`DiGraph.in_colors`
        gathers them, one getter per connection element instead of per vertex."""
        if not self.con:
            return [()] * self.n
        return zip(*map(itemgetter.__call__, self._in_gatherers, repeat(colors)))

    def digraph(self) -> DiGraph:
        return build_cayley(self.spec, self.con)


Graph = Union[DiGraph, CayleyGraph]


def build_cayley(spec: GroupSpec, con: Iterable[int]) -> DiGraph:
    """Materialize the Cayley graph as a plain digraph."""
    rows = [spec.sum_row(s) for s in connection_set(spec, con)]
    return DiGraph.from_out_lists(
        [sorted(heads) for heads in zip(*rows)] if rows else [()] * spec.order
    )


def as_digraph(g: Graph) -> DiGraph:
    return g.digraph() if isinstance(g, CayleyGraph) else g


# ---------------------------------------------------------------------------
# pair colorings and 2-WL
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairColoring:
    """Color matrix on vertex pairs, stored row-major with ids ``0..k-1``."""

    n: int
    colors: tuple[int, ...]
    class_count: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.colors) != self.n * self.n:
            raise ValueError("pair coloring needs n*n entries")
        used = set(self.colors)
        if used != set(range(len(used))):
            raise ValueError("pair color ids must be 0..k-1 with every id used")
        object.__setattr__(self, "class_count", len(used))

    def color(self, i: int, j: int) -> int:
        return self.colors[i * self.n + j]

    def is_discrete(self) -> bool:
        return self.class_count == self.n * self.n


def _pair_category(fwd: bool, bwd: bool) -> int:
    """Structural category of an off-diagonal pair: non-edge 1, forward-only
    2, backward-only 3, bidirectional 4 (the diagonal is 0)."""
    return 1 + fwd + 2 * bwd


def initial_pair_coloring(g: Graph) -> PairColoring:
    """Structural coloring of all pairs: diagonal, non-edge, forward-only,
    backward-only, bidirectional; only realized categories receive ids.
    The pairs are read off the out-lists alone, summing the categories of
    :func:`_pair_category`: every pair starts as a non-edge, 1, and an arc
    u -> v adds 1 at (u, v) and 2 at (v, u)."""
    n = g.n
    raw = [1] * (n * n)
    for u, outs in enumerate(g.out_neighbors):
        for v in outs:
            raw[u * n + v] += 1
            raw[v * n + u] += 2
    raw[:: n + 1] = repeat(0, n)
    return PairColoring(n, dense_rank(raw))


# a 2-WL round on 512 vertices would hold 0.5 to 1.1 GB of signature entries
WL2_LIMIT = 256


def check_wl2_order(n: int) -> None:
    if n > WL2_LIMIT:
        raise ValueError(f"wl2 limited to graphs of at most {WL2_LIMIT} vertices, got {n}")


# cr at this size: Z2097152:1 with a vertex individualized ran 17 s at
# 737 MB max RSS, the same directed cycle read from a file 29 s at 898 MB
CR_LIMIT = 1 << 21


def check_cr_size(size: int) -> None:
    """``size`` is a file's vertex count, or a descriptor's n * max(1, |con|)."""
    if size > CR_LIMIT:
        raise ValueError(
            f"cr limited to graphs of at most {CR_LIMIT} vertices and arcs, got {size}"
        )


@lru_cache(maxsize=8)
def _triangle(n: int) -> tuple[tuple[tuple[int, int], ...], itemgetter, itemgetter]:
    """For n vertices: the pairs (i, j) with i <= j in row-major order, a
    getter of their entries from a row-major n * n sequence, and a getter
    that lays out n * n entries row-major from the entries of those pairs
    followed by the entries of their transposes."""
    upper = tuple((i, j) for i in range(n) for j in range(i, n))
    slot = {pair: s for s, pair in enumerate(upper)}
    half = len(upper)
    layout = [slot[i, j] if i <= j else half + slot[j, i] for i in range(n) for j in range(n)]
    return upper, gatherer([i * n + j for i, j in upper]), gatherer(layout)


def wl2_step(c: PairColoring) -> PairColoring:
    """One 2-WL round: recolor each pair (i, j) by its old color together with
    the multiset over all third vertices v of the color pair
    ``(c(i, v), c(v, j))``, gathered as ``c(i, v) * k + c(v, j)``.

    The coloring must be closed under transposition: the color of (i, j)
    determines the color of (j, i), as in every coloring that
    :func:`initial_pair_coloring` or this step returns; any other raises
    ``ValueError``.  Then the signature of (i, j) determines that of (j, i),
    so only the pairs with i <= j are gathered and ranked, and each distinct
    signature's mirror is gathered once, at the transpose of its first pair.
    Every pair's signature is among these and their mirrors, and the ids
    are the ranks among them: the ids of a round over all pairs.
    """
    n, k = c.n, c.class_count
    cols = c.colors
    left = [[x * k for x in cols[i * n : (i + 1) * n]] for i in range(n)]
    right = [cols[j::n] for j in range(n)]
    # right[i] is row i of the transpose; closed means one partner per color
    if len(set(zip(cols, chain.from_iterable(right)))) != k:
        raise ValueError("pair coloring is not closed under transposition")
    upper, upper_entries, layout = _triangle(n)
    ranked: list[list[tuple[int, ...]]] = []
    gathered = (map(add, left[i], right[j]) for i, j in upper)
    slots = rank_signatures(upper_entries(cols), gathered, ranked)
    distinct = ranked[0]
    # read backwards, so the first pair of each slot is written last
    firsts = dict(zip(reversed(slots), reversed(upper)))
    mirrors = [
        (cols[j * n + i], *sorted(map(add, left[j], right[i])))
        for i, j in map(firsts.__getitem__, range(len(distinct)))
    ]
    ids = {s: r for r, s in enumerate(sorted({*distinct, *mirrors}))}
    up = list(map(ids.__getitem__, distinct))
    down = list(map(ids.__getitem__, mirrors))
    return PairColoring(n, layout((*map(up.__getitem__, slots), *map(down.__getitem__, slots))))


def wl2_stabilize(g: Graph) -> RefinementTrace:
    """Iterate :func:`wl2_step` from the structural coloring to its fixed point.

    Graphs above :data:`WL2_LIMIT` vertices are rejected before any pair is
    colored: a round ranks n(n + 1)/2 signatures of n + 1 entries, and its
    mirrored signatures can double that.
    """
    check_wl2_order(g.n)
    return refine_to_stable(initial_pair_coloring(g), wl2_step)


def is_cayley_partition(c: PairColoring, spec: GroupSpec) -> bool:
    """Check translation invariance (every row g is row 0 read at ``h - g``
    for every element h, through the spec's getter of -g), then the diagonal
    forming a class and closure of the class set under transposition, which
    reduce to conditions on row 0."""
    n = spec.order
    if c.n != n:
        raise ValueError(f"pair coloring on {c.n} vertices does not fit {spec}")
    cols = c.colors
    row0 = cols[:n]
    for g, minus in enumerate(spec.negatives):
        if cols[g * n : (g + 1) * n] != spec.sum_getter(minus)(row0):
            return False
    # closed under transposition: the d of one color have -d of one color
    transposed = {(color, row0[spec.neg(d)]) for d, color in enumerate(row0)}
    return row0[0] not in row0[1:] and len(transposed) == len(set(row0))


def induced_smodule(c: PairColoring, spec: GroupSpec) -> OrderedPartition:
    """Partition of the group read off the identity row of a Cayley pair coloring."""
    if not is_cayley_partition(c, spec):
        raise ValueError("pair coloring is not a Cayley partition")
    n = spec.order
    return OrderedPartition.from_labels(spec, c.colors[0:n])


def pair_coloring_from_smodule(partition: OrderedPartition) -> PairColoring:
    """Rebuild the pair coloring whose identity row realizes the partition:
    the color of (g1, g2) is the class of g2 - g1, row g1 read through the
    spec's getter of -g1."""
    spec, member = partition.spec, partition.membership
    rows = (spec.sum_getter(minus)(member) for minus in spec.negatives)
    return PairColoring(spec.order, tuple(chain.from_iterable(rows)))


def initial_cayley_smodule(spec: GroupSpec, con: Iterable[int]) -> OrderedPartition:
    """Group partition matching the structural pair coloring of Cay(G, con):
    identity, bidirectional, forward-only, backward-only, and non-neighbor
    classes, with unrealized classes dropped."""
    fwd = [0] * spec.order
    for s in connection_set(spec, con):
        fwd[s] = 1
    # (g in con, -g in con), read through the negation table
    labels = [_pair_category(f, fwd[h]) for f, h in zip(fwd, spec.negatives)]
    labels[spec.identity] = 0
    return OrderedPartition.from_labels(spec, labels)


# ---------------------------------------------------------------------------
# vertex colorings and color refinement
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VertexColoring:
    """Vertex color vector with canonical ids ``0..k-1``, every id used."""

    n: int
    colors: tuple[int, ...]
    class_count: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.colors) != self.n:
            raise ValueError("vertex coloring needs one color per vertex")
        used = set(self.colors)
        if used != set(range(len(used))):
            raise ValueError("vertex color ids must be 0..k-1 with every id used")
        object.__setattr__(self, "class_count", len(used))

    def is_discrete(self) -> bool:
        return self.class_count == self.n

    def classes(self) -> tuple[tuple[int, ...], ...]:
        """Vertex classes in canonical order (by minimum vertex)."""
        return label_classes(self.colors)


def uniform_coloring(n: int) -> VertexColoring:
    return VertexColoring(n, (0,) * n)


def coloring_from_partition(partition: OrderedPartition) -> VertexColoring:
    return VertexColoring(partition.spec.order, partition.membership)


def partition_from_coloring(c: VertexColoring, spec: GroupSpec) -> OrderedPartition:
    if c.n != spec.order:
        raise ValueError(f"coloring on {c.n} vertices does not fit {spec}")
    return OrderedPartition.from_labels(spec, c.colors)


def cr_step(g: Graph, c: VertexColoring) -> VertexColoring:
    """One color-refinement round: each vertex is recolored by its old color
    plus the multiset of in-neighbor colors."""
    if g.n != c.n:
        raise ValueError("coloring does not match graph size")
    return VertexColoring(c.n, rank_signatures(c.colors, g.in_colors(c.colors)))


def cr_stabilize(g: Graph, c: VertexColoring) -> RefinementTrace:
    """Iterate color refinement to the stable coloring; a Cayley graph
    descriptor gathers each round through its sum rows."""
    return refine_to_stable(c, partial(cr_step, g))


def cr_refine(g: Graph, c: VertexColoring) -> RefinementTrace:
    """Color refinement from ``c`` to its stable coloring, round for round
    :func:`cr_stabilize`'s: equal ``rounds`` and ``class_counts``, with the
    stable classes in canonical order (each ascending, ordered by minimum)
    as ``final``.  It yields no color ids, so callers that rank by them keep
    :func:`cr_step`.

    Round r + 1 splits the cells of round r by their in-neighbor counts
    into every class of round r.  A cell of round r already agrees on its
    counts into every class of round r - 1, so only the non-largest parts
    of the cells that split in round r are gathered: the count into the
    largest part follows by subtraction.  Round 1 keys each vertex by its
    in-degree, which stands in for its count into the largest start class,
    and its hits on the other start classes.  A vertex lies in a gathered
    part at most log2(n) times, so a run costs O((m + n) log n).

    The cells live in one permutation list, each a run ``start``, ``size``
    of it.  Splits wait until a round's gather ends, so rounds stay
    synchronous, and a split moves only the vertices it regroups to the end
    of their cell's run: the rest keeps the cell in place.  A Cayley graph
    descriptor takes its out-lists from its sum rows; no in-lists are built.
    """
    n = g.n
    if c.n != n:
        raise ValueError("coloring does not match graph size")
    outs: Sequence[Sequence[int]] = g.out_neighbors
    # every in-degree of a descriptor is |con|, which splits nothing
    ins: Sequence[Sequence[int]] = () if isinstance(g, CayleyGraph) else g.in_neighbors

    members: list[list[int]] = [[] for _ in range(c.class_count)]
    for v, color in enumerate(c.colors):
        members[color].append(v)
    cell = list(c.colors)
    size = list(map(len, members))
    start = list(accumulate(size[:-1], initial=0)) if size else []
    perm = list(chain.from_iterable(members))
    del members
    pos = [0] * n
    for i, v in enumerate(perm):
        pos[v] = i
    counts = [len(size)]
    # round 1 gathers every start class but one largest, and the in-degree
    splitters = sorted(range(len(size)), key=size.__getitem__)[:-1]
    hits: dict[int, list[int]] = defaultdict(list)
    if len(set(map(len, ins))) > 1:
        hits.update((v, [~len(tails)]) for v, tails in enumerate(ins))
    while len(size) < n:
        for k, x in enumerate(splitters):
            at = start[x]
            for v in chain.from_iterable(map(outs.__getitem__, perm[at : at + size[x]])):
                hits[v].append(k)
        # a key is a vertex's splitter indices, one per hit, ascending;
        # popped, so each list is freed as its key replaces it
        touched: dict[int, dict[tuple[int, ...], list[int]]] = defaultdict(dict)
        while hits:
            v, key = hits.popitem()
            touched[cell[v]].setdefault(tuple(key), []).append(v)
        splitters = []
        for x, groups in touched.items():
            blocks = list(groups.values())
            rest = size[x] - sum(map(len, blocks))
            if not rest:
                if len(blocks) == 1:
                    continue
                # the largest block keeps the cell in place instead
                blocks.sort(key=len)
                rest = len(blocks.pop())
            parts = [(rest, x)]
            end = start[x] + size[x]
            for block in blocks:
                new = len(size)
                start.append(end - len(block))
                size.append(len(block))
                parts.append((len(block), new))
                for v in block:
                    end -= 1
                    w, i = perm[end], pos[v]
                    perm[i], pos[w] = w, i
                    perm[end], pos[v] = v, end
                    cell[v] = new
            size[x] = rest
            parts.remove(max(parts))
            splitters += [y for _, y in parts]
        del touched
        if len(size) == counts[-1]:
            break
        counts.append(len(size))
    final = sorted(tuple(sorted(perm[at : at + z])) for at, z in zip(start, size))
    return RefinementTrace(rounds=len(counts) - 1, class_counts=tuple(counts), final=tuple(final))


# ---------------------------------------------------------------------------
# graph input formats
# ---------------------------------------------------------------------------

def parse_cayley_graph(text: str) -> CayleyGraph:
    """Parse ``"Z9:1,3,6,8"`` or ``"Z4xZ4:(1,0),(3,0),..."`` into a Cayley graph.

    Residues must be canonical (in ``[0, n_i)``); the part before ``:`` is a
    group spec string.  Errors carry the offending input position.
    """
    colon = text.find(":")
    if colon < 0:
        raise GraphFormatError("expected ':' between group and connection set", len(text))
    try:
        spec = parse_group_spec(text[:colon])
    except ValueError:
        raise GraphFormatError(f"malformed group spec {text[:colon]!r}", 0) from None
    body = text[colon + 1 :]
    offset = colon + 1
    con: list[int] = []
    if body.strip():
        if len(spec.moduli) == 1:
            for chunk, pos in _split_commas(body, offset):
                value = _parse_int(chunk, pos)
                if not 0 <= value < spec.order:
                    raise GraphFormatError(f"residue {value} out of range", pos)
                con.append(value)
        else:
            for residues, pos in _split_tuples(body, offset):
                con.append(_residue_index(spec, residues, pos))
    if spec.identity in con:
        raise GraphFormatError("identity element not allowed in connection set", colon + 1)
    return CayleyGraph(spec, tuple(con))


def _residue_index(spec: GroupSpec, residues: tuple[int, ...], pos: int) -> int:
    """Element index of a residue tuple, each residue canonical for its factor."""
    if len(residues) != len(spec.moduli):
        raise GraphFormatError(f"expected {len(spec.moduli)} residues per element", pos)
    for r, modulus in zip(residues, spec.moduli):
        if not 0 <= r < modulus:
            raise GraphFormatError(f"residue {r} out of range", pos)
    return spec.index(residues)


def parse_vertex(token: str, g: Graph) -> int:
    """A vertex index, or one canonical residue tuple of a Cayley graph."""
    if token.startswith("("):
        if not isinstance(g, CayleyGraph):
            raise GraphFormatError("residue tuples need a Cayley graph input", 0)
        tuples = _split_tuples(token, 0)
        residues, pos = next(tuples)
        extra = next(tuples, None)
        if extra is not None:
            raise GraphFormatError("expected one residue tuple", extra[1])
        return _residue_index(g.spec, residues, pos)
    try:
        v = int(token)
    except ValueError:
        raise GraphFormatError(f"expected a vertex index, got {token!r}", 0) from None
    if not 0 <= v < g.n:
        raise GraphFormatError(f"vertex {v} out of range for {g.n} vertices", 0)
    return v


def _split_commas(body: str, offset: int):
    pos = 0
    for chunk in body.split(","):
        yield chunk.strip(), offset + pos
        pos += len(chunk) + 1


def _parse_int(chunk: str, pos: int) -> int:
    try:
        return int(chunk)
    except ValueError:
        raise GraphFormatError(f"expected integer, got {chunk!r}", pos) from None


def _split_tuples(body: str, offset: int):
    i = 0
    length = len(body)
    while i < length:
        while i < length and body[i] in " ,":
            i += 1
        if i >= length:
            break
        if body[i] != "(":
            raise GraphFormatError("expected '(' starting a residue tuple", offset + i)
        close = body.find(")", i)
        if close < 0:
            raise GraphFormatError("unclosed residue tuple", offset + i)
        inner = body[i + 1 : close]
        residues = tuple(
            _parse_int(chunk, pos) for chunk, pos in _split_commas(inner, offset + i + 1)
        )
        yield residues, offset + i
        i = close + 1


# parse_adjacency reads its stream about this many characters at a time
_LINE_CHUNK = 1 << 16


def _text_lines(stream: TextIO):
    r"""The stream's lines as ``splitlines`` gives them, read one chunk of
    :data:`_LINE_CHUNK` characters and the rest of its line at a time.  A
    chunk ends at a ``"\n"``, which ends a line alone or after ``"\r"``."""
    while chunk := stream.read(_LINE_CHUNK) + stream.readline():
        yield from chunk.splitlines()


def parse_adjacency(stream: TextIO, check_order: Optional[Callable[[int], None]] = None) -> DiGraph:
    """Parse the plain edge-list format from a text stream: a header line with
    the vertex count, then one ``u v`` pair per line.  Edge positions are
    1-based line numbers, blank lines included.  ``check_order``, when given,
    sees the vertex count after one chunk, before any per-vertex list."""
    numbered = enumerate(_text_lines(stream), start=1)
    lines = ((lineno, ln) for lineno, ln in numbered if ln and not ln.isspace())
    lineno, header = next(lines, (0, ""))
    header = header.strip()
    if not header:
        raise GraphFormatError("empty adjacency input", 0)
    try:
        n = int(header)
    except ValueError:
        raise GraphFormatError(f"expected vertex count, got {header!r}", 0) from None
    if n < 0:
        raise GraphFormatError(f"negative vertex count {n}", 0)
    if check_order is not None:
        check_order(n)

    def edges():
        nonlocal lineno
        for lineno, ln in lines:
            parts = ln.split()
            if len(parts) != 2:
                raise GraphFormatError(f"expected 'u v' on line {lineno}", lineno)
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                # raises, naming the first token that is not an integer
                u, v = _parse_int(parts[0], lineno), _parse_int(parts[1], lineno)
            yield u, v

    try:
        return DiGraph.from_edges(n, edges())
    except GraphFormatError:
        raise
    except ValueError as exc:
        # from_edges checks each edge as it draws it, so lineno is its line
        raise GraphFormatError(str(exc), lineno) from None
