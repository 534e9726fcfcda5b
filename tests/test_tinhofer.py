import contextlib
import hashlib
import inspect
import random
import sys
import weakref

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cayleywl import (
    CayleyGraph,
    GroupSpec,
    canonical_form_prime_circulant,
    has_tinhofer_property,
    individualize,
    tinhofer_iso_test,
    uniform_coloring,
)
from cayleywl import tinhofer
from cayleywl.partition import label_classes
from cayleywl.tinhofer import CanonicalForm, TinhoferReport, color_bijections, coloring_orbits
from cayleywl.wl import DiGraph, build_cayley, cr_stabilize
import invariants
from invariants import (
    brute_force_iso_oracle,
    color_bijections_oracle,
    coloring_orbits_oracle,
    disjoint_union,
    is_isomorphism,
    refine_copy_oracle,
    relabeled,
    tinhofer_iso_test_oracle,
    tinhofer_search_oracle,
    transposed_in_neighbors,
    union_judge,
)

Z7 = GroupSpec((7,))


def test_individualize():
    c = individualize(uniform_coloring(5), 0)
    assert c.classes() == ((0,), (1, 2, 3, 4))
    again = individualize(c, 0)
    assert again.classes() == c.classes()
    c7 = individualize(uniform_coloring(7), 3)
    assert c7.classes() == ((0, 1, 2, 4, 5, 6), (3,))


def test_individualize_fresh_color_is_last():
    c = individualize(uniform_coloring(5), 2)
    assert c.colors[2] == 1 and c.class_count == 2


def test_disjoint_union():
    g = build_cayley(Z7, (1,))
    u = disjoint_union(g, g)
    assert u.n == 14 and u.edge_count == 14
    assert u.has_edge(0, 1) and u.has_edge(7, 8) and not u.has_edge(6, 7)
    assert u.in_neighbors == transposed_in_neighbors(u)
    a = DiGraph.from_edges(3, [(0, 2), (1, 0), (1, 2)])
    b = build_cayley(GroupSpec((2, 4)), (1, 6))
    mixed = disjoint_union(a, b)
    assert mixed.out_neighbors == a.out_neighbors + tuple(
        tuple(3 + v for v in heads) for heads in b.out_neighbors
    )
    assert mixed.in_neighbors == transposed_in_neighbors(mixed)


def test_iso_test_multiplier_pair():
    result = tinhofer_iso_test(CayleyGraph(Z7, (1, 2, 4)), CayleyGraph(Z7, (3, 5, 6)))
    assert result.verdict == "isomorphic"
    assert result.witness is not None
    oracle = brute_force_iso_oracle(CayleyGraph(Z7, (1, 2, 4)), CayleyGraph(Z7, (3, 5, 6)))
    assert oracle is not None


def test_iso_test_undirected_pair():
    result = tinhofer_iso_test(CayleyGraph(Z7, (1, 6)), CayleyGraph(Z7, (2, 5)))
    assert result.verdict == "isomorphic"


def test_iso_test_witness_is_verified():
    g = CayleyGraph(Z7, (1, 2, 4)).digraph()
    h = CayleyGraph(Z7, (3, 5, 6)).digraph()
    result = tinhofer_iso_test(g, h)
    perm = result.witness
    for u in range(7):
        assert {perm[v] for v in g.out_neighbors[u]} == set(h.out_neighbors[perm[u]])


def test_iso_test_degree_split():
    cycle = CayleyGraph(Z7, (1, 6))
    complete = CayleyGraph(Z7, (1, 2, 3, 4, 5, 6))
    assert tinhofer_iso_test(cycle, complete).verdict == "non-isomorphic"


def test_iso_test_size_mismatch():
    assert tinhofer_iso_test(CayleyGraph(Z7, (1,)), CayleyGraph(GroupSpec((5,)), (1,))).verdict == "non-isomorphic"


def _iso_pairs():
    """All 4 096 ordered pairs of Z7 connection sets, then 300 seeded pairs of
    digraphs on 1..9 vertices: a relabeled copy, or an unrelated graph with
    as many edges."""
    sets = [tuple(s for s in range(1, 7) if mask >> (s - 1) & 1) for mask in range(64)]
    for a in sets:
        for b in sets:
            yield CayleyGraph(Z7, a), CayleyGraph(Z7, b)
    rng = random.Random(8)
    for _ in range(300):
        n = rng.randint(1, 9)
        arcs = [(u, v) for u in range(n) for v in range(n) if u != v]
        m = rng.randint(0, len(arcs))
        g = DiGraph.from_edges(n, rng.sample(arcs, m))
        if rng.random() < 0.5:
            pi = list(range(n))
            rng.shuffle(pi)
            h, _ = relabeled(g, [0] * n, pi)
        else:
            h = DiGraph.from_edges(n, rng.sample(arcs, m))
        yield g, h


# sha256 of every (verdict, witness, history) over _iso_pairs
_ISO_DIGEST = "0c49e8829e1e55f61279a2839541a0f9b4d2771aa31e4b534bff5aeef2fd6806"


def test_iso_test_runs_are_pinned():
    """Verdict, witness and the individualized pairs are output: the digest
    fixes the least-color, least-vertex choice at every step."""
    digest = hashlib.sha256()
    count = 0
    for g, h in _iso_pairs():
        result = tinhofer_iso_test(g, h)
        digest.update(f"{result.verdict} {result.witness} {result.history}\n".encode())
        count += 1
    assert count == 4396
    assert digest.hexdigest() == _ISO_DIGEST


def _sized_iso_pairs():
    """Two 0-vertex graphs, K1 and 2K1, a pair whose copy runs agree round
    by round while their color multisets differ, then 300 seeded digraph
    pairs of independent sizes 0..9."""
    yield DiGraph.from_edges(0, []), DiGraph.from_edges(0, [])
    yield DiGraph.from_edges(1, []), DiGraph.from_edges(2, [])
    # both split once, by the signatures (0,) and (0, 0), into in-degrees 0
    # and 1; in-degree 1 is held twice on the left and once on the right
    yield DiGraph.from_edges(4, [(0, 1), (0, 2)]), DiGraph.from_edges(4, [(0, 1)])
    rng = random.Random(17)
    for _ in range(300):
        pair = []
        for n in (rng.randint(0, 9), rng.randint(0, 9)):
            arcs = [(u, v) for u in range(n) for v in range(n) if u != v]
            pair.append(DiGraph.from_edges(n, rng.sample(arcs, rng.randint(0, len(arcs)))))
        yield tuple(pair)


def test_iso_test_matches_union_oracle():
    """Copy runs in lockstep give the verdict, witness and history of the
    run on the whole union, also between graphs of different sizes."""
    verdicts = set()
    for g, h in _sized_iso_pairs():
        result = tinhofer_iso_test(g, h)
        assert result == tinhofer_iso_test_oracle(g, h), (g.out_neighbors, h.out_neighbors)
        verdicts.add(result.verdict)
    assert verdicts == {"isomorphic", "non-isomorphic"}


def test_tinhofer_property_complete_graph():
    k5 = CayleyGraph(GroupSpec((5,)), (1, 2, 3, 4))
    report = has_tinhofer_property(k5)
    assert report.status == "true"


def test_tinhofer_property_prime_circulant():
    report = has_tinhofer_property(CayleyGraph(Z7, (1, 6)))
    assert report.status == "true"
    assert report.nodes <= 1_000_000


def test_tinhofer_property_counterexample():
    spec = GroupSpec((4, 4))
    con = tuple(spec.index(r) for r in ((1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)))
    report = has_tinhofer_property(CayleyGraph(spec, con))
    assert report.status == "false"
    assert report.certificate[0] == (0, 0)


def test_tinhofer_budget():
    spec = GroupSpec((4, 4))
    con = tuple(spec.index(r) for r in ((1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)))
    report = has_tinhofer_property(CayleyGraph(spec, con), budget=3)
    assert report.status == "budget-exceeded"
    assert report.nodes > 3


def test_tinhofer_property_rejects_digraphs_above_its_size_limit():
    edgeless = DiGraph.from_out_lists([()] * (tinhofer.TINHOFER_LIMIT + 1))
    with pytest.raises(ValueError, match="limited to at most 2048 vertices, got 2049"):
        has_tinhofer_property(edgeless)


class _TrackedCertificate(list):
    """A copy-run certificate that a weakref can follow."""


def test_tinhofer_search_frees_copy_runs_color_by_color(monkeypatch):
    """On the 64-cycle the node after the first choice has 31 eligible
    colors of one orbit each; a node that kept every color's copy run until
    its last child finished would hold 32 runs, certificates and all."""
    alive = [0]
    peak = [0]
    calls = []
    refine_copy = tinhofer._refine_copy

    def freed():
        alive[0] -= 1

    def tracked(dg, parent=None, v=None):
        final, certificate = refine_copy(dg, parent, v)
        certificate = _TrackedCertificate(certificate)
        weakref.finalize(certificate, freed)
        alive[0] += 1
        peak[0] = max(peak[0], alive[0])
        calls.append(v)
        return final, certificate

    monkeypatch.setattr(tinhofer, "_refine_copy", tracked)
    report = has_tinhofer_property(CayleyGraph(GroupSpec((64,)), (1, 63)))
    assert report == TinhoferReport("true", None, 33)
    assert calls == [None, 0, *range(31, 0, -1)]
    assert peak[0] <= 3


def test_coloring_orbits_vertex_transitive():
    g = build_cayley(Z7, (1, 6))
    orbits = coloring_orbits(g, (0,) * 7)
    assert len(set(orbits)) == 1


def test_coloring_orbits_individualized():
    g = build_cayley(Z7, (1, 6))
    orbits = coloring_orbits(g, (1, 0, 0, 0, 0, 0, 0))
    # reflection through 0 pairs k with -k
    groups = {}
    for v, o in enumerate(orbits):
        groups.setdefault(o, set()).add(v)
    assert {frozenset(s) for s in groups.values()} == {
        frozenset({0}),
        frozenset({1, 6}),
        frozenset({2, 5}),
        frozenset({3, 4}),
    }


def test_graph_automorphism_count_directed_cycle():
    g = build_cayley(GroupSpec((5,)), (1,))
    assert sum(1 for _ in color_bijections_oracle(g, g, (0,) * 5, (0,) * 5)) == 5


def _searched_pairs(monkeypatch) -> list[tuple[int, int]]:
    """The (v0, w0) of every orbit query from now on."""
    searched = []

    def counted(dg, colors, v0, w0):
        searched.append((v0, w0))
        return color_bijections(dg, colors, v0, w0)

    monkeypatch.setattr(tinhofer, "color_bijections", counted)
    return searched


def test_coloring_orbits_search_only_orbit_roots(monkeypatch):
    """Arcs 0->2 and 1->3, no twins: the search 0 -> 1 finds the swap
    (0 1)(2 3), so 3 is no longer a root and 0 -> 3 is decided by 0 -> 2."""
    g = DiGraph.from_edges(4, [(0, 2), (1, 3)])
    assert g._twins == ()
    searched = _searched_pairs(monkeypatch)
    assert coloring_orbits(g, (0, 0, 0, 0)) == (0, 0, 2, 2)
    assert searched == [(0, 1), (0, 2)]


@pytest.mark.parametrize(
    "edges",
    [
        [(0, 2), (1, 2)],  # 0 and 1 have equal out- and in-lists
        [(0, 1), (1, 0), (0, 2), (1, 2)],  # ... equal closed lists
    ],
)
def test_coloring_orbits_search_no_pair_of_twins(monkeypatch, edges):
    g = DiGraph.from_edges(3, edges)
    assert g._twins == ((0, 1),)
    searched = _searched_pairs(monkeypatch)
    assert coloring_orbits(g, (0, 0, 0)) == (0, 0, 2)
    assert searched == [(0, 2)]
    # twins of different colors are no orbit pair
    searched.clear()
    assert coloring_orbits(g, (0, 1, 0)) == (0, 1, 2)
    assert searched == [(0, 2)]


def test_oracles_do_not_call_the_production_search(monkeypatch):
    def refused(*args):
        raise AssertionError("oracle called tinhofer.color_bijections")

    monkeypatch.setattr(tinhofer, "color_bijections", refused)
    path = DiGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    reversed_path = DiGraph.from_edges(4, [(3, 2), (2, 1), (1, 0)])
    assert brute_force_iso_oracle(path, reversed_path) == (3, 2, 1, 0)
    assert brute_force_iso_oracle(path, build_cayley(GroupSpec((4,)), (1,))) is None
    assert invariants.check_automorphism_family((5, 7)) == 78


def test_canonical_form_iso_pair_equal_codes():
    a = canonical_form_prime_circulant(Z7, (1, 2, 4))
    b = canonical_form_prime_circulant(Z7, (3, 5, 6))
    assert a.code == b.code
    assert sorted(a.order) == list(range(7))


def test_canonical_form_non_iso_distinct():
    a = canonical_form_prime_circulant(Z7, (1, 2, 4))
    c = canonical_form_prime_circulant(Z7, (1, 6))
    assert a.code != c.code


def test_canonical_form_trivial_sets():
    empty = canonical_form_prime_circulant(Z7, ())
    assert empty.order == tuple(range(7))
    assert empty.code == "0" * 49
    full = canonical_form_prime_circulant(GroupSpec((5,)), (1, 2, 3, 4))
    assert full.code.count("1") == 20


def test_canonical_form_rejects_non_prime():
    with pytest.raises(ValueError):
        canonical_form_prime_circulant(GroupSpec((9,)), (1, 8))
    with pytest.raises(ValueError):
        canonical_form_prime_circulant(GroupSpec((4, 4)), (1,))


def test_canonical_form_hex():
    form = canonical_form_prime_circulant(GroupSpec((2,)), (1,))
    assert form.code == "0110"
    assert form.hex == "6"
    # leading zero nibbles are kept, trailing bits pad to a nibble
    assert CanonicalForm((1, 0, 2), "000000001").hex == "008"
    assert CanonicalForm((), "").hex == ""


def test_oracle_identity():
    g = CayleyGraph(Z7, (1, 2, 4))
    assert brute_force_iso_oracle(g, g) == tuple(range(7))


def test_oracle_multiplier_witness():
    g = CayleyGraph(Z7, (1, 2, 4))
    h = CayleyGraph(Z7, (3, 5, 6))
    perm = brute_force_iso_oracle(g, h)
    dg, dh = g.digraph(), h.digraph()
    for u in range(7):
        assert {perm[v] for v in dg.out_neighbors[u]} == set(dh.out_neighbors[perm[u]])


def test_oracle_negative_and_limits():
    c5 = build_cayley(GroupSpec((5,)), (1, 4))
    p5 = DiGraph.from_edges(5, [(i, i + 1) for i in range(4)] + [(i + 1, i) for i in range(4)])
    assert brute_force_iso_oracle(c5, p5) is None
    big = build_cayley(GroupSpec((12,)), (1, 11))
    with pytest.raises(ValueError):
        brute_force_iso_oracle(big, big)


def test_generic_oracle_finds_relabeling():
    g = DiGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    h = DiGraph.from_edges(4, [(3, 2), (2, 1), (1, 0)])
    perm = brute_force_iso_oracle(g, h)
    assert perm is not None
    for u in range(4):
        assert {perm[v] for v in g.out_neighbors[u]} == set(h.out_neighbors[perm[u]])


def test_color_bijections_respect_forced_pairs():
    g = build_cayley(Z7, (1, 6))
    perm = color_bijections(g, (0,) * 7, 0, 3)
    assert perm is not None and perm[0] == 3 and is_isomorphism(g, g, perm)
    # the directed 7-cycle with 0 individualized has only the identity
    cycle = build_cayley(Z7, (1,))
    colors = (1,) + (0,) * 6
    assert color_bijections(cycle, colors, 1, 1) == tuple(range(7))
    assert color_bijections(cycle, colors, 1, 2) is None
    assert color_bijections(cycle, colors, 0, 1) is None


def test_color_bijections_place_a_long_cycle():
    """The directed 1 200-cycle with 0 -> 1 forced: 1 199 placements in a
    row, more levels than the default recursion limit has frames."""
    n = 1200
    cycle = build_cayley(GroupSpec((n,)), (1,))
    assert color_bijections(cycle, (0,) * n, 0, 1) == tuple((v + 1) % n for v in range(n))


def test_search_runs_under_a_low_recursion_limit(monkeypatch):
    """200 disjoint directed triangles with every vertex its own orbit: the
    first path individualizes one vertex per triangle, 200 levels down to a
    leaf, which the budget lets through and then stops the search.  The
    recursion limit leaves 50 frames above the test's own."""
    triangles = 200
    n = 3 * triangles
    dg = DiGraph.from_edges(n, [(v, v - v % 3 + (v + 1) % 3) for v in range(n)])
    monkeypatch.setattr(tinhofer, "coloring_orbits", lambda dg, colors: tuple(range(dg.n)))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 50)
    try:
        report = has_tinhofer_property(dg, budget=triangles + 1)
    finally:
        sys.setrecursionlimit(limit)
    assert report == TinhoferReport("budget-exceeded", None, triangles + 2)


# ---------------------------------------------------------------------------
# the neighborhood-driven search against the class-scanning oracle
# ---------------------------------------------------------------------------

def _draw_digraph(draw, n: int) -> DiGraph:
    """A sparse digraph on n vertices or, half the time, its complement."""
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = set(draw(st.lists(st.sampled_from(pairs), max_size=2 * n))) if pairs else set()
    if draw(st.booleans()):
        edges = set(pairs) - edges
    return DiGraph.from_edges(n, sorted(edges))


@st.composite
def random_digraphs(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    colors = tuple(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    return _draw_digraph(draw, n), colors


@st.composite
def bijection_cases(draw):
    """(dg, colors, v0, w0) for a random colored digraph."""
    dg, colors = draw(random_digraphs())
    vertex = st.integers(0, dg.n - 1)
    return dg, colors, draw(vertex), draw(vertex)


_PATH = DiGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
_TWO_CYCLES = DiGraph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
_EDGELESS = DiGraph.from_edges(6, [])
# rigid; the out-neighbor half of the consistency check alone lets 0 -> 1 -> 2 -> 0 through
_RIGID = DiGraph.from_edges(3, [(0, 2), (1, 0), (1, 2), (2, 1)])
# an isolated vertex beside an arc: placing {0} at 1 keeps every placed arc,
# but 1's component is larger
_POINT_AND_ARC = DiGraph.from_edges(3, [(1, 2)])
# two directed triangles and an arc, which an automorphism between the
# triangles leaves fixed
_THREE_COMPONENTS = DiGraph.from_edges(8, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (6, 7)])


@given(bijection_cases())
@example((_PATH, (0,) * 4, 0, 0))
@example((_PATH, (0,) * 4, 0, 3))
@example((_RIGID, (0,) * 3, 0, 0))
@example((_RIGID, (0,) * 3, 0, 1))
@example((_TWO_CYCLES, (0,) * 6, 0, 4))
@example((_TWO_CYCLES, (0,) * 6, 1, 3))
@example((_POINT_AND_ARC, (0,) * 3, 0, 1))
@example((_THREE_COMPONENTS, (0,) * 8, 1, 5))
# v0 and w0 differ in color; then two vertices of the middle class
@example((_EDGELESS, (0, 0, 1, 1, 1, 2), 5, 3))
@example((_EDGELESS, (0, 0, 1, 1, 1, 2), 2, 4))
def test_color_bijections_match_oracle(case):
    """The search answers exactly when the oracle finds an automorphism
    with v0 -> w0, and its answer is one, which fixes every vertex outside
    the weak components of v0 and w0."""
    dg, colors, v0, w0 = case
    got = color_bijections(dg, colors, v0, w0)
    want = next(color_bijections_oracle(dg, dg, colors, colors, [(v0, w0)]), None)
    assert (got is None) == (want is None)
    if got is not None:
        assert got[v0] == w0 and is_isomorphism(dg, dg, got)
        assert all(colors[got[v]] == colors[v] for v in range(dg.n))
        moved = _weak_component(dg, v0) | _weak_component(dg, w0)
        assert all(got[v] == v for v in range(dg.n) if v not in moved)


def test_color_bijections_move_two_edges_of_a_perfect_matching():
    """The matching {v, v + m} on 2m vertices: the query 0 -> 1 swaps the
    edges {0, m} and {1, m + 1} and fixes the other m - 2 edges, and all
    vertices share one orbit."""
    m = 8
    matching = build_cayley(GroupSpec((2 * m,)), (m,))
    perm = color_bijections(matching, (0,) * (2 * m), 0, 1)
    assert perm is not None and is_isomorphism(matching, matching, perm)
    assert {v for v in range(2 * m) if perm[v] != v} == {0, 1, m, m + 1}
    assert coloring_orbits(matching, (0,) * (2 * m)) == (0,) * (2 * m)


@given(random_digraphs())
@example((_PATH, (0,) * 4))
@example((_RIGID, (0,) * 3))
@example((_TWO_CYCLES, (0,) * 6))
@example((_TWO_CYCLES, (0, 1, 0, 0, 0, 0)))
def test_coloring_orbits_match_oracle_on_digraphs(case):
    dg, colors = case
    assert coloring_orbits(dg, colors) == coloring_orbits_oracle(dg, colors)


@st.composite
def digraphs_with_twins(draw, max_n=8):
    """A random digraph with one to three planted twins, each a new vertex
    with the out- and in-lists of an earlier one and, half the time, arcs
    both ways to it, which makes the two closed twins; colored uniformly
    or at random."""
    n = draw(st.integers(1, max_n - 1))
    edges = {(u, v) for u in range(n) for v in _draw_digraph(draw, n).out_neighbors[u]}
    for twin in range(n, n + draw(st.integers(1, min(3, max_n - n)))):
        v = draw(st.integers(0, twin - 1))
        edges |= {(twin, b) for a, b in edges if a == v} | {(a, twin) for a, b in edges if b == v}
        if draw(st.booleans()):
            edges |= {(v, twin), (twin, v)}
    dg = DiGraph.from_edges(twin + 1, sorted(edges))
    colors = draw(st.lists(st.integers(0, 2), min_size=dg.n, max_size=dg.n) | st.just([0] * dg.n))
    return dg, tuple(colors)


@given(digraphs_with_twins())
def test_coloring_orbits_match_oracle_with_twins(case):
    dg, colors = case
    assert dg._twins
    assert coloring_orbits(dg, colors) == coloring_orbits_oracle(dg, colors)


@st.composite
def dense_digraphs(draw, max_n=9):
    """A digraph of arc probability 0.6 to 0.95, colored uniformly or at
    random."""
    n = draw(st.integers(2, max_n))
    density = draw(st.floats(0.6, 0.95))
    rng = draw(st.randoms(use_true_random=False))
    arcs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < density]
    colors = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n) | st.just([0] * n))
    return DiGraph.from_edges(n, arcs), tuple(colors)


@given(dense_digraphs())
def test_coloring_orbits_match_oracle_on_dense_digraphs(case):
    dg, colors = case
    assert coloring_orbits(dg, colors) == coloring_orbits_oracle(dg, colors)


def test_complement_has_the_other_arcs_and_the_same_twins():
    rng = random.Random(27)
    for n in range(8):
        arcs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < 0.7]
        dg = DiGraph.from_edges(n, arcs)
        other = dg._complement
        assert all(
            other.has_edge(u, v) != dg.has_edge(u, v) for u in range(n) for v in range(n) if u != v
        )
        assert other.in_neighbors == transposed_in_neighbors(other)
        assert set(other._twins) == set(dg._twins)


def test_coloring_orbits_search_the_complement_of_a_dense_graph(monkeypatch):
    """The complement of Cay(Z3^3, {1, 2, 5, 7}) has 22 of 26 arcs per
    vertex; its orbit queries run on Cay(Z3^3, {1, 2, 5, 7}) itself."""
    spec = GroupSpec((3, 3, 3))
    dense = build_cayley(spec, set(range(1, 27)) - {1, 2, 5, 7})
    searched = []
    search = tinhofer.color_bijections

    def recorded(dg, colors, v0, w0):
        searched.append(dg)
        return search(dg, colors, v0, w0)

    monkeypatch.setattr(tinhofer, "color_bijections", recorded)
    colors = (0,) + (1,) * 26
    sparse = build_cayley(spec, (1, 2, 5, 7))
    assert coloring_orbits(dense, colors) == coloring_orbits(sparse, colors)
    assert searched and {id(dg) for dg in searched} == {id(dense._complement), id(sparse)}
    assert dense._complement.out_neighbors == sparse.out_neighbors


def _is_automorphism(g: DiGraph, colors, perm) -> bool:
    return all(colors[perm[v]] == colors[v] for v in range(g.n)) and all(
        g.has_edge(perm[u], perm[v]) == g.has_edge(u, v) for u in range(g.n) for v in range(g.n)
    )


def _weak_component(g: DiGraph, root: int) -> set[int]:
    seen, stack = {root}, [root]
    while stack:
        u = stack.pop()
        for v in g.out_neighbors[u] + g.in_neighbors[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def _connected(g: DiGraph) -> bool:
    return len(_weak_component(g, 0)) == g.n


@st.composite
def individualized_cayley_graphs(draw, groups=((2, 8), (2, 2, 4), (3, 3, 3))):
    """(moduli, con, marks) for a Cayley graph over one of the groups
    (default Z2xZ8, Z2xZ2xZ4 or Z3^3), directed or undirected, sparse or
    dense, with one or two vertices to individualize."""
    moduli = draw(st.sampled_from(list(groups)))
    spec = GroupSpec(moduli)
    elements = range(1, spec.order)
    con = draw(st.sets(st.sampled_from(elements), min_size=1, max_size=5))
    if draw(st.booleans()):
        con |= {spec.neg(s) for s in con}
    if draw(st.booleans()):
        con = set(elements) - con
    marks = draw(st.lists(st.integers(0, spec.order - 1), min_size=1, max_size=2))
    return moduli, con, marks


def _individualized_stable(case):
    """(dg, stable colors) of a connected case of individualized_cayley_graphs."""
    moduli, con, marks = case
    dg = build_cayley(GroupSpec(moduli), con)
    assume(_connected(dg))
    coloring = uniform_coloring(dg.n)
    for v in marks:
        coloring = individualize(cr_stabilize(dg, coloring).final, v)
    return dg, cr_stabilize(dg, coloring).final.colors


@given(individualized_cayley_graphs())
# dense or directed cases where a check without its in-neighbor half finds a non-automorphism
@example(((2, 8), {1, 3, 5, 7, 8, 10, 11, 12, 13, 14, 15}, [6]))
@example(((2, 2, 4), set(range(1, 15)), [5]))
@example(((3, 3, 3), {3, 4, 26}, [23]))
def test_coloring_orbits_match_oracle_on_cayley_graphs(case):
    """Orbits of stable node colorings reached by individualization, and
    the automorphism each orbit query looks for.  (The oracle places
    vertices in index order, so on disconnected or uniformly colored graphs
    it can backtrack for minutes.)"""
    dg, stable = _individualized_stable(case)
    assert coloring_orbits(dg, stable) == coloring_orbits_oracle(dg, stable)
    classes: dict[int, list[int]] = {}
    for v, c in enumerate(stable):
        classes.setdefault(c, []).append(v)
    for first, *rest in classes.values():
        for v in rest:
            found = color_bijections(dg, stable, first, v)
            want = next(color_bijections_oracle(dg, dg, stable, stable, [(first, v)]), None)
            assert (found is None) == (want is None)
            assert found is None or _is_automorphism(dg, stable, found)


# ---------------------------------------------------------------------------
# orbits depend on the partition only, which keys the search's orbit memo
# ---------------------------------------------------------------------------

def _recolor(draw, colors):
    """colors under a random injective map of the color ids."""
    ids = sorted(set(colors))
    images = draw(st.lists(st.integers(0, 99), min_size=len(ids), max_size=len(ids), unique=True))
    sigma = dict(zip(ids, images))
    return tuple(sigma[c] for c in colors)


@given(random_digraphs(), st.data())
def test_coloring_orbits_ignore_color_ids_on_digraphs(case, data):
    dg, colors = case
    recolored = _recolor(data.draw, colors)
    want = coloring_orbits_oracle(dg, colors)
    assert coloring_orbits(dg, recolored) == coloring_orbits(dg, colors) == want


@given(individualized_cayley_graphs(), st.data())
def test_coloring_orbits_ignore_color_ids_on_cayley_graphs(case, data):
    dg, stable = _individualized_stable(case)
    recolored = _recolor(data.draw, stable)
    want = coloring_orbits_oracle(dg, stable)
    assert coloring_orbits(dg, recolored) == coloring_orbits(dg, stable) == want


# ---------------------------------------------------------------------------
# copy-by-copy refinement against the union-per-pair search it replaces
# ---------------------------------------------------------------------------

# one arc on three vertices: copies individualized at 0 and 2 split into three
# classes each, by different signatures, so a certificate of class counts
# alone would pass the child the union run rejects
_ONE_ARC = DiGraph.from_edges(3, [(0, 1)])


def _search_digraphs():
    """The one-arc digraph, then 200 seeded digraphs on 1..9 vertices."""
    yield _ONE_ARC
    rng = random.Random(16)
    for _ in range(200):
        n = rng.randint(1, 9)
        arcs = [(u, v) for u in range(n) for v in range(n) if u != v]
        yield DiGraph.from_edges(n, rng.sample(arcs, rng.randint(0, len(arcs))))


def test_search_matches_union_oracle_on_digraphs():
    statuses = set()
    for dg in _search_digraphs():
        for budget in (3, 10, 1_000_000):
            report = has_tinhofer_property(dg, budget)
            assert report == tinhofer_search_oracle(dg, budget), (dg, budget)
            statuses.add(report.status)
    assert statuses == {"true", "false", "budget-exceeded"}


def _search_cayley_graphs():
    """Six seeded connection sets, half of them closed under negation, per
    group: Z2xZ8, Z2xZ2xZ4, Z3^3 and Z4xZ4."""
    rng = random.Random(17)
    for moduli in ((2, 8), (2, 2, 4), (3, 3, 3), (4, 4)):
        spec = GroupSpec(moduli)
        for i in range(6):
            con = set(rng.sample(range(1, spec.order), rng.randint(1, spec.order - 1)))
            if i % 2:
                con |= {spec.neg(s) for s in con}
            yield CayleyGraph(spec, tuple(sorted(con)))


def test_search_matches_union_oracle_on_cayley_graphs():
    spec = GroupSpec((4, 4))
    counterexample = CayleyGraph(spec, (4, 12, 1, 3, 5, 15))
    report = has_tinhofer_property(counterexample)
    assert report.status == "false"
    assert report == tinhofer_search_oracle(counterexample)
    for g in _search_cayley_graphs():
        for budget in (3, 10, 300):
            assert has_tinhofer_property(g, budget) == tinhofer_search_oracle(g, budget), (g, budget)


# ---------------------------------------------------------------------------
# search tree shape: status, nodes and certificate are part of the output
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "moduli, con, status, nodes, certificate, orbit_calls",
    [
        ((4, 4), (4, 12, 1, 3, 5, 15), "false", 11, ((0, 0), (2, 2), (8, 9)), 4),
        ((2, 2, 2, 2), (8, 4, 2, 1), "true", 66, None, 8),
        ((3, 3, 3), (9, 18, 3, 6, 1, 2), "true", 189, None, 8),
        ((15,), (5, 10), "true", 2744, None, 62),
        ((2, 8), (8, 10, 14), "true", 283, None, 20),
        ((2, 8), (2, 3, 4, 5, 6, 10, 11, 12, 13, 14), "true", 6852, None, 114),
    ],
    ids=[
        "counterexample",
        "hypercube-Z2^4",
        "Z3^3",
        "Z15:5,10",
        "Z2xZ8:8,10,14",
        "Z2xZ8:2-6,10-14",
    ],
)
def test_tinhofer_search_tree_is_pinned(
    monkeypatch, moduli, con, status, nodes, certificate, orbit_calls
):
    """Status, nodes and certificate are output.  Orbits are memoized by the
    partition of a copy, shared by both copies, so coloring_orbits runs once
    per distinct partition of a copy at a splitting node.  A splitting node
    refines each of its copy colorings once per tried vertex, so a search
    that tries every pair makes exactly one copy run per distinct (copy
    coloring, vertex) of each node."""
    queried, orbits_of, split, runs = [], {}, [], []
    eligible_of = tinhofer._eligible
    refine_copy = tinhofer._refine_copy

    def counted_orbits(dg, colors):
        queried.append(label_classes(colors))
        orbits_of[queried[-1]] = coloring_orbits(dg, colors)
        return orbits_of[queried[-1]]

    def recorded_eligible(c_g, c_h):
        found = eligible_of(c_g, c_h)
        if found:
            split.append((c_g, c_h, found))
        return found

    def counted_refine_copy(dg, parent=None, v=None):
        # the root is one run with no vertex individualized
        if v is not None:
            runs.append((parent[0], v))
        return refine_copy(dg, parent, v)

    monkeypatch.setattr(tinhofer, "coloring_orbits", counted_orbits)
    monkeypatch.setattr(tinhofer, "_eligible", recorded_eligible)
    monkeypatch.setattr(tinhofer, "_refine_copy", counted_refine_copy)
    report = has_tinhofer_property(CayleyGraph(GroupSpec(moduli), con))
    assert (report.status, report.nodes, report.certificate) == (status, nodes, certificate)
    halves = {label_classes(half) for c_g, c_h, _ in split for half in (c_g, c_h)}
    assert len(queried) == len(set(queried)) == len(halves) == orbit_calls
    tried = set()
    needed = 0
    for c_g, c_h, found in split:
        keys = set()
        for half in (c_g, c_h):
            orbit = orbits_of[label_classes(half)]
            keys.update((half, v) for v in range(len(half)) if half[v] in found and orbit[v] == v)
        tried |= keys
        needed += len(keys)
    # every pair is tried below a true verdict; a failure ends the search early
    assert set(runs) <= tried and len(runs) <= needed
    assert status != "true" or len(runs) == needed


# ---------------------------------------------------------------------------
# a copy run's first round, read off its start, against a full gather
# ---------------------------------------------------------------------------

def _assert_run_matches_oracle(dg, parent=None, v=None, refine_copy=tinhofer._refine_copy):
    """The copy run, and the oracle's from the same start: colors and
    certificates equal, list for list."""
    got = refine_copy(dg, parent, v)
    want = refine_copy_oracle(dg, parent[0] if parent else (0,) * dg.n, v)
    assert got == want, (dg.out_neighbors, parent and parent[0], v)
    assert type(got[0]) is tuple
    return got


def _assert_run_alone_matches(g, run, parent=None, v=None):
    """The run alone from the same start ends with the run's colors and
    keeps one certificate entry: the run's last, or its second to last when
    the colors are discrete and the run confirmed them in one more round."""
    colors, certificate = run
    discrete = len(set(colors)) == g.n and len(certificate) > 1
    want = (colors, [certificate[-2 if discrete else -1]])
    assert tinhofer._refine_copy(g, parent, v, alone=True) == want, (parent and parent[0], v)


def _assert_runs_match(dg, parent=None, v=None, descriptor=None):
    """The run on dg against the oracle, and against it the runs on the
    descriptor dg was built from, when given; each run alone as well."""
    run = _assert_run_matches_oracle(dg, parent, v)
    _assert_run_alone_matches(dg, run, parent, v)
    if descriptor is not None:
        assert tinhofer._refine_copy(descriptor, parent, v) == run, (parent and parent[0], v)
        _assert_run_alone_matches(descriptor, run, parent, v)
    return run


def _walk_copy_runs(dg, rng, depth, descriptor=None):
    """The root run, every child of its stable coloring, then one seeded
    path of up to depth individualizations, each run checked against the
    oracle (see :func:`_assert_runs_match`); the depth reached."""
    colors, certificate = _assert_runs_match(dg, descriptor=descriptor)
    for v in range(dg.n):
        if colors.count(colors[v]) > 1:
            _assert_runs_match(dg, (colors, certificate[-1]), v, descriptor)
    for reached in range(depth):
        shared = [v for v in range(dg.n) if colors.count(colors[v]) > 1]
        if not shared:
            return reached
        v = rng.choice(shared)
        colors, certificate = _assert_runs_match(dg, (colors, certificate[-1]), v, descriptor)
    return depth


def test_copy_runs_match_full_gather_on_digraphs():
    """2 000 seeded digraphs on 0..16 vertices, of arc density 0 to 1, each
    walked 0..4 individualizations deep."""
    rng = random.Random(27)
    in_degrees, depths = set(), set()
    for _ in range(2000):
        n = rng.randint(0, 16)
        density = rng.random()
        arcs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < density]
        dg = DiGraph.from_edges(n, arcs)
        in_degrees.update(min(len(ins), 2) for ins in dg.in_neighbors)
        depths.add(_walk_copy_runs(dg, rng, rng.randint(0, 4)))
    assert in_degrees == {0, 1, 2} and depths == {0, 1, 2, 3, 4}


# groups of the copy-run walks on descriptors: orders 1 and 2, an
# elementary abelian group per size, a prime circulant and a mixed product
_WALK_GROUPS = ((1,), (2,), (2, 2), (13,), (2,) * 5, (2, 8), (4, 4), (3, 3, 3))


def _walk_sets(spec, rng):
    """The empty set, every one-element set, then twenty seeded connection
    sets, directed or closed under negation, when the group has two or
    more non-identity elements."""
    yield from ((), *((s,) for s in range(1, spec.order)))
    for i in range(20 if spec.order > 2 else 0):
        con = set(rng.sample(range(1, spec.order), rng.randint(1, spec.order - 1)))
        if i % 2:
            con |= {spec.neg(s) for s in con}
        yield tuple(con)


def test_copy_runs_match_full_gather_on_cayley_graphs():
    """The sets of :func:`_walk_sets` per group of :data:`_WALK_GROUPS`,
    each walked four deep on its digraph and its descriptor alike."""
    rng = random.Random(27)
    for moduli in _WALK_GROUPS:
        spec = GroupSpec(moduli)
        for con in _walk_sets(spec, rng):
            _walk_copy_runs(build_cayley(spec, con), rng, 4, CayleyGraph(spec, con))


def _assert_descriptor_lists_match(spec, con, rng):
    g, dg = CayleyGraph(spec, con), build_cayley(spec, con)
    colors = rng.sample(range(3 * spec.order), spec.order)
    ins = list(g.in_colors(colors))
    assert len(g.out_neighbors) == len(ins) == dg.n
    for v, (heads, gathered) in enumerate(zip(g.out_neighbors, ins)):
        assert sorted(heads) == list(dg.out_neighbors[v])
        assert sorted(gathered) == sorted(colors[u] for u in dg.in_neighbors[v])
    assert g == CayleyGraph(spec, con) and hash(g) == hash(CayleyGraph(spec, con))


def test_descriptor_lists_match_its_digraph():
    """Vertex by vertex, a descriptor's out-lists and in-neighbor colors
    hold what its digraph's do, as multisets, under distinct colors; its
    caches keep it equal to a fresh descriptor.  A group's sets share one
    spec, checked as its kept sum-row getters fill and again once it keeps
    every row; Z2xZ8:1,2,9 and Z3xZ3:1,3,4 are directed, in(x) != out(x)."""
    rng = random.Random(32)
    directed = {(2, 8): [(1, 2, 9)], (3, 3): [(1, 3, 4)]}
    for moduli in (*_WALK_GROUPS, (3, 3)):
        spec = GroupSpec(moduli)
        sets = [*_walk_sets(spec, rng), *directed.get(moduli, [])]
        for con in sets:
            _assert_descriptor_lists_match(spec, con, rng)
        # the one-element sets have gathered through every row but the identity's
        assert sorted(spec._sum_getters) == list(range(1, spec.order))
        for con in sets:
            _assert_descriptor_lists_match(spec, con, rng)


def test_copy_runs_match_full_gather_on_the_pinned_trees(monkeypatch):
    """Every copy run of the six pinned search trees, the roots included."""
    runs = []
    refine_copy = tinhofer._refine_copy

    def checked(dg, parent=None, v=None):
        runs.append(v)
        return _assert_run_matches_oracle(dg, parent, v, refine_copy)

    monkeypatch.setattr(tinhofer, "_refine_copy", checked)
    for moduli, con in (
        ((4, 4), (4, 12, 1, 3, 5, 15)),
        ((2, 2, 2, 2), (8, 4, 2, 1)),
        ((3, 3, 3), (9, 18, 3, 6, 1, 2)),
        ((15,), (5, 10)),
        ((2, 8), (8, 10, 14)),
        ((2, 8), (2, 3, 4, 5, 6, 10, 11, 12, 13, 14)),
    ):
        has_tinhofer_property(CayleyGraph(GroupSpec(moduli), con))
    assert runs.count(None) == 6 and len(runs) > 10_000


def test_first_round_of_a_root_run_ranks_in_degrees():
    """From the uniform coloring, round 1's signatures are 0 and one 0 per
    in-neighbor, ascending; the 0-vertex graph confirms an empty round."""
    assert tinhofer._refine_copy(DiGraph.from_edges(0, [])) == ((), [[]])
    # in-degrees 0, 2, 1, 1
    star = DiGraph.from_edges(4, [(0, 1), (2, 1), (1, 2), (0, 3)])
    _, certificate = _assert_run_matches_oracle(star)
    assert certificate[0] == [(0,), (0, 0), (0, 0, 0)]


def test_first_round_of_a_child_run_inserts_hit_signatures():
    """On the 4-cycle 0-1-2-3-0, individualizing 0 hits 1 and 3, whose
    signature follows the one their class keeps on 2.  Individualizing 1
    next hits 0 and 2, each the whole of its class, so those classes keep
    only their hit signatures."""
    cycle = DiGraph.from_edges(4, [(u, (u + s) % 4) for u in range(4) for s in (1, 3)])
    colors, certificate = _assert_run_matches_oracle(cycle)
    assert (colors, certificate) == ((0, 0, 0, 0), [[(0, 0, 0)]])
    colors, certificate = _assert_run_matches_oracle(cycle, (colors, certificate[-1]), 0)
    assert certificate[0] == [(0, 0, 0), (0, 0, 1), (1, 0, 0)]
    assert colors == (2, 1, 0, 1)
    colors, certificate = _assert_run_matches_oracle(cycle, (colors, certificate[-1]), 1)
    assert certificate == [[(0, 1, 3), (1, 0, 2), (2, 1, 3), (3, 0, 2)]]
    assert colors == (2, 3, 0, 1)


def test_canon_starts_from_the_root_run_and_refines_alone(monkeypatch):
    """On every connection set of Z_p, p in {2, 3, 5, 7, 11, 13}, canon's
    first individualization starts from the stable coloring and last
    certificate entry of the root run on the built digraph, and every run
    of canon is a run alone.  Edgeless and complete sets make no run."""
    starts = []
    refine_copy = tinhofer._refine_copy

    def recorded(g, parent=None, v=None, *, alone=False):
        starts.append((parent, alone))
        return refine_copy(g, parent, v, alone=alone)

    monkeypatch.setattr(tinhofer, "_refine_copy", recorded)
    for p in (2, 3, 5, 7, 11, 13):
        spec = GroupSpec((p,))
        for mask in range(1 << (p - 1)):
            con = tuple(s for s in range(1, p) if mask >> (s - 1) & 1)
            starts.clear()
            canonical_form_prime_circulant(spec, con)
            if len(con) in (0, p - 1):
                assert starts == []
                continue
            root, certificate = refine_copy(build_cayley(spec, con))
            assert starts[0] == ((root, certificate[-1]), True)
            assert 1 <= len(starts) <= 2 and all(alone for _, alone in starts)


# ---------------------------------------------------------------------------
# a leaf's color-matching bijection is an isomorphism without an edge check
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def _leaf_bijections():
    """Collect the color-matching bijection of every leaf _eligible judges
    inside the block."""
    leaves = []
    eligible_of = tinhofer._eligible

    def recorded_eligible(c_g, c_h):
        found = eligible_of(c_g, c_h)
        if found == []:
            where_h = {c: w for w, c in enumerate(c_h)}
            leaves.append(tuple(where_h[c] for c in c_g))
        return found

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tinhofer, "_eligible", recorded_eligible)
        yield leaves


def _assert_search_leaves_are_automorphisms(dg, budget):
    with _leaf_bijections() as leaves:
        report = has_tinhofer_property(dg, budget=budget)
    # a search that finds no failure judged at least one leaf
    assert leaves or report.status != "true"
    assert all(is_isomorphism(dg, dg, perm) for perm in leaves)
    return report


@given(random_digraphs(max_n=9), st.data())
def test_leaf_bijections_are_isomorphisms_on_digraphs(case, data):
    """Every leaf of the property search, and every witness of the iso test
    on a relabeled copy or an unrelated digraph, passes the edge-set oracle.
    A graph with the property is recognized in every relabeled copy."""
    dg, _ = case
    n = dg.n
    report = _assert_search_leaves_are_automorphisms(dg, budget=5_000)
    copy, _ = relabeled(dg, (0,) * n, data.draw(st.permutations(range(n))))
    other = _draw_digraph(data.draw, n)
    for h in (copy, other):
        result = tinhofer_iso_test(dg, h)
        if result.verdict == "isomorphic":
            assert is_isomorphism(dg, h, result.witness)
        else:
            assert result.verdict == "non-isomorphic"
            assert h is other or report.status != "true"


@pytest.mark.parametrize(
    "moduli, con",
    [
        ((2, 8), (8, 10, 14)),
        ((2, 8), (2, 3, 4, 5, 6, 10, 11, 12, 13, 14)),
        ((3, 3, 3), (9, 18, 3, 6, 1, 2)),
        ((2, 8), (1, 2, 9)),
        ((3, 3), (1, 3, 4)),
    ],
    ids=["Z2xZ8:8,10,14", "Z2xZ8:2-6,10-14", "Z3^3", "Z2xZ8:1,2,9", "Z3xZ3:1,3,4"],
)
def test_search_leaves_are_automorphisms_on_cayley_graphs(moduli, con):
    """The search and the iso test read the same from the descriptor as
    from its digraph, also on the directed sets, where in(x) != out(x)."""
    spec = GroupSpec(moduli)
    g = CayleyGraph(spec, con)
    dg = g.digraph()
    report = _assert_search_leaves_are_automorphisms(dg, budget=10_000)
    assert has_tinhofer_property(g, budget=10_000) == report
    mirror = CayleyGraph(spec, tuple(map(spec.neg, con)))
    for h in (g, mirror):
        assert tinhofer_iso_test(g, h) == tinhofer_iso_test(dg, h.digraph())


@given(individualized_cayley_graphs(groups=((2, 8), (3, 3, 3))), st.data())
def test_leaf_bijections_are_isomorphisms_on_individualized_cayley_graphs(case, data):
    """The canonical individualization-refinement run on the union with a
    relabeled copy, after each mark v is individualized together with the
    image of v or, half the time, of a drawn vertex: a leaf is an
    isomorphism."""
    moduli, con, marks = case
    dg = build_cayley(GroupSpec(moduli), con)
    n = dg.n
    pi = data.draw(st.permutations(range(n)))
    targets = data.draw(st.sampled_from([marks, [(v + 1) % n for v in marks]]))
    copy, _ = relabeled(dg, (0,) * n, pi)
    union = disjoint_union(dg, copy)
    coloring = uniform_coloring(2 * n)
    for v, t in zip(marks, targets):
        coloring = individualize(cr_stabilize(union, coloring).final, v, n + pi[t])
    while True:
        stable = cr_stabilize(union, coloring).final
        kind, found = union_judge(n, stable.colors)
        if kind != "split":
            break
        first = stable.colors.index(found[0])
        coloring = individualize(stable, first, stable.colors.index(found[0], n))
    assert kind == "mismatch" or is_isomorphism(dg, copy, found)


# ---------------------------------------------------------------------------
# canonical forms are output: pin every order and code on small primes
# ---------------------------------------------------------------------------

# sha256 over one "p con hex order" line per connection set, in mask order
_CANON_DIGEST = "cccd071ee7e308c59043a06c4c387945b733ae35d47125ed96d37f45db5dbefc"


def test_canonical_forms_are_pinned():
    """All 5 206 connection sets of Z_p, p in {2, 3, 5, 7, 11, 13}: orders
    and codes hash to the pinned digest."""
    digest = hashlib.sha256()
    count = 0
    for p in (2, 3, 5, 7, 11, 13):
        spec = GroupSpec((p,))
        for mask in range(1 << (p - 1)):
            con = tuple(s for s in range(1, p) if mask >> (s - 1) & 1)
            form = canonical_form_prime_circulant(spec, con)
            digest.update(f"{p} {con} {form.hex} {form.order}\n".encode())
            count += 1
    assert count == 5206
    assert digest.hexdigest() == _CANON_DIGEST


def _coset_union_sets():
    """(p, con, m) for the primes 17..61: per subgroup of the multiplier
    group Z_p^*, eight seeded unions of its cosets, each with a seeded
    unit m.  A connection set fixed by a nontrivial subgroup keeps a
    non-discrete coloring after one individualization."""
    rng = random.Random(17)
    for p in (17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61):
        factors = [q for q in range(2, p) if (p - 1) % q == 0 and all(q % r for r in range(2, q))]
        root = next(r for r in range(2, p) if all(pow(r, (p - 1) // q, p) != 1 for q in factors))
        for d in (d for d in range(1, p) if (p - 1) % d == 0):
            subgroup = {pow(root, (p - 1) // d * k, p) for k in range(d)}
            cosets = list({frozenset(x * h % p for h in subgroup) for x in range(1, p)})
            cosets.sort(key=min)
            for _ in range(8):
                con = sorted(x for coset in cosets if rng.random() < 0.5 for x in coset)
                yield p, tuple(con), rng.randrange(1, p)


# sha256 over one "p con hex order" line per set of _coset_union_sets
_COSET_CANON_DIGEST = "e2e5ef6d4298af9f319de8552fd033aa284a2d7040eb5bfe2728d333704d4c10"


def test_canonical_forms_of_coset_unions_are_pinned_and_canonical():
    """Orders and codes of 640 coset unions hash to the pinned digest, and
    the image of each set under its unit m, an isomorphic circulant with
    its vertices relabeled by x -> m*x, gets the same code."""
    digest = hashlib.sha256()
    count = 0
    for p, con, m in _coset_union_sets():
        spec = GroupSpec((p,))
        form = canonical_form_prime_circulant(spec, con)
        digest.update(f"{p} {con} {form.hex} {form.order}\n".encode())
        count += 1
        scaled = tuple(sorted(m * c % p for c in con))
        assert canonical_form_prime_circulant(spec, scaled).code == form.code, (p, con, m)
    assert count == 640
    assert digest.hexdigest() == _COSET_CANON_DIGEST
