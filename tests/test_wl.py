import gc
import io
import pickle
import random
import time
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import example, given, strategies as st

from cayleywl import (
    CayleyGraph,
    DiGraph,
    GroupSpec,
    GraphFormatError,
    OrderedPartition,
    build_cayley,
    cr_refine,
    cr_stabilize,
    cr_step,
    induced_smodule,
    initial_cayley_smodule,
    initial_pair_coloring,
    is_cayley_partition,
    pair_coloring_from_smodule,
    parse_adjacency,
    parse_cayley_graph,
    parse_group_spec,
    refine,
    refine_con,
    refine_to_stable,
    stabilize_refine_con,
    uniform_coloring,
    wl2_stabilize,
    wl2_step,
)
import cayleywl.wl
from cayleywl.cli import main
from cayleywl.wl import (
    PairColoring,
    VertexColoring,
    coloring_from_partition,
    partition_from_coloring,
)
from cayleywl.tinhofer import individualize
from invariants import (
    adjacency_error_line_oracle,
    all_connection_sets,
    cayley_in_neighbors,
    check_wl_module_equivalence,
    cr_round_oracle,
    cr_stabilize_oracle,
    first_occurrence,
    initial_pair_coloring_oracle,
    is_cayley_partition_oracle,
    is_translation_invariant_oracle,
    ladder_connection_set,
    pair_coloring_from_smodule_oracle,
    random_partition,
    relabeled,
    transposed_in_neighbors,
    wl2_step_all_pairs,
    wl2_step_oracle,
)

Z7 = GroupSpec((7,))
Z9 = GroupSpec((9,))


def test_build_cayley_z9_example():
    g = build_cayley(Z9, [1, 3, 6, 8])
    assert g.n == 9
    assert g.edge_count == 36
    assert all(g.has_edge(v, u) for u in range(9) for v in g.out_neighbors[u])


def test_build_cayley_product_group():
    spec = GroupSpec((4, 4))
    con = [spec.index(r) for r in ((1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3))]
    cg = CayleyGraph(spec, tuple(con))
    assert all(spec.neg(s) in cg.con for s in cg.con)
    g = cg.digraph()
    assert g.n == 16 and g.edge_count == 96
    assert all(len(g.out_neighbors[v]) == 6 for v in range(16))


def test_build_cayley_empty_and_identity():
    assert build_cayley(GroupSpec((5,)), []).edge_count == 0
    with pytest.raises(ValueError):
        build_cayley(Z9, [0, 1])


def test_from_edges_collapses_duplicates_and_keeps_isolated_vertices():
    g = DiGraph.from_edges(6, [(3, 0), (0, 3), (3, 0), (1, 3), (0, 1), (1, 3)])
    assert g.out_neighbors == ((1, 3), (3,), (), (0,), (), ())
    assert g.in_neighbors == transposed_in_neighbors(g) == ((3,), (0,), (), (0, 1), (), ())
    assert g.edge_count == 4


def test_file_in_lists_are_built_on_first_read():
    """``cr_refine`` and the pair engine read a parsed file's out-lists
    alone, so neither builds its in-lists; read later, they are the
    transposed out-lists, each ascending."""
    text = "6\n3 0\n0 3\n1 3\n0 1\n4 1\n5 1\n"
    g = parse_adjacency(io.StringIO(text))
    cr_refine(g, individualize(uniform_coloring(6), 0))
    assert "in_neighbors" not in g.__dict__
    g = parse_adjacency(io.StringIO(text))
    wl2_stabilize(g)
    assert "in_neighbors" not in g.__dict__
    assert g.in_neighbors == transposed_in_neighbors(g) == ((3,), (0, 4, 5), (), (0, 1), (), ())


@pytest.mark.parametrize(
    "moduli, con",
    [
        ((5,), ()),
        ((7,), (1, 2, 4)),
        ((9,), (1, 3, 6, 8)),
        ((2, 4), (1, 3, 6)),
        ((2, 4), (1, 4, 5, 7)),
    ],
)
def test_build_cayley_in_lists_match_oracle(moduli, con):
    spec = GroupSpec(moduli)
    g = build_cayley(spec, con)
    assert list(map(list, g.in_neighbors)) == cayley_in_neighbors(spec, con)
    assert g.in_neighbors == transposed_in_neighbors(g)


def test_digraph_rejects_loops():
    with pytest.raises(ValueError):
        DiGraph.from_edges(3, [(0, 0)])


def test_initial_pair_coloring_categories():
    edgeless = build_cayley(GroupSpec((5,)), [])
    assert initial_pair_coloring(edgeless).class_count == 2
    fig = initial_pair_coloring(build_cayley(Z9, [1, 3, 6, 8]))
    assert fig.class_count == 3
    cycle = DiGraph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
    assert initial_pair_coloring(cycle).class_count == 3


def test_wl2_step_fixes_stable_coloring():
    g = build_cayley(Z9, [1, 3, 6, 8])
    trace = wl2_stabilize(g)
    again = wl2_step(trace.final)
    assert again.class_count == trace.final.class_count


def test_wl2_z9_example():
    g = build_cayley(Z9, [1, 3, 6, 8])
    trace = wl2_stabilize(g)
    assert trace.rounds == 1
    module = induced_smodule(trace.final, Z9)
    assert module.to_text() == "0|1,8|2,7|3,6|4,5"


def test_wl2_complete_graph_stable_immediately():
    k5 = build_cayley(GroupSpec((5,)), [1, 2, 3, 4])
    assert wl2_stabilize(k5).rounds == 0


def test_wl2_round_bound_z16():
    spec = GroupSpec((16,))
    bound = (2 + 5) * 4
    for con in ((1, 15), (1, 2, 3), (2, 4, 8), (1, 5, 7, 11)):
        assert wl2_stabilize(build_cayley(spec, con)).rounds <= bound


def test_wl2_strictly_refines_until_stable():
    g = build_cayley(GroupSpec((12,)), (1, 2, 5))
    trace = wl2_stabilize(g)
    assert all(a < b for a, b in zip(trace.class_counts, trace.class_counts[1:]))
    # every step output refines its input
    c = initial_pair_coloring(g)
    for _ in range(trace.rounds):
        stepped = wl2_step(c)
        blocks = {}
        for pair in range(len(c.colors)):
            blocks.setdefault(stepped.colors[pair], set()).add(c.colors[pair])
        assert all(len(olds) == 1 for olds in blocks.values())
        c = stepped


def test_diagonal_never_merges():
    for con in ((1, 6), (1, 2, 4), (2, 5)):
        g = build_cayley(Z7, con)
        trace = wl2_stabilize(g)
        diag = {trace.final.color(v, v) for v in range(7)}
        assert len(diag) == 1
        off = {trace.final.color(u, v) for u in range(7) for v in range(7) if u != v}
        assert diag.isdisjoint(off)


def test_is_cayley_partition():
    g = build_cayley(Z9, [1, 3, 6, 8])
    c = initial_pair_coloring(g)
    assert is_cayley_partition(c, Z9)
    assert is_cayley_partition(wl2_step(c), Z9)
    broken = list(c.colors)
    k = c.class_count
    broken[0] = k  # split one diagonal entry off
    assert not is_cayley_partition(PairColoring(9, tuple(broken)), Z9)


def _translation_invariant(spec, labels):
    """Pair colors ``labels[j - i]``, differences taken on residue tuples."""
    elems = [spec.element(g) for g in range(spec.order)]
    return [labels[spec.index([b - a for a, b in zip(ei, ej)])] for ei in elems for ej in elems]


@pytest.mark.parametrize("moduli", [(9,), (2, 4), (2, 2, 2)])
@given(
    st.sampled_from(["cayley", "diagonal", "split", "translation", "transpose"]),
    st.integers(1, 4),
    st.randoms(use_true_random=False),
)
def test_is_cayley_partition_matches_oracle(moduli, breakage, k, rnd):
    spec = GroupSpec(moduli)
    n = spec.order
    labels = [0] + [rnd.randint(1, k) for _ in range(n - 1)]
    if breakage != "transpose":
        for g in range(n):  # close every class under negation
            labels[spec.neg(g)] = labels[g]
    if breakage == "diagonal":
        labels[rnd.randrange(1, n)] = 0
    cols = _translation_invariant(spec, labels)
    if breakage == "split":
        v = rnd.randrange(n)
        cols[v * n + v] = k + 1
    if breakage == "translation":
        i, j = rnd.sample(range(n), 2)
        cols[i * n + j] = (cols[i * n + j] + 1) % (k + 2)
    c = PairColoring(n, first_occurrence(cols))
    got = is_cayley_partition(c, spec)
    assert got == is_cayley_partition_oracle(c, spec)
    if breakage != "transpose":
        assert got == (breakage == "cayley")


@pytest.mark.parametrize("moduli", [(2, 8), (4, 4), (3, 3, 3), (2,) * 5], ids=str)
def test_difference_rows_match_the_oracle(moduli):
    """On random partitions, every other one closed under negation with the
    identity alone, :func:`pair_coloring_from_smodule` builds the difference
    rows' coloring and :func:`is_cayley_partition` agrees with the oracle;
    with any one entry changed, the coloring is no Cayley partition."""
    spec = GroupSpec(moduli)
    n = spec.order
    rng = random.Random(34)
    for trial in range(16):
        k = 2 + trial % 4
        labels = [rng.randrange(k) for _ in range(n)]
        if trial % 2:
            labels[0] = k
            for g in range(n):
                labels[spec.neg(g)] = labels[g]
        partition = OrderedPartition.from_labels(spec, labels)
        c = pair_coloring_from_smodule(partition)
        assert c == pair_coloring_from_smodule_oracle(partition)
        assert is_translation_invariant_oracle(c, spec)
        got = is_cayley_partition(c, spec)
        assert got == is_cayley_partition_oracle(c, spec)
        assert got or not trial % 2
        for _ in range(8):
            at = rng.randrange(n * n)
            cols = list(c.colors)
            cols[at] = (cols[at] + rng.randint(1, c.class_count)) % (c.class_count + 1)
            changed = PairColoring(n, first_occurrence(cols))
            assert not is_translation_invariant_oracle(changed, spec), at
            assert not is_cayley_partition(changed, spec), at


def test_descriptor_out_lists_add_no_kept_getter():
    """Out-lists read kept getters but never add one; in-gatherers are kept
    up to the table limit, and above it every call builds its own."""
    spec = GroupSpec((13,))
    CayleyGraph(spec, (1, 2, 5)).out_neighbors
    assert not spec._sum_getters
    g = CayleyGraph(spec, (1, 2, 5))
    list(g.in_colors(range(13)))
    assert sorted(spec._sum_getters) == [8, 11, 12]
    # -1, -2, -5 read through the kept getters, as a fresh spec builds them
    kept = CayleyGraph(spec, (8, 11, 12)).out_neighbors
    assert kept == CayleyGraph(GroupSpec((13,)), (8, 11, 12)).out_neighbors
    assert sorted(spec._sum_getters) == [8, 11, 12]
    large = GroupSpec((4099,))
    g = CayleyGraph(large, (1, 5, 4098))
    g.out_neighbors
    list(g.in_colors(range(4099)))
    assert not large._sum_getters


def test_induced_smodule_examples():
    g = build_cayley(Z9, [1, 3, 6, 8])
    c = initial_pair_coloring(g)
    assert induced_smodule(c, Z9).to_text() == "0|1,3,6,8|2,4,5,7"
    edgeless = build_cayley(GroupSpec((5,)), [])
    c5 = initial_pair_coloring(edgeless)
    assert induced_smodule(c5, GroupSpec((5,))).to_text() == "0|1,2,3,4"


def test_induced_smodule_rejects_non_cayley():
    cycle = DiGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    c = initial_pair_coloring(cycle)
    with pytest.raises(ValueError):
        induced_smodule(c, GroupSpec((4,)))


def test_pair_coloring_round_trip():
    for classes in ([[0], list(range(1, 9))], [[0], [1, 8], [3, 6], [2, 7], [4, 5]]):
        part = OrderedPartition.from_classes(Z9, classes)
        assert induced_smodule(pair_coloring_from_smodule(part), Z9).classes == part.classes


def test_round_trip_requires_negation_closed_classes():
    # {1,3} maps to {6,8} under negation, which straddles two classes, so the
    # rebuilt pair coloring is not closed under transposition
    part = OrderedPartition.from_classes(Z9, [[0], [1, 3], [2, 4, 5, 6, 7, 8]])
    coloring = pair_coloring_from_smodule(part)
    with pytest.raises(ValueError):
        induced_smodule(coloring, Z9)


def test_initial_smodule_matches_pair_construction():
    specs = [GroupSpec((n,)) for n in (4, 5, 6, 7)] + [
        GroupSpec((2, 4)), GroupSpec((3, 3)), GroupSpec((2, 2, 2))
    ]
    for spec in specs:
        for con in all_connection_sets(spec.order):
            direct = initial_cayley_smodule(spec, con)
            via_pairs = induced_smodule(initial_pair_coloring(build_cayley(spec, con)), spec)
            assert direct.classes == via_pairs.classes


@pytest.mark.parametrize("group", ["Z4xZ4", "Z2xZ8", "Z2xZ2xZ4"])
def test_initial_smodule_matches_pair_construction_on_sampled_sets(group):
    """The same check on 300 seeded connection sets of each order-16
    product group, where -g is not n - g."""
    spec = parse_group_spec(group)
    rng = random.Random(group)
    for _ in range(300):
        con = tuple(s for s in range(1, spec.order) if rng.random() < 0.5)
        direct = initial_cayley_smodule(spec, con)
        via_pairs = induced_smodule(initial_pair_coloring(build_cayley(spec, con)), spec)
        assert direct.classes == via_pairs.classes, (group, con)


def test_wl_module_equivalence_small():
    assert check_wl_module_equivalence(6) == 32
    assert check_wl_module_equivalence(9) == 256


def test_cr_step_regular_uniform_fixed():
    g = build_cayley(Z9, [1, 3, 6, 8])
    c = uniform_coloring(9)
    assert cr_step(g, c).class_count == 1


def test_cr_step_individualized_oracle():
    g = build_cayley(Z7, [1, 6])
    c = individualize(uniform_coloring(7), 0)
    stepped = cr_step(g, c)
    assert partition_from_coloring(stepped, Z7).to_text() == "0|1,6|2,3,4,5"


def test_cr_step_edgeless():
    g = build_cayley(GroupSpec((5,)), [])
    c = individualize(uniform_coloring(5), 2)
    assert cr_step(g, c).classes() == c.classes()


def test_cr_stabilize_examples():
    cg = CayleyGraph(Z7, (1, 6))
    trace = cr_stabilize(cg, individualize(uniform_coloring(7), 0))
    assert trace.rounds == 2
    assert partition_from_coloring(trace.final, Z7).to_text() == "0|1,6|2,5|3,4"
    assert cr_stabilize(cg, uniform_coloring(7)).rounds == 0


def _assert_cr_matches_oracle(g, in_neighbors, c):
    got = cr_stabilize(g, c)
    want = cr_stabilize_oracle(in_neighbors, c.colors)
    assert got.final.colors == want.final
    assert got.rounds == want.rounds
    assert got.class_counts == want.class_counts


def test_cr_fast_path_matches_naive():
    specs = [
        (Z7, (1, 6)),
        (Z9, (1, 3, 6, 8)),
        (GroupSpec((8,)), (1, 2, 5)),
        (GroupSpec((4, 4)), tuple(GroupSpec((4, 4)).index(r) for r in ((1, 0), (0, 1)))),
    ]
    for spec, con in specs:
        cg = CayleyGraph(spec, con)
        ins = cayley_in_neighbors(spec, con)
        for v in (None, 0, spec.order - 1):
            c = uniform_coloring(spec.order)
            if v is not None:
                c = individualize(c, v)
            _assert_cr_matches_oracle(cg, ins, c)
            _assert_cr_matches_oracle(cg.digraph(), ins, c)


@st.composite
def colored_digraphs(draw, max_n=9):
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=3 * n)) if pairs else []
    raw = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    ids = {c: i for i, c in enumerate(sorted(set(raw)))}
    return DiGraph.from_edges(n, edges), VertexColoring(n, tuple(ids[c] for c in raw))


@given(colored_digraphs())
@example((DiGraph.from_edges(0, []), VertexColoring(0, ())))
@example((DiGraph.from_edges(1, []), VertexColoring(1, (0,))))
@example((DiGraph.from_edges(4, [(0, 1), (1, 0)]), VertexColoring(4, (0, 0, 0, 0))))
def test_cr_matches_oracle_on_digraphs(case):
    dg, c = case
    _assert_cr_matches_oracle(dg, dg.in_neighbors, c)


@st.composite
def mixed_in_degree_digraphs(draw, max_n=9):
    """A digraph given by its in-neighbor sets, with at least one vertex of
    in-degree 0, one of in-degree 1 and one of in-degree 2 or more, placed
    at random positions, and a coloring with up to three colors."""
    n = draw(st.integers(3, max_n))
    place = draw(st.permutations(range(n)))
    in_sets = []
    for v in range(n):
        lo, hi = {place[0]: (0, 0), place[1]: (1, 1), place[2]: (2, n - 1)}.get(v, (0, n - 1))
        others = [u for u in range(n) if u != v]
        in_sets.append(draw(st.sets(st.sampled_from(others), min_size=lo, max_size=hi)))
    raw = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    edges = [(u, v) for v in range(n) for u in in_sets[v]]
    return DiGraph.from_edges(n, edges), in_sets, VertexColoring(n, first_occurrence(raw))


def _assert_cr_steps_match_oracle(dg, in_sets, c):
    """Every round from c to the fixed point equals the naive round."""
    while True:
        stepped = cr_step(dg, c)
        assert stepped.colors == tuple(cr_round_oracle(in_sets, c.colors))
        if stepped.class_count == c.class_count:
            return
        c = stepped


@given(mixed_in_degree_digraphs())
def test_cr_step_gathers_every_in_degree(case):
    """The per-vertex gatherers read in-degree 0, 1 and 2+ vertices alike."""
    _assert_cr_steps_match_oracle(*case)


def test_cr_step_gathers_on_edgeless_graph_and_directed_path():
    edgeless = DiGraph.from_edges(5, [])
    _assert_cr_steps_match_oracle(edgeless, [set()] * 5, VertexColoring(5, (0, 1, 0, 1, 1)))
    path = DiGraph.from_edges(5, [(v, v + 1) for v in range(4)])
    in_sets = [set()] + [{v} for v in range(4)]
    _assert_cr_steps_match_oracle(path, in_sets, uniform_coloring(5))
    assert cr_stabilize(path, uniform_coloring(5)).final.colors == (0, 1, 2, 3, 4)


def test_digraph_equality_and_pickling_survive_its_caches():
    """A refinement run fills the digraph's cached gatherers; the digraph
    still equals a fresh copy and survives a pickle round trip."""
    edges = [(0, 1), (1, 2), (0, 2), (2, 3)]  # in-degrees 0, 1, 2, 1
    for make in (lambda: build_cayley(Z9, [1, 3, 6, 8]), lambda: DiGraph.from_edges(4, edges)):
        dg = make()
        trace = cr_stabilize(dg, uniform_coloring(dg.n))
        assert "_in_gatherers" in vars(dg)
        fresh = make()
        assert dg == fresh and hash(dg) == hash(fresh)
        thawed = pickle.loads(pickle.dumps(dg))
        assert thawed == fresh
        assert cr_stabilize(thawed, uniform_coloring(dg.n)) == trace


def test_colorings_store_their_class_count_outside_identity():
    """class_count is counted once at construction; equality, hashing, repr
    and pickling see only n and colors, and validation is unchanged."""
    cases = [
        (VertexColoring(4, (0, 1, 0, 2)), 3),
        (VertexColoring(0, ()), 0),
        (PairColoring(2, (0, 1, 1, 0)), 2),
        (PairColoring(0, ()), 0),
    ]
    for c, k in cases:
        assert c.class_count == k
        assert repr(c) == f"{type(c).__name__}(n={c.n}, colors={c.colors!r})"
        twin = type(c)(c.n, c.colors)
        assert twin == c and hash(twin) == hash((c.n, c.colors))
        thawed = pickle.loads(pickle.dumps(c))
        assert thawed == c and thawed.class_count == k
    with pytest.raises(TypeError):
        VertexColoring(2, (0, 1), 2)
    with pytest.raises(ValueError, match="vertex color ids must be 0..k-1 with every id used"):
        VertexColoring(3, (0, 2, 2))
    with pytest.raises(ValueError, match="vertex coloring needs one color per vertex"):
        VertexColoring(3, (0, 1))
    with pytest.raises(ValueError, match="pair color ids must be 0..k-1 with every id used"):
        PairColoring(2, (1, 1, 1, 1))
    with pytest.raises(ValueError, match="pair coloring needs n\\*n entries"):
        PairColoring(2, (0, 0, 0))


@pytest.mark.parametrize("moduli", [(2, 2, 2, 2), (2, 4, 3)])
@given(data=st.data())
def test_cr_matches_oracle_on_product_groups(moduli, data):
    spec = GroupSpec(moduli)
    con = tuple(data.draw(st.sets(st.integers(1, spec.order - 1), max_size=6)))
    marked = data.draw(st.lists(st.integers(0, spec.order - 1), max_size=2))
    c = uniform_coloring(spec.order)
    for v in marked:
        c = individualize(c, v)
    _assert_cr_matches_oracle(CayleyGraph(spec, con), cayley_in_neighbors(spec, con), c)


@given(colored_digraphs(max_n=6))
@example((DiGraph.from_edges(0, []), VertexColoring(0, ())))
@example((DiGraph.from_edges(1, []), VertexColoring(1, (0,))))
def test_wl2_matches_oracle_on_digraphs(case):
    dg, _ = case
    got = wl2_stabilize(dg)
    c = initial_pair_coloring(dg)
    counts = [c.class_count]
    while True:
        stepped = wl2_step_oracle(c)
        assert first_occurrence(wl2_step(c).colors) == stepped.colors
        if stepped.class_count == c.class_count:
            break
        c = stepped
        counts.append(c.class_count)
    assert got.rounds == len(counts) - 1
    assert got.class_counts == tuple(counts)
    assert first_occurrence(got.final.colors) == first_occurrence(c.colors)


def _assert_wl2_ids_match_all_pairs(dg):
    """The structural coloring equals the one from edge queries, and every
    round from it to the fixed point has the ids of the round over all
    pairs."""
    c = initial_pair_coloring(dg)
    assert c.colors == initial_pair_coloring_oracle(dg).colors
    while True:
        stepped = wl2_step(c)
        assert stepped.colors == wl2_step_all_pairs(c).colors
        if stepped.class_count == c.class_count:
            return
        c = stepped


@given(colored_digraphs(max_n=8))
@example((DiGraph.from_edges(0, []), VertexColoring(0, ())))
@example((DiGraph.from_edges(1, []), VertexColoring(1, (0,))))
@example((DiGraph.from_edges(2, [(0, 1)]), VertexColoring(2, (0, 0))))
def test_wl2_step_ids_equal_all_pairs_round_on_digraphs(case):
    _assert_wl2_ids_match_all_pairs(case[0])


@pytest.mark.parametrize("group", ["Z2xZ8", "Z2xZ2xZ4", "Z3xZ3", "Z4xZ4"])
def test_wl2_step_ids_equal_all_pairs_round_on_cayley_digraphs(group):
    """Seeded connection sets, mostly not closed under negation, so many
    pairs and their transposes differ in color.  The descriptor, read
    through its out-lists alone, gives its digraph's structural coloring."""
    spec = parse_group_spec(group)
    rng = random.Random(group)
    for _ in range(12):
        con = tuple(s for s in range(1, spec.order) if rng.random() < 0.4)
        dg = build_cayley(spec, con)
        _assert_wl2_ids_match_all_pairs(dg)
        assert initial_pair_coloring(CayleyGraph(spec, con)) == initial_pair_coloring(dg)


def test_wl2_step_rejects_coloring_not_closed_under_transposition():
    # (0, 1) and (0, 2) share color 1, their transposes have colors 2 and 1
    c = PairColoring(3, (0, 1, 1, 2, 0, 1, 1, 1, 0))
    with pytest.raises(ValueError, match="pair coloring is not closed under transposition"):
        wl2_step(c)


@given(colored_digraphs(max_n=7), st.data())
def test_refinement_ids_commute_with_relabeling(case, data):
    """CR and 2-WL on a copy relabeled by pi give vertex pi(v) the color of
    v and the pair (pi(i), pi(j)) the color of (i, j)."""
    dg, c = case
    n = dg.n
    pi = data.draw(st.permutations(range(n)))
    moved, moved_colors = relabeled(dg, c.colors, pi)
    cr, moved_cr = cr_stabilize(dg, c), cr_stabilize(moved, VertexColoring(n, moved_colors))
    assert moved_cr.class_counts == cr.class_counts
    assert all(moved_cr.final.colors[pi[v]] == cr.final.colors[v] for v in range(n))
    wl, moved_wl = wl2_stabilize(dg), wl2_stabilize(moved)
    assert moved_wl.class_counts == wl.class_counts
    assert all(
        moved_wl.final.color(pi[i], pi[j]) == wl.final.color(i, j)
        for i in range(n)
        for j in range(n)
    )


def test_refine_to_stable_skips_confirming_step_once_discrete():
    """The c05 shape: two individualizations make a Z13 circulant discrete,
    and the discrete coloring is returned without one more step."""
    dg = build_cayley(GroupSpec((13,)), (1, 12))
    calls = []

    def step(c):
        calls.append(c)
        return cr_step(dg, c)

    start = individualize(individualize(uniform_coloring(13), 0), 1)
    trace = refine_to_stable(start, step)
    assert trace.final.is_discrete() and len(calls) == trace.rounds
    want = cr_stabilize_oracle(dg.in_neighbors, start.colors)
    assert (trace.rounds, trace.class_counts, trace.final.colors) == (
        want.rounds,
        want.class_counts,
        want.final,
    )
    calls.clear()
    coarse = refine_to_stable(individualize(uniform_coloring(13), 0), step)
    assert not coarse.final.is_discrete() and len(calls) == coarse.rounds + 1

    path = DiGraph.from_edges(3, [(0, 1), (1, 2)])
    pair_calls = []

    def pair_step(c):
        pair_calls.append(c)
        return wl2_step(c)

    pairs = refine_to_stable(initial_pair_coloring(path), pair_step)
    assert pairs.final.is_discrete() and len(pair_calls) == pairs.rounds
    assert pairs == wl2_stabilize(path)


def test_cr_class_counts_never_decrease():
    cg = CayleyGraph(GroupSpec((12,)), (1, 3, 11))
    trace = cr_stabilize(cg, individualize(uniform_coloring(12), 0))
    assert all(a < b for a, b in zip(trace.class_counts, trace.class_counts[1:]))


def _assert_cr_refine_matches_stabilize(g, c):
    """The smaller-part engine's trace equals the all-rounds reference's,
    with the reference's final coloring read as canonical classes."""
    got, want = cr_refine(g, c), cr_stabilize(g, c)
    assert (got.rounds, got.class_counts) == (want.rounds, want.class_counts)
    assert got.final == want.final.classes()


@st.composite
def individualized_digraphs(draw, max_n=9):
    """A colored digraph with 0, 1 or 2 of its vertices individualized."""
    dg, c = draw(colored_digraphs(max_n))
    for v in draw(st.lists(st.integers(0, dg.n - 1), max_size=2)) if dg.n else ():
        c = individualize(c, v)
    return dg, c


@given(individualized_digraphs())
@example((DiGraph.from_edges(0, []), VertexColoring(0, ())))
@example((DiGraph.from_edges(1, []), VertexColoring(1, (0,))))
@example((DiGraph.from_edges(5, []), individualize(uniform_coloring(5), 3)))
@example((build_cayley(GroupSpec((5,)), range(1, 5)), individualize(uniform_coloring(5), 1)))
# one start class holds in-degrees 0, 1 and 2: only the in-degree splits it
@example((DiGraph.from_edges(4, [(0, 2), (0, 3), (1, 3)]), VertexColoring(4, (0, 0, 0, 0))))
@example((DiGraph.from_edges(5, [(4, 1), (4, 2), (3, 2)]), VertexColoring(5, (0, 0, 0, 1, 1))))
def test_cr_refine_matches_cr_stabilize_on_digraphs(case):
    _assert_cr_refine_matches_stabilize(*case)


@given(mixed_in_degree_digraphs())
# in-degrees 0 and 1 only: the vertices of in-degree 0 are the ones the
# in-degree count holds no key for
@example((DiGraph.from_edges(3, [(0, 1)]), [set(), {0}, set()], uniform_coloring(3)))
def test_cr_refine_splits_by_in_degree(case):
    """Vertices of in-degree 0, 1 and 2 or more, from a random or the
    uniform coloring: ``cr_refine`` counts the in-degrees off the out-lists,
    with no in-lists built, and its traces are ``cr_stabilize``'s."""
    dg, _, c = case
    starts = (c, uniform_coloring(dg.n))
    got = [cr_refine(dg, start) for start in starts]
    assert "in_neighbors" not in dg.__dict__
    for trace, start in zip(got, starts):
        want = cr_stabilize(dg, start)
        assert (trace.rounds, trace.class_counts) == (want.rounds, want.class_counts)
        assert trace.final == want.final.classes()


@pytest.mark.parametrize("group", ["Z4xZ4", "Z2xZ8", "Z2xZ2xZ4", "Z3xZ9"])
def test_cr_refine_matches_cr_stabilize_on_cayley_graphs(group):
    """Seeded connection sets with 0, 1 or 2 individualized vertices, read
    from the descriptor and from its digraph: ``cr_stabilize`` traces and
    ``refine_con`` rounds agree between the two."""
    spec = parse_group_spec(group)
    rng = random.Random(group)
    for _ in range(60):
        cg = CayleyGraph(spec, tuple(s for s in range(1, spec.order) if rng.random() < 0.3))
        dg = cg.digraph()
        c = uniform_coloring(spec.order)
        for v in rng.sample(range(spec.order), rng.randint(0, 2)):
            c = individualize(c, v)
        _assert_cr_refine_matches_stabilize(cg, c)
        _assert_cr_refine_matches_stabilize(dg, c)
        assert cr_stabilize(cg, c) == cr_stabilize(dg, c)
        stepped = partition_from_coloring(cr_step(dg, c), spec)
        assert refine_con(partition_from_coloring(c, spec), cg.con) == stepped


def test_stabilize_refine_con_matches_cr_stabilize():
    """``stabilize_refine_con`` equals the trace of ``cr_stabilize`` on the
    built Cayley digraph, its final coloring read as a partition."""
    rng = random.Random(23)
    for group in ("Z12", "Z4xZ4", "Z2xZ8", "Z3xZ9"):
        spec = parse_group_spec(group)
        for _ in range(40):
            con = tuple(s for s in range(1, spec.order) if rng.random() < 0.3)
            start = random_partition(spec, rng, max_classes=3)
            want = cr_stabilize(build_cayley(spec, con), coloring_from_partition(start))
            want = replace(want, final=partition_from_coloring(want.final, spec))
            assert stabilize_refine_con(start, con) == want, (group, con, start)


def test_cr_refine_runs_a_long_directed_cycle_in_time(capsys):
    """``cr Z4001:1 --individualize 0`` takes 3 999 rounds, each splitting
    one vertex off; a run that redid every vertex each round took 16 s."""
    started = time.perf_counter()
    assert main(["cr", "Z4001:1", "--individualize", "0", "--format", "csv"]) == 0
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    assert out == "rounds,classes\n3999," + "|".join(map(str, range(4001))) + "\n"
    assert elapsed < 2.0, elapsed


def test_vertex_coloring_validation():
    with pytest.raises(ValueError):
        VertexColoring(3, (0, 2, 2))  # id 1 unused
    with pytest.raises(ValueError):
        VertexColoring(3, (0, 1))


def test_coloring_partition_round_trip():
    part = OrderedPartition.from_classes(Z7, [[0], [1, 6], [2, 3, 4, 5]])
    assert partition_from_coloring(coloring_from_partition(part), Z7).classes == part.classes


def test_parse_cayley_graph():
    cg = parse_cayley_graph("Z9:1,3,6,8")
    assert cg.spec.moduli == (9,) and cg.con == (1, 3, 6, 8)
    cg = parse_cayley_graph("z4xz4:(1,0),(3,0),(0,1)")
    assert cg.spec.moduli == (4, 4)
    assert cg.con == tuple(sorted(cg.spec.index(r) for r in ((1, 0), (3, 0), (0, 1))))
    assert parse_cayley_graph("Z5:").con == ()


def test_parse_cayley_graph_errors_carry_positions():
    with pytest.raises(GraphFormatError) as err:
        parse_cayley_graph("Z9")
    assert err.value.position == 2
    with pytest.raises(GraphFormatError) as err:
        parse_cayley_graph("Z9:1,99")
    assert err.value.position == 5
    with pytest.raises(GraphFormatError) as err:
        parse_cayley_graph("Z9:1,x")
    assert err.value.position == 5
    with pytest.raises(GraphFormatError) as err:
        parse_cayley_graph("Z4xZ4:(1,0),(9,0)")
    assert err.value.position == 12
    with pytest.raises(GraphFormatError) as err:
        parse_cayley_graph("Z4xZ4:(1,0")
    assert err.value.position == 6
    with pytest.raises(GraphFormatError):
        parse_cayley_graph("Z9:0,1")
    with pytest.raises(GraphFormatError):
        parse_cayley_graph("Q8:1")


def test_parse_adjacency():
    g = parse_adjacency(io.StringIO("3\n0 1\n1 2\n"))
    assert g.n == 3 and g.edge_count == 2
    assert g.has_edge(0, 1) and not g.has_edge(1, 0)
    with pytest.raises(GraphFormatError):
        parse_adjacency(io.StringIO(""))
    with pytest.raises(GraphFormatError):
        parse_adjacency(io.StringIO("3\n0 1 2\n"))


# every line boundary of str.splitlines
LINE_BREAKS = ("\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
LINE_BODIES = ("", "", " ", "\t ", "0 1", "12  345", "x", "\r\n")


def _messy_text(rng: random.Random) -> str:
    """Lines of edge pairs, junk, blank and whitespace-only bodies joined by
    every kind of line break, with or without a last one."""
    parts = []
    for _ in range(rng.randrange(12)):
        parts.append(rng.choice(LINE_BODIES))
        parts.append(rng.choice(LINE_BREAKS))
    if rng.random() < 0.5:
        parts.append(rng.choice(LINE_BODIES))
    return "".join(parts)


def test_chunked_lines_match_splitlines(tmp_path, monkeypatch):
    r"""The chunked reader yields text.splitlines() from an io.StringIO, and
    the lines of read_text() from a file written as bytes, at every chunk
    size from 1 to 8 characters, including where a chunk's read ends on the
    "\r" of a "\r\n"."""
    rng = random.Random(15)
    texts = [_messy_text(rng) for _ in range(2000)]
    # "\r" at every offset 0..9, so with each chunk size some chunk's read
    # ends on the "\r" of a "\r\n" pair
    texts += ["0" * k + "\r\n" + "1 2\r\n\r\n" * 3 for k in range(10)]
    texts += ["", "\n", "\r\n", "\r", "a", "\n\n\r\r\n\n"]
    texts += ["0 1" + end for end in LINE_BREAKS]
    paths = [tmp_path / f"{i}.adj" for i in range(len(texts))]
    for text, path in zip(texts, paths):
        path.write_bytes(text.encode())
    for chunk in range(1, 9):
        monkeypatch.setattr(cayleywl.wl, "_LINE_CHUNK", chunk)
        for text, path in zip(texts, paths):
            lines = cayleywl.wl._text_lines(io.StringIO(text))
            assert list(lines) == text.splitlines(), (chunk, text)
            with path.open() as stream:
                lines = list(cayleywl.wl._text_lines(stream))
            assert lines == path.read_text().splitlines(), (chunk, text)


@pytest.mark.parametrize("bad", ["0 x", "0 1 2", "0 7", "3 3", "-1 0"])
@pytest.mark.parametrize("newline", ["\n", "\r\n", None])
def test_adjacency_error_position_past_the_first_chunk(bad, newline):
    """A bad edge line on line 70 001, far past the first 64 KiB chunk, is
    reported at the line the splitlines oracle counts; blank and
    whitespace-only lines count as lines.  Lines end in "\n", in "\r\n",
    or (None) in a random line break each."""
    rng = random.Random(70001)
    lines = ["7"]
    while len(lines) < 70000:
        lines.append(rng.choice(["0 1", "2 3", "6 5", "", " \t", "4  0"]))
    lines += [bad, "1 2"]
    text = "".join(ln + (newline or rng.choice(LINE_BREAKS)) for ln in lines)
    expected = adjacency_error_line_oracle(text)
    # a random "\r" break and an empty line's "\n" break merge into one "\r\n"
    assert expected == 70001 or newline is None and 60000 < expected < 70001
    with pytest.raises(GraphFormatError) as err:
        parse_adjacency(io.StringIO(text))
    assert err.value.position == expected
    assert str(err.value).endswith(f" at position {expected}")


def _traced(build):
    """``build()`` with the bytes it keeps alive and its peak, under tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        graph = build()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return graph, retained - base, peak - base


def test_adjacency_file_costs_what_its_descriptor_does():
    """The p = 10007 ladder read from its edge list is the descriptor's
    graph, kept in as many bytes, and parsing peaks at most 1.3x as high
    as building it from the descriptor."""
    p = 10007
    con = ladder_connection_set(p)
    text = f"{p}\n" + "".join(f"{h} {(h + s) % p}\n" for s in con for h in range(p))
    # the stream, like the text before it, is input made outside the trace
    stream = io.StringIO(text)
    parsed, parse_retained, parse_peak = _traced(lambda: parse_adjacency(stream))
    built, build_retained, build_peak = _traced(lambda: build_cayley(GroupSpec((p,)), con))
    assert parsed == built
    assert parse_retained <= 1.05 * build_retained, (parse_retained, build_retained)
    assert parse_peak <= 1.3 * build_peak, (parse_peak, build_peak)
