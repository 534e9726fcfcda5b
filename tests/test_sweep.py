import math
from dataclasses import replace

import pytest

import cayleywl.sweep
from cayleywl import individualize, tinhofer_iso_test, uniform_coloring
from cayleywl.sweep import (
    BoundViolation,
    CounterexampleMismatch,
    EngineMismatch,
    EXPECTED_COUNTEREXAMPLE_ROUNDS,
    JOBS_LIMIT,
    SAMPLE_LIMIT,
    SweepConfig,
    SweepRecord,
    _CHUNK,
    _orbits,
    _stable_modules,
    _wl2_modules,
    compute_counterexample_rounds,
    con_to_mask,
    counterexample_graph,
    mask_to_con,
    mcg_stream,
    reproduce_counterexample,
    round_bound,
    run_sweep,
    sample_connection_masks,
    sweep_instance,
)
from cayleywl.group_ring import stabilize_refine
from cayleywl.groups import GroupSpec
from cayleywl.partition import OrderedPartition
from cayleywl.wl import (
    CayleyGraph,
    DiGraph,
    build_cayley,
    cr_refine,
    induced_smodule,
    initial_cayley_smodule,
    parse_cayley_graph,
    wl2_stabilize,
)


def test_round_bound_values():
    assert round_bound(9) == (2 + 3) * 4 == 20
    assert round_bound(16) == (2 + 5) * 4 == 28
    assert round_bound(2) == 4


def test_mask_round_trip():
    con = (1, 3, 6, 8)
    mask = con_to_mask(con)
    assert mask == 0x14A
    assert mask_to_con(mask, 9) == con


def test_mcg_stream_deterministic():
    a = mcg_stream(42)
    b = mcg_stream(42)
    assert [next(a) for _ in range(5)] == [next(b) for _ in range(5)]


def test_sample_masks_distinct_and_seeded():
    masks = sample_connection_masks(12, 50, seed=7)
    assert len(masks) == len(set(masks)) == 50
    assert masks == sample_connection_masks(12, 50, seed=7)
    assert masks != sample_connection_masks(12, 50, seed=8)
    assert all(mask & 1 == 0 for mask in masks)  # identity bit never set


def test_sample_masks_cover_small_space():
    assert sample_connection_masks(3, 100, seed=1) == [0, 2, 4, 6]


def test_sample_masks_reject_order_below_one():
    assert sample_connection_masks(1, 5, seed=1) == [0]
    with pytest.raises(ValueError, match="must be >= 1"):
        sample_connection_masks(0, 1, seed=1)


def test_sample_masks_reject_order_above_limit():
    assert len(sample_connection_masks(SAMPLE_LIMIT, 3, seed=1)) == 3
    with pytest.raises(ValueError, match=f"sampled mode limited to n <= {SAMPLE_LIMIT}"):
        sample_connection_masks(SAMPLE_LIMIT + 1, 1, seed=1)


def test_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(n_values=(1,))
    with pytest.raises(ValueError):
        SweepConfig(n_values=(21,))
    with pytest.raises(ValueError):
        SweepConfig(n_values=(11,), sample_count=5)
    assert SweepConfig(n_values=(3,), jobs=JOBS_LIMIT).jobs == JOBS_LIMIT
    for jobs in (0, JOBS_LIMIT + 1):
        with pytest.raises(ValueError, match=f"jobs must be in 1..{JOBS_LIMIT}, got {jobs}"):
            SweepConfig(n_values=(3,), jobs=jobs)


def test_sweep_instance_z9_example():
    record = sweep_instance(9, 0x14A, cross_check=True)
    assert record.rounds == 1
    assert record.rounds_wl2 == 1
    assert record.bound == 20 and record.d == 3
    # the identity bit and bits above the order name no connection element
    odd = sweep_instance(9, 0x14A | 1 | 1 << 9, cross_check=True)
    assert odd == replace(record, set_mask="0x34b")


def test_run_sweep_exhaustive_counts():
    records = run_sweep(SweepConfig(n_values=(2, 9)))
    assert sum(1 for r in records if r.n == 2) == 2  # empty set included
    assert sum(1 for r in records if r.n == 9) == 256
    keys = [(r.n, int(r.set_mask, 16)) for r in records]
    assert keys == sorted(keys)


def test_run_sweep_parallel_matches_serial():
    serial = run_sweep(SweepConfig(n_values=(7, 8)))
    parallel = run_sweep(SweepConfig(n_values=(7, 8), jobs=2))
    assert serial == parallel


def orbit_count_oracle(n: int) -> int:
    """Connection sets of Z_n up to unit multipliers and complementation,
    counted by the least mask of each orbit."""
    full = (1 << n) - 2
    units = [m for m in range(1, n) if math.gcd(m, n) == 1]
    least = set()
    for mask in range(0, 1 << n, 2):
        con = mask_to_con(mask, n)
        images = [con_to_mask(tuple(c * m % n for c in con)) for m in units]
        least.add(min(images + [image ^ full for image in images]))
    return len(least)


@pytest.fixture
def engine_calls(monkeypatch):
    """Per-order call counts of the two engines, and of the algebraic
    engine's refinement round and the pair engine's, as the sweep module
    calls them: the algebraic engine counts stabilizations of partitions,
    the pair engine starts of pair colorings."""
    calls = {"module": {}, "refine": {}, "pair": {}, "wl2_step": {}}

    def counted(kind, fn, order):
        def wrapper(arg, *rest):
            key = order(arg)
            if key is not None:
                calls[kind][key] = calls[kind].get(key, 0) + 1
            return fn(arg, *rest)

        return wrapper

    def partition_order(start):
        return start.spec.order if isinstance(start, OrderedPartition) else None

    sweep_mod = cayleywl.sweep
    monkeypatch.setattr(
        sweep_mod, "refine_to_stable",
        counted("module", sweep_mod.refine_to_stable, partition_order),
    )
    monkeypatch.setattr(
        sweep_mod, "refine", counted("refine", sweep_mod.refine, lambda p: p.spec.order)
    )
    monkeypatch.setattr(
        sweep_mod, "initial_pair_coloring",
        counted("pair", sweep_mod.initial_pair_coloring, lambda g: g.n),
    )
    monkeypatch.setattr(
        sweep_mod, "wl2_step", counted("wl2_step", sweep_mod.wl2_step, lambda c: c.n)
    )
    return calls


@pytest.mark.parametrize("cross_check", [False, True])
def test_run_sweep_matches_scalar_exhaustive(engine_calls, cross_check):
    """The orbit-reduced sweep equals one sweep_instance per record, runs the
    algebraic engine once per orbit and the pair engine once per record."""
    orders = tuple(range(2, 13))
    records = run_sweep(SweepConfig(n_values=orders, cross_check=cross_check))
    assert engine_calls["module"] == {n: orbit_count_oracle(n) for n in orders}
    assert engine_calls["module"][12] == 312
    assert engine_calls["refine"][12] == 388
    assert engine_calls["pair"] == ({n: 1 << (n - 1) for n in orders} if cross_check else {})
    scalar = [
        sweep_instance(n, mask, cross_check) for n in orders for mask in range(0, 1 << n, 2)
    ]
    assert records == scalar


def test_sweep_memo_pins_refine_calls(engine_calls):
    """Within one order ``refine`` runs once per start partition and once
    per distinct later partition: 1 737 calls for n = 2..14, where one
    unmemoized stabilization per representative makes 2 259."""
    run_sweep(SweepConfig(n_values=tuple(range(2, 15))))
    assert sum(engine_calls["refine"].values()) == 1737
    assert engine_calls["refine"][12] == 388
    assert engine_calls["refine"][14] == 852


def test_sweep_memo_pins_wl2_step_calls(engine_calls):
    """Within one chunk of masks ``wl2_step`` runs once per distinct pair
    partition: 5 080 calls for the cross-checked n = 2..12, where one
    unmemoized stabilization per mask makes 9 862."""
    run_sweep(SweepConfig(n_values=tuple(range(2, 13)), cross_check=True))
    assert sum(engine_calls["wl2_step"].values()) == 5080
    assert engine_calls["wl2_step"][11] == 1322
    assert engine_calls["wl2_step"][12] == 2754


@pytest.mark.parametrize("n", [12, 13])
def test_memoized_modules_match_plain_stabilization(n):
    """The memoized batch gives every mask the rounds and stable partition
    of its own unmemoized stabilization."""
    spec = GroupSpec((n,))
    masks = range(0, 1 << n, 2)
    plain = [
        stabilize_refine(initial_cayley_smodule(spec, mask_to_con(mask, n))) for mask in masks
    ]
    assert _stable_modules(spec, masks) == [(t.rounds, t.final.classes) for t in plain]


@pytest.mark.parametrize("n", [12, 13, 17, 18, 19, 20])
def test_memoized_pair_modules_match_plain_stabilization(n):
    """The memoized pair engine gives every mask the rounds and induced
    partition of its own unmemoized 2-WL stabilization.  Orders 17..20 are
    sampled with more than one chunk of masks each, past the memo's reset."""
    spec = GroupSpec((n,))
    if n <= 13:
        masks = range(0, 1 << n, 2)
    else:
        masks = sorted(sample_connection_masks(n, _CHUNK + 26, n))
    plain = [wl2_stabilize(build_cayley(spec, mask_to_con(mask, n))) for mask in masks]
    assert _wl2_modules(spec, masks) == [
        (t.rounds, induced_smodule(t.final, spec).classes) for t in plain
    ]


def _wl2_and_individualized_cr(g: CayleyGraph) -> tuple[tuple, tuple]:
    """The classes of 2-WL's stable partition (row 0 of the pair coloring,
    computed on the module path) and of color refinement's stable coloring
    from vertex 0 individualized."""
    wl2 = stabilize_refine(initial_cayley_smodule(g.spec, g.con)).final.classes
    return wl2, cr_refine(g, individualize(uniform_coloring(g.n), 0)).final


@pytest.mark.parametrize("n", range(2, 17))
def test_wl2_equals_cr_with_the_identity_individualized_over_z_n(n):
    """Over Z_n, n <= 16, 2-WL gains nothing over color refinement with
    the identity individualized, on every unit/complement orbit
    representative the sweep stabilizes."""
    spec = GroupSpec((n,))
    reps, _ = _orbits(spec, range(0, 1 << n, 2))
    for mask in reps:
        wl2, cr = _wl2_and_individualized_cr(CayleyGraph(spec, mask_to_con(mask, n)))
        assert wl2 == cr, (n, mask_to_con(mask, n))


def test_wl2_is_strictly_finer_than_individualized_cr_on_a_z4xz4_set():
    wl2, cr = _wl2_and_individualized_cr(parse_cayley_graph("Z4xZ4:(0,1),(1,0),(1,1),(1,2),(2,1)"))
    assert (len(wl2), len(cr)) == (10, 9)
    assert all(any(set(a) <= set(b) for b in cr) for a in wl2)


@pytest.mark.parametrize("cross_check", [False, True])
def test_run_sweep_matches_scalar_sampled(cross_check):
    cfg = SweepConfig(
        n_values=(17, 18, 19, 20), sample_count=40, seed=11,
        cross_check=cross_check,
    )
    scalar = [
        sweep_instance(n, mask, cross_check)
        for n in cfg.n_values
        for mask in sorted(sample_connection_masks(n, cfg.sample_count, cfg.seed))
    ]
    assert run_sweep(cfg) == scalar


@pytest.mark.parametrize(
    "cfg",
    [
        SweepConfig(n_values=tuple(range(2, 13))),
        SweepConfig(n_values=(15, 18), sample_count=200, seed=3),
        SweepConfig(n_values=(9, 10, 13), sample_count=60, seed=5, cross_check=True),
    ],
    ids=["exhaustive", "sampled", "cross-check"],
)
def test_run_sweep_jobs_do_not_change_records(cfg):
    assert run_sweep(replace(cfg, jobs=2)) == run_sweep(cfg)


@pytest.mark.parametrize("jobs", [1, 2])
def test_bound_violation_names_first_offending_record(monkeypatch, jobs):
    monkeypatch.setattr(cayleywl.sweep, "round_bound", lambda n: 1 if n >= 8 else round_bound(n))
    with pytest.raises(BoundViolation) as err:
        run_sweep(SweepConfig(n_values=tuple(range(2, 11)), jobs=jobs))
    assert str(err.value) == "round bound violated: n=8 set=0x2 rounds=2 > bound=1"


def test_engine_mismatch_names_first_offending_record(monkeypatch):
    """0x102 = {1, 8} is 4 * {2, 7} (0x84), so its module result is fanned
    out from 0x84; the pair engine is made to disagree on it alone."""
    pair_engine = cayleywl.sweep._wl2_modules

    def skewed(spec, masks):
        return [
            (rounds + (spec.order == 9 and mask == 0x102), classes)
            for mask, (rounds, classes) in zip(masks, pair_engine(spec, masks))
        ]

    monkeypatch.setattr(cayleywl.sweep, "_wl2_modules", skewed)
    with pytest.raises(EngineMismatch) as err:
        run_sweep(SweepConfig(n_values=tuple(range(2, 11)), cross_check=True))
    assert str(err.value) == "engine disagreement at n=9 set=0x102: rounds 3 (pair) vs 2 (module)"


def test_bound_violation_message():
    record = SweepRecord(n=9, set_mask="0x2", rounds=99, rounds_wl2=None, bound=20, d=3)
    err = BoundViolation(record)
    assert "rounds=99" in str(err) and err.record == record


def test_counterexample_rounds_stall_after_one_round():
    rounds = compute_counterexample_rounds()
    assert rounds == EXPECTED_COUNTEREXAMPLE_ROUNDS[:2]


def test_reproduce_counterexample_aborts_with_diff():
    with pytest.raises(CounterexampleMismatch) as err:
        reproduce_counterexample()
    assert err.value.computed == EXPECTED_COUNTEREXAMPLE_ROUNDS[:2]
    assert err.value.expected == EXPECTED_COUNTEREXAMPLE_ROUNDS
    assert "round 2" in str(err.value)


def test_counterexample_graph_fools_the_iso_procedure():
    """The 16-vertex graph lacks the Tinhofer property, so the procedure can
    mislabel a relabeled copy of the graph as non-isomorphic; this pins one
    such run (the relabeling really is an isomorphism by construction)."""
    x = counterexample_graph().digraph()
    sigma = (10, 14, 5, 1, 9, 2, 3, 11, 13, 7, 8, 4, 0, 6, 15, 12)
    edges = [(sigma[u], sigma[v]) for u in range(16) for v in x.out_neighbors[u]]
    relabeled = DiGraph.from_edges(16, edges)
    result = tinhofer_iso_test(x, relabeled)
    assert result.verdict == "non-isomorphic"
