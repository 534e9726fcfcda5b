"""Acceptance suite: one test per numbered criterion, full stated ranges.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one line per
criterion.  Criterion 7 carries a proof rather than a byte comparison: the
reference round lists for the 16-vertex counterexample agree with color
refinement for rounds 0 and 1, where refinement is stable (the three-class
partition is equitable), and reference rounds 2 and 3 are each cut by an
automorphism fixing the individualized vertex, so no isomorphism-invariant
refinement can produce them.  The ``counterexample`` command still aborts
with a diff and exits 2, as its contract requires; the Tinhofer-property
half of the criterion holds.
"""

from __future__ import annotations

import time
from collections import defaultdict

import pytest

from cayleywl import (
    CayleyGraph,
    GroupSpec,
    OrderedPartition,
    canonical_form_prime_circulant,
    cr_stabilize,
    has_tinhofer_property,
    predicted_individualized_partition,
    stabilizer_subgroup,
    uniform_coloring,
)
from cayleywl.cli import main
from cayleywl.sweep import (
    EXPECTED_COUNTEREXAMPLE_ROUNDS,
    SweepConfig,
    compute_counterexample_rounds,
    mcg_stream,
    run_sweep,
)
from cayleywl.tinhofer import individualize
from cayleywl.wl import partition_from_coloring

import invariants

PRIMES_11 = (2, 3, 5, 7, 11)
PRIMES_13 = PRIMES_11 + (13,)
SEED = 20260810


def _con_sets(p: int, nonempty: bool = False, proper: bool = False):
    for mask in range(1 << (p - 1)):
        con = tuple(j for j in range(1, p) if mask >> (j - 1) & 1)
        if nonempty and not con:
            continue
        if proper and len(con) == p - 1:
            continue
        yield con


def test_c01_z9_reference_output(capsys):
    start = time.perf_counter()
    code = main(["wl2", "Z9:1,3,6,8"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    assert out == "rounds: 1, classes: 0|1,8|2,7|3,6|4,5\n"
    assert elapsed < 1.0
    print(f"criterion 1 PASS: Z9:1,3,6,8 refines in 1 round ({elapsed:.3f}s)")


def test_c02_round_bound_sweep():
    start = time.perf_counter()
    records = run_sweep(SweepConfig(n_values=tuple(range(2, 17))))
    elapsed = time.perf_counter() - start
    assert len(records) == sum(1 << (n - 1) for n in range(2, 17))
    assert all(r.rounds <= r.bound for r in records)
    z9_row = next(r for r in records if r.n == 9 and r.set_mask == "0x14a")
    assert z9_row.rounds == 1
    assert elapsed < 600.0
    print(
        f"criterion 2 PASS: {len(records)} instances, zero bound violations "
        f"({elapsed:.1f}s)"
    )


def test_c03_engine_equivalence():
    start = time.perf_counter()
    exhaustive = run_sweep(
        SweepConfig(n_values=tuple(range(2, 11)), cross_check=True)
    )
    sampled = run_sweep(
        SweepConfig(
            n_values=tuple(range(11, 17)),
            sample_count=500,
            seed=SEED,
            cross_check=True,
        )
    )
    records = exhaustive + sampled
    assert all(r.rounds_wl2 == r.rounds for r in records)
    assert len(sampled) == 6 * 500
    # round-by-round agreement of the two views, not just at the fixed point
    stepwise = 0
    for n in range(2, 11):
        stepwise += invariants.check_wl_module_equivalence(n)
    from cayleywl.sweep import sample_connection_masks

    for n in range(11, 17):
        masks = sample_connection_masks(n, 40, SEED)
        stepwise += invariants.check_wl_module_equivalence(n, sample_masks=masks)
    elapsed = time.perf_counter() - start
    print(
        f"criterion 3 PASS: {len(exhaustive)} exhaustive + {len(sampled)} sampled "
        f"instances agree across engines, {stepwise} stepwise checks ({elapsed:.1f}s)"
    )


def test_c04_one_individualization():
    start = time.perf_counter()
    checked = 0
    for p in PRIMES_13:
        spec = GroupSpec((p,))
        for con in _con_sets(p, nonempty=True, proper=True):
            sd = stabilizer_subgroup(p, con)
            dg = CayleyGraph(spec, con).digraph()
            for g0 in range(p):
                trace = cr_stabilize(
                    dg, individualize(uniform_coloring(p), g0)
                )
                got = partition_from_coloring(trace.final, spec)
                want = predicted_individualized_partition(sd, g0)
                assert got.classes == want.classes, (p, con, g0)
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(
        f"criterion 4 PASS: {checked} stable partitions equal the coset "
        f"prediction ({elapsed:.1f}s)"
    )


def test_c05_two_individualizations():
    start = time.perf_counter()
    checked = 0
    for p in (3, 5, 7, 11):
        spec = GroupSpec((p,))
        for con in _con_sets(p, nonempty=True, proper=True):
            dg = CayleyGraph(spec, con).digraph()
            for g0 in range(p):
                for g1 in range(g0 + 1, p):
                    coloring = individualize(
                        individualize(uniform_coloring(p), g0), g1
                    )
                    trace = cr_stabilize(dg, coloring)
                    assert trace.final.is_discrete(), (p, con, g0, g1)
                    checked += 1
    p = 13
    spec = GroupSpec((p,))
    for con in _con_sets(p, nonempty=True, proper=True):
        dg = CayleyGraph(spec, con).digraph()
        stream = mcg_stream(SEED ^ sum(1 << j for j in con))
        for _ in range(100):
            draw = next(stream)
            g0 = draw % p
            g1 = (g0 + 1 + (draw >> 32) % (p - 1)) % p
            coloring = individualize(individualize(uniform_coloring(p), g0), g1)
            trace = cr_stabilize(dg, coloring)
            assert trace.final.is_discrete(), (p, con, g0, g1)
            checked += 1
    elapsed = time.perf_counter() - start
    print(
        f"criterion 5 PASS: {checked} two-vertex individualizations all end "
        f"discrete ({elapsed:.1f}s)"
    )


def test_c06_tinhofer_property_exhaustive():
    start = time.perf_counter()
    budget = 1_000_000
    worst = 0
    checked = 0
    for p in PRIMES_11:
        spec = GroupSpec((p,))
        for con in _con_sets(p):
            report = has_tinhofer_property(CayleyGraph(spec, con), budget=budget)
            assert report.status == "true", (p, con, report)
            worst = max(worst, report.nodes)
            checked += 1
    elapsed = time.perf_counter() - start
    assert worst <= budget
    print(
        f"criterion 6 PASS: {checked} prime circulants have the property, "
        f"worst search used {worst} nodes ({elapsed:.1f}s)"
    )


def test_c07_counterexample_reproduction():
    # Tinhofer half: the property fails with a certificate whose first pair
    # is (0, 0), vertex 0 in both copies.
    spec = GroupSpec((4, 4))
    con = tuple(spec.index(r) for r in ((1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)))
    report = has_tinhofer_property(CayleyGraph(spec, con))
    assert report.status == "false"
    assert report.certificate[0] == (0, 0)

    # Round half.  After individualizing vertex 0 the engine's rounds are the
    # in-neighbor counting oracle's, round by round, and stop at its fixed
    # point; these are exactly the reference's rounds 0 and 1.
    rounds = compute_counterexample_rounds()
    parts = [OrderedPartition.from_text(spec, text) for text in rounds]
    start = invariants.individualize_oracle(OrderedPartition.single(spec), spec.identity)
    assert parts[0] == start
    for before, after in zip(parts, parts[1:]):
        assert after.class_count > before.class_count
        assert invariants.in_neighbor_split_oracle(spec, con, before) == after
    stable = parts[-1]
    assert invariants.is_equitable(spec, con, stable)
    assert stable == invariants.stable_partition_oracle(spec, con, start)
    assert rounds == EXPECTED_COUNTEREXAMPLE_ROUNDS[:2]

    # Reference rounds 2 and 3 cannot be reached.  Color refinement from an
    # individualized coloring is invariant under every automorphism fixing
    # the individualized vertices (Tinhofer 1991; Arvind, Koebler, Rattan,
    # Verbitsky 2017).  The 12 linear automorphisms x -> Mx all fix vertex 0.
    # The computed partitions are invariant under all of them, while reference
    # rounds 2 and 3 each have a vertex v that one of them moves out of v's
    # class.
    automorphisms = invariants.linear_automorphisms(spec, con)
    assert len(automorphisms) == 12
    for part in parts:
        assert invariants.orbit_cut_witness(automorphisms, part) is None, part.to_text()
    ref2, ref3 = (
        OrderedPartition.from_text(spec, text) for text in EXPECTED_COUNTEREXAMPLE_ROUNDS[2:]
    )
    for ref in (ref2, ref3):
        assert ref.refines(stable) and ref.class_count > stable.class_count, ref.to_text()
        assert invariants.orbit_cut_witness(automorphisms, ref) is not None, ref.to_text()
    # Round 2's only singleton is {0}; every individualization-refinement run
    # keeps each individualized vertex a singleton, so a run producing round 2
    # individualized at most vertex 0 and would be invariant under the
    # automorphisms above.  No such run exists.
    assert [c for c in ref2.classes if len(c) == 1] == [(0,)]
    # Round 3 is the stable partition after individualizing vertex 0 and then
    # vertex 10 = element (2, 2), a run with two individualized vertices.
    assert spec.element(10) == (2, 2)
    via_10 = invariants.stable_partition_oracle(
        spec, con, invariants.individualize_oracle(stable, 10)
    )
    assert via_10 == ref3
    # The certificate's second pair (2, 2) means vertex 2 in each copy, not
    # element (2, 2); individualizing vertex 2 gives a different partition.
    # Reading the pair as an element is the likely origin of the reference.
    assert report.certificate[1] == (2, 2)
    via_2 = invariants.stable_partition_oracle(
        spec, con, invariants.individualize_oracle(stable, 2)
    )
    assert via_2.to_text().startswith("0|1,3|2|4,5,12,15|")
    assert via_2 != ref3
    print(
        "criterion 7 PASS: counterexample property and rounds 0-1 reproduced; "
        "reference rounds 2-3 cut by automorphisms fixing vertex 0"
    )


def test_c08_canonical_labeling_vs_oracle():
    start = time.perf_counter()
    disagreements = 0
    total_pairs = 0
    for p in PRIMES_13:
        spec = GroupSpec((p,))
        sets = list(_con_sets(p))
        codes = {
            con: canonical_form_prime_circulant(spec, con).code for con in sets
        }
        # orbit of each connection set under unit multipliers
        orbit_key = {}
        for con in sets:
            orbit = min(
                tuple(sorted((m * c) % p for c in con)) for m in range(1, p)
            ) if con else ()
            orbit_key[con] = orbit
        by_code = defaultdict(set)
        for con, code in codes.items():
            by_code[code].add(con)
        by_orbit = defaultdict(set)
        for con, key in orbit_key.items():
            by_orbit[key].add(con)
        assert set(map(frozenset, by_code.values())) == set(
            map(frozenset, by_orbit.values())
        ), f"p={p}: code classes differ from multiplier orbits"
        total_pairs += len(sets) * len(sets)
        # spot-check the oracle agreement on explicit ordered pairs
        probe = sets[:: max(1, len(sets) // 16)]
        for a in probe:
            for b in probe:
                same_code = codes[a] == codes[b]
                witness = invariants.brute_force_iso_oracle(
                    CayleyGraph(spec, a), CayleyGraph(spec, b)
                )
                if same_code != (witness is not None):
                    disagreements += 1
    elapsed = time.perf_counter() - start
    assert disagreements == 0
    print(
        f"criterion 8 PASS: code equality matches the multiplier oracle on "
        f"{total_pairs} ordered pairs ({elapsed:.1f}s)"
    )


def test_c09_refinement_performance():
    timings = {}
    for p in (10007, 20011, 40009):
        cg = CayleyGraph(GroupSpec((p,)), invariants.ladder_connection_set(p))
        coloring = individualize(uniform_coloring(p), 0)
        best = None
        for _ in range(3):
            start = time.perf_counter()
            trace = cr_stabilize(cg, coloring)
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
        timings[p] = best
        assert trace.final.class_count > 1
    assert timings[10007] < 2.0, timings
    ratio_a = timings[20011] / timings[10007]
    ratio_b = timings[40009] / timings[20011]
    assert ratio_a <= 3.0 and ratio_b <= 3.0, timings
    print(
        "criterion 9 PASS: refinement at p=10007 took "
        f"{timings[10007]*1000:.0f} ms; doubling ratios {ratio_a:.2f}, {ratio_b:.2f}"
    )


def test_c10_property_suites():
    start = time.perf_counter()
    counts = {
        "coefficient extraction": invariants.check_classwise_extraction(12, 8, SEED),
        "union/intersection closure": invariants.check_spans_closure(12, 8, SEED + 1),
        "product membership": invariants.check_product_membership(12, 6, SEED + 2),
        "refinement monotonicity": invariants.check_refine_monotone(16, 6, SEED + 3),
        "multiplier-image membership": invariants.check_power_membership(12, 3, SEED + 4),
        "stability preservation": invariants.check_stability_preserved(12, 6, SEED + 5),
        "refinement respects automorphisms": invariants.check_cr_respects_automorphisms(
            (3, 5, 7, 11), SEED + 6
        ),
        "vertex/connection-set refinement equivalence": invariants.check_cr_con_equivalence(
            12, 6, SEED + 7
        ),
        "spectrum grouping": invariants.check_spectrum_grouping(PRIMES_13),
        "linear automorphism counts": invariants.check_automorphism_family((3, 5, 7, 11)),
        "multiplier bijectivity": invariants.check_power_bijectivity(64),
    }
    elapsed = time.perf_counter() - start
    assert all(count > 0 for count in counts.values())
    summary = ", ".join(f"{name}: {count}" for name, count in counts.items())
    print(f"criterion 10 PASS: {summary} ({elapsed:.1f}s)")
