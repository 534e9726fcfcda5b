"""Experiment sweeps over circulant connection sets and the check of the
16-vertex Tinhofer counterexample's reference rounds.

Sampled sweeps draw connection-set bitmasks from a 64-bit multiplicative
congruential generator so alternate implementations can reproduce them:
state0 = (seed XOR n*0x9e3779b97f4a7c15) | 1, state = state * 0xd1342543de82ef95
mod 2^64, mask = state >> (64 - (n-1)), drawn until the requested number of
distinct masks is collected.
"""

from __future__ import annotations

import multiprocessing
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .groups import GroupSpec, divisor_count, parse_group_spec, unit_multipliers
from .group_ring import refine, scaled_partition
from .partition import OrderedPartition, refine_to_stable
from .tinhofer import individualize
from .wl import (
    CayleyGraph,
    PairColoring,
    VertexColoring,
    check_wl2_order,
    cr_step,
    induced_smodule,
    initial_cayley_smodule,
    initial_pair_coloring,
    partition_from_coloring,
    uniform_coloring,
    wl2_step,
)

MCG_MULTIPLIER = 0xD1342543DE82EF95
_SEED_MIX = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1

EXHAUSTIVE_LIMIT = 20
# Order 20's 34 008 orbit representatives fill 532 pool tasks of 64 masks,
# the most of any exhaustive order; workers beyond that would sit idle on the
# algebraic path, and a pool starts every worker up front.
JOBS_LIMIT = 512
# a sampled mask is n - 1 bits of one 64-bit generator state
SAMPLE_LIMIT = 65


def ceil_log2(n: int) -> int:
    if n < 1:
        raise ValueError("ceil_log2 requires n >= 1")
    return (n - 1).bit_length()


def round_bound(n: int) -> int:
    """Upper bound on refinement rounds for order-n circulants."""
    return (2 + divisor_count(n)) * ceil_log2(n)


def mcg_stream(seed: int) -> Iterator[int]:
    state = (seed | 1) & _MASK64
    while True:
        state = (state * MCG_MULTIPLIER) & _MASK64
        yield state


def sample_connection_masks(n: int, count: int, seed: int) -> list[int]:
    """Distinct connection-set bitmasks for Z_n in draw order (see module doc)."""
    if n < 1:
        raise ValueError("sampled order must be >= 1")
    if n > SAMPLE_LIMIT:
        raise ValueError(f"sampled mode limited to n <= {SAMPLE_LIMIT}")
    space = 1 << (n - 1)
    if count >= space:
        return [m << 1 for m in range(space)]
    stream = mcg_stream(seed ^ ((n * _SEED_MIX) & _MASK64))
    drawn: list[int] = []
    seen: set[int] = set()
    while len(drawn) < count:
        mask = (next(stream) >> (64 - (n - 1))) << 1
        if mask not in seen:
            seen.add(mask)
            drawn.append(mask)
    return drawn


def mask_to_con(mask: int, n: int) -> tuple[int, ...]:
    return tuple(j for j in range(1, n) if (mask >> j) & 1)


def con_to_mask(con: tuple[int, ...]) -> int:
    mask = 0
    for j in con:
        mask |= 1 << j
    return mask


@dataclass(frozen=True)
class SweepConfig:
    """One sweep: orders to cover, sample count, and cross-check flag.

    Without a sample count the sweep is exhaustive: it enumerates all
    2^(n-1) connection sets per order (empty set included) and is limited
    to n <= 20.  A sampled sweep requires an explicit seed and is limited
    to n <= 65.
    """

    n_values: tuple[int, ...]
    sample_count: Optional[int] = None
    seed: Optional[int] = None
    cross_check: bool = False
    jobs: int = 1

    def __post_init__(self) -> None:
        if not self.n_values:
            raise ValueError("empty sweep order range")
        if any(n < 2 for n in self.n_values):
            raise ValueError("sweep orders must be >= 2")
        if self.sample_count is None:
            if any(n > EXHAUSTIVE_LIMIT for n in self.n_values):
                raise ValueError(f"exhaustive mode limited to n <= {EXHAUSTIVE_LIMIT}")
        elif self.seed is None:
            raise ValueError("sampled mode requires an explicit seed")
        elif self.sample_count < 1:
            raise ValueError("sampled mode requires a positive sample count")
        elif any(n > SAMPLE_LIMIT for n in self.n_values):
            raise ValueError(f"sampled mode limited to n <= {SAMPLE_LIMIT}")
        if not 1 <= self.jobs <= JOBS_LIMIT:
            raise ValueError(f"jobs must be in 1..{JOBS_LIMIT}, got {self.jobs}")


@dataclass(frozen=True)
class SweepRecord:
    """One instance result; set_mask is hex with bit j set for element j."""

    n: int
    set_mask: str
    rounds: int
    rounds_wl2: Optional[int]
    bound: int
    d: int


class BoundViolation(RuntimeError):
    def __init__(self, record: SweepRecord) -> None:
        super().__init__(
            f"round bound violated: n={record.n} set={record.set_mask} "
            f"rounds={record.rounds} > bound={record.bound}"
        )
        self.record = record


class EngineMismatch(RuntimeError):
    def __init__(self, n: int, mask: int, detail: str) -> None:
        super().__init__(f"engine disagreement at n={n} set=0x{mask:x}: {detail}")
        self.n = n
        self.mask = mask


_Classes = tuple[tuple[int, ...], ...]

# masks per pool task; each task builds its own GroupSpec
_CHUNK = 64


def _stable_modules(spec: GroupSpec, masks: Sequence[int]) -> list[tuple[int, _Classes]]:
    """Rounds and stable partition of the algebraic path, one per mask.

    Representatives of one order pass through the same few partitions, and
    :func:`refine` reads only the membership and the group, so its results
    are memoized by classes for the whole batch.  Start partitions are
    refined without the memo: distinct orbits start from distinct
    partitions, so an entry per representative would buy only the rare hit
    of a later round on another orbit's start (7 of 2 259 calls for
    n = 2..14).
    """
    memo: dict[_Classes, OrderedPartition] = {}

    def step(partition: OrderedPartition) -> OrderedPartition:
        if partition is start:
            return refine(partition)
        refined = memo.get(partition.classes)
        if refined is None:
            refined = memo[partition.classes] = refine(partition)
        return refined

    out = []
    for mask in masks:
        start = initial_cayley_smodule(spec, mask_to_con(mask, spec.order))
        trace = refine_to_stable(start, step)
        out.append((trace.rounds, trace.final.classes))
    return out


def _wl2_modules(spec: GroupSpec, masks: Sequence[int]) -> list[tuple[int, _Classes]]:
    """Rounds of the pair-coloring engine and the partition its stable
    coloring induces, one per mask.

    A 2-WL round's partition depends only on its input's partition, and
    the sweep reads only partitions and round counts, so every coloring is
    relabelled by first occurrence and :func:`wl2_step` is memoized by the
    relabelled colors.  Masks share stable partitions and their confirming
    round, and S, -S and the complement share a start.  The memo is cleared
    every ``_CHUNK`` masks, the size of a pool task, so serial and pooled
    runs compute the same steps and memory is bounded by one chunk.
    """
    n = spec.order
    check_wl2_order(n)
    ids = list(range(n * n))  # one int object per id for every memo entry

    def relabelled(c: PairColoring) -> PairColoring:
        first = dict(zip(dict.fromkeys(c.colors), ids))
        return PairColoring(n, tuple(map(first.__getitem__, c.colors)))

    memo: dict[tuple[int, ...], PairColoring] = {}

    def step(c: PairColoring) -> PairColoring:
        refined = memo.get(c.colors)
        if refined is None:
            refined = memo[c.colors] = relabelled(wl2_step(c))
        return refined

    out = []
    for i, mask in enumerate(masks):
        if i % _CHUNK == 0:
            memo.clear()
        g = CayleyGraph(spec, mask_to_con(mask, n))
        trace = refine_to_stable(relabelled(initial_pair_coloring(g)), step)
        out.append((trace.rounds, induced_smodule(trace.final, spec).classes))
    return out


def _cross_check(
    n: int, mask: int, rounds: int, final: OrderedPartition, wl2: tuple[int, _Classes]
) -> int:
    """The pair engine's round count, after checking it and its induced
    partition against the algebraic path's."""
    wl_rounds, wl_classes = wl2
    if wl_rounds != rounds:
        raise EngineMismatch(n, mask, f"rounds {wl_rounds} (pair) vs {rounds} (module)")
    if wl_classes != final.classes:
        wl_text = OrderedPartition(final.spec, wl_classes).to_text()
        raise EngineMismatch(n, mask, f"final {wl_text} (pair) vs {final.to_text()} (module)")
    return wl_rounds


def sweep_instance(n: int, mask: int, cross_check: bool = False) -> SweepRecord:
    """Stabilize one circulant instance on the algebraic path, optionally
    cross-checking round count and final partition against the pair-coloring
    engine: a one-mask orbit is its own representative, with multiplier 1."""
    [(_, _, *result)] = _sweep_order(n, [mask], cross_check, None)
    return SweepRecord(n, f"0x{mask:x}", *result)


def _orbits(spec: GroupSpec, masks: Sequence[int]) -> tuple[list[int], dict[int, tuple[int, int]]]:
    """Walk the masks in order; the first mask met of each orbit under unit
    multipliers and complementation is its representative.

    Returns the representatives and a map from every mask of their orbits to
    ``(slot, m)``: the mask is ``m`` times representative ``slot``, or that
    image's complement.  Both give the same round count, and the stable
    partition is the representative's scaled by ``m``: a unit multiplier is
    a group automorphism that refinement commutes with, and the complement
    has the same initial partition (categories 1<->4 and 2<->3 swap).
    """
    n = spec.order
    # per unit m, the bit of m*c for every element c: an image is a sum of bits
    tables = [(m, [1 << (c * m % n) for c in range(n)]) for m in unit_multipliers(spec)]
    full = (1 << n) - 2
    reps: list[int] = []
    orbit: dict[int, tuple[int, int]] = {}
    for mask in masks:
        if mask in orbit:
            continue
        slot = len(reps)
        reps.append(mask)
        orbit[mask] = (slot, 1)  # even when stray bits keep it out of its own image set
        con = mask_to_con(mask, n)
        for m, bits in tables:
            image = sum(map(bits.__getitem__, con))
            orbit.setdefault(image, (slot, m))
            orbit.setdefault(image ^ full, (slot, m))
    return reps, orbit


def _in_worker(work, n: int, masks: Sequence[int]) -> list[tuple[int, _Classes]]:
    return work(GroupSpec((n,)), masks)


def _run(pool, work, spec: GroupSpec, masks: Sequence[int]) -> list[tuple[int, _Classes]]:
    """``work(spec, masks)`` in this process, or in chunks on the pool."""
    if pool is None:
        return work(spec, masks)
    tasks = [(work, spec.order, masks[i : i + _CHUNK]) for i in range(0, len(masks), _CHUNK)]
    return [result for part in pool.starmap(_in_worker, tasks) for result in part]


def _sweep_order(n: int, masks: Sequence[int], cross_check: bool, pool) -> list[tuple]:
    """Rows ``(n, mask, rounds, rounds_wl2, bound, d)`` of one order:
    stabilize one mask per orbit and fan its result out; cross-checks still
    run the pair engine on every mask."""
    spec = GroupSpec((n,))
    reps, orbit = _orbits(spec, masks)
    stable = _run(pool, _stable_modules, spec, reps)
    checks = _run(pool, _wl2_modules, spec, masks) if cross_check else None
    bound, d = round_bound(n), divisor_count(n)
    rows = []
    for i, mask in enumerate(masks):
        slot, m = orbit[mask]
        rounds, classes = stable[slot]
        rounds_wl2: Optional[int] = None
        if checks is not None:
            final = scaled_partition(OrderedPartition(spec, classes), m)
            rounds_wl2 = _cross_check(n, mask, rounds, final, checks[i])
        if rounds > bound:
            raise BoundViolation(SweepRecord(n, f"0x{mask:x}", rounds, rounds_wl2, bound, d))
        rows.append((n, mask, rounds, rounds_wl2, bound, d))
    return rows


def sweep_rows(cfg: SweepConfig) -> list[tuple]:
    """All instance rows ``(n, mask, rounds, rounds_wl2, bound, d)``,
    ordered by (n, connection-set bitmask).

    Each order stabilizes one connection set per multiplier/complement orbit
    and fans the result out to the orbit.  Raises BoundViolation on the
    first bound breach and EngineMismatch when a cross-check disagrees, both
    for the first offending record; output is identical regardless of
    parallelism.
    """
    rows: list[tuple] = []
    with multiprocessing.Pool(cfg.jobs) if cfg.jobs > 1 else nullcontext() as pool:
        for n in sorted(cfg.n_values):
            if cfg.sample_count is None:
                masks = range(0, 1 << n, 2)
            else:
                masks = sorted(sample_connection_masks(n, cfg.sample_count, cfg.seed))
            rows.extend(_sweep_order(n, masks, cfg.cross_check, pool))
    return rows


def run_sweep(cfg: SweepConfig) -> list[SweepRecord]:
    """The records of :func:`sweep_rows`."""
    return [SweepRecord(n, f"0x{mask:x}", *result) for n, mask, *result in sweep_rows(cfg)]


# ---------------------------------------------------------------------------
# counterexample reproduction
# ---------------------------------------------------------------------------

COUNTEREXAMPLE_GROUP = "Z4xZ4"
COUNTEREXAMPLE_CON_RESIDUES: tuple[tuple[int, int], ...] = (
    (1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3),
)

# Reference round-by-round class lists the reproduction validates against,
# as canonical index partitions (index = 4a + b for element (a, b)).
# Rounds 2 and 3 cannot arise from color refinement after individualizing
# vertex 0: each is cut by an automorphism fixing vertex 0.  The proof is
# test_c07_counterexample_reproduction in tests/test_acceptance.py.
EXPECTED_COUNTEREXAMPLE_ROUNDS: tuple[str, ...] = (
    "0|1,2,3,4,5,6,7,8,9,10,11,12,13,14,15",
    "0|1,3,4,5,12,15|2,6,7,8,9,10,11,13,14",
    "0|1,3,4,5,12,15|2,7,8,10,13|6,9,11,14",
    "0|1,3,4,12|2,7,8,13|5,15|6,9,11,14|10",
)


class CounterexampleMismatch(AssertionError):
    def __init__(self, computed: tuple[str, ...], expected: tuple[str, ...], detail: str) -> None:
        lines = ["counterexample mismatch", detail]
        for i in range(max(len(computed), len(expected))):
            got = computed[i] if i < len(computed) else "<absent>"
            want = expected[i] if i < len(expected) else "<absent>"
            marker = "  " if got == want else "! "
            lines.append(f"{marker}round {i}: computed {got}")
            lines.append(f"{marker}round {i}: expected {want}")
        super().__init__("\n".join(lines))
        self.computed = computed
        self.expected = expected


def counterexample_graph() -> CayleyGraph:
    spec = parse_group_spec(COUNTEREXAMPLE_GROUP)
    return CayleyGraph(spec, tuple(spec.index(r) for r in COUNTEREXAMPLE_CON_RESIDUES))


def compute_counterexample_rounds() -> tuple[str, ...]:
    """Color refinement of the counterexample graph after individualizing
    element (0,0), one canonical partition text per round (round 0 is the
    individualized start)."""
    cg = counterexample_graph()
    spec = cg.spec
    rounds: list[str] = []

    def step(coloring: VertexColoring) -> VertexColoring:
        # called on the start, on every refined round, and on the fixed point
        # (which is not discrete: automorphisms fixing 0 keep classes whole)
        rounds.append(partition_from_coloring(coloring, spec).to_text())
        return cr_step(cg, coloring)

    refine_to_stable(individualize(uniform_coloring(spec.order), spec.identity), step)
    return tuple(rounds)


def reproduce_counterexample() -> tuple[str, ...]:
    """The counterexample's round class lists, which must match the
    reference byte-exactly.  They never do: every call aborts with a diff
    (see EXPECTED_COUNTEREXAMPLE_ROUNDS).  ``tinhofer-check`` reproduces the
    failed Tinhofer property."""
    computed = compute_counterexample_rounds()
    if computed != EXPECTED_COUNTEREXAMPLE_ROUNDS:
        raise CounterexampleMismatch(
            computed,
            EXPECTED_COUNTEREXAMPLE_ROUNDS,
            "counterexample round class-lists diverge from the reference",
        )
    return computed
