"""Span tracing of cayleywl's public functions from outside the package.

Tracing works by rebinding names: every listed function is replaced by a
wrapper in every ``cayleywl`` module namespace that holds it (``cr_stabilize``
lives in ``wl``, ``tinhofer``, ``cli`` and the package itself), and the
original objects are put back when the ``traced`` context exits.  Nothing
under ``src/`` is edited.

A span is (name, start, end, parent, trace id).  A span opened with no span
open starts a new trace, so one trace is one CLI call or one library call of
the ``ir`` workload.  Spans stay in compact in-memory arrays until the run
writes them out; per-layer self time is a span's duration minus the part its
direct children cover.  The reference samples of ``speed.py`` (about 5 % of
the time) fall inside whichever span is open, and per-layer times are raw,
not rescaled.  A layer the workload does not call reads 0.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
import time
from array import array
from collections import Counter
from functools import cached_property

import numpy as np

import cayleywl.cli
import cayleywl.groups
import cayleywl.group_ring
import cayleywl.partition
import cayleywl.sweep
import cayleywl.tinhofer
import cayleywl.wl

# name -> unit of every per-layer metric; ``*_s`` values are self time per
# traced pass, counts are per traced pass.
LAYER_UNITS = {
    "cli.self_s": "s",
    "groups.addition_table_builds": "count",
    "groups.addition_table_s": "s",
    "partition.from_labels_calls": "count",
    "partition.from_labels_s": "s",
    "partition.refine_to_stable_calls": "count",
    "group_ring.refine_calls": "count",
    "group_ring.refine_s": "s",
    "group_ring.refine_us_per_call": "us",
    "group_ring.class_pairs": "count",
    "wl.wl2_step_calls": "count",
    "wl.wl2_step_s": "s",
    "wl.wl2_ns_per_triple": "ns",
    "wl.induced_smodule_s": "s",
    "wl.cr_cayley.calls": "count",
    "wl.cr_cayley.rounds": "count",
    "wl.cr_cayley.s": "s",
    "wl.cr_cayley.ns_per_vertex_round": "ns",
    "wl.cr_digraph.calls": "count",
    "wl.cr_digraph.rounds": "count",
    "wl.cr_digraph.s": "s",
    "wl.cr_digraph.ns_per_vertex_round": "ns",
    "wl.parse_s": "s",
    "tinhofer.searches": "count",
    "tinhofer.nodes": "count",
    "tinhofer.search_s": "s",
    "tinhofer.us_per_node": "us",
    "tinhofer.orbit_calls": "count",
    "tinhofer.orbit_s": "s",
    "tinhofer.bijection_searches": "count",
    "tinhofer.canon_calls": "count",
    "tinhofer.canon_s": "s",
    "tinhofer.canon_individualizations": "count",
    "sweep.instances": "count",
    "sweep.self_s": "s",
    "sweep.refine_calls_per_instance": "ratio",
    "sweep.max_rounds": "count",
    "sweep.min_slack": "count",
    "trace.instances_per_s_delta": "1/s",
}

SPAN_NAMES = (
    "cli.main",
    "groups.addition_table",
    "partition.from_labels",
    "partition.refine_to_stable",
    "group_ring.refine",
    "wl.wl2_step",
    "wl.induced_smodule",
    "wl.cr_cayley",
    "wl.cr_digraph",
    "wl.parse",
    "tinhofer.search",
    "tinhofer.orbits",
    "tinhofer.canon",
    "sweep.instance",
)


class Tracer:
    """In-memory span store plus the counters that spans cannot carry."""

    def __init__(self) -> None:
        self.span_name = array("i")
        self.parent = array("i")
        self.trace = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.depth = [0] * len(SPAN_NAMES)
        self.counts: Counter = Counter()
        self.max_rounds = 0
        self.min_slack: float = math.inf
        self.traces = 0

    def open(self, nid: int) -> int:
        idx = len(self.span_name)
        if self.stack:
            self.parent.append(self.stack[-1])
        else:
            self.parent.append(-1)
            self.traces += 1
        self.span_name.append(nid)
        self.trace.append(self.traces)
        self.stack.append(idx)
        self.depth[nid] += 1
        self.end.append(0)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self.stack.pop()
        self.depth[self.span_name[idx]] -= 1

    def inside(self, name: str) -> bool:
        return self.depth[SPAN_NAMES.index(name)] > 0

    def reset_counters(self) -> None:
        self.counts = Counter()
        self.max_rounds = 0
        self.min_slack = math.inf

    def spanned(self, name, fn, after=None):
        """Wrapper recording one span per call; ``name`` may be a function of
        the call's first argument.  ``after(args, result)`` updates counters."""
        nid_of = (
            (lambda first, nid=SPAN_NAMES.index(name): nid)
            if isinstance(name, str)
            else (lambda first: SPAN_NAMES.index(name(first)))
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(nid_of(args[0] if args else None))
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counted(self, key, fn, when=None):
        """Wrapper that only counts calls, for generators and cheap helpers."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if when is None or when():
                self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- hooks -------------------------------------------------------------

    def _after_refine(self, args, result) -> None:
        r = args[0].class_count
        self.counts["group_ring.class_pairs"] += r * (r + 1) // 2
        if self.inside("sweep.instance"):
            self.counts["sweep.refine_calls"] += 1

    def _after_wl2(self, args, result) -> None:
        self.counts["wl.wl2_triples"] += args[0].n ** 3

    def _after_cr(self, args, result) -> None:
        key = _cr_name(args[0])
        self.counts[key + ".rounds"] += result.rounds + 1
        self.counts[key + ".vertex_rounds"] += args[0].n * (result.rounds + 1)

    def _after_search(self, args, result) -> None:
        self.counts["tinhofer.nodes"] += result.nodes

    def _after_instance(self, args, result) -> None:
        self.max_rounds = max(self.max_rounds, result.rounds)
        self.min_slack = min(self.min_slack, result.bound - result.rounds)

    # -- patching ----------------------------------------------------------

    @contextlib.contextmanager
    def traced(self):
        """Rebind every traced name for the duration of the block."""
        wl, tin = cayleywl.wl, cayleywl.tinhofer
        functions = [
            (cayleywl.cli.main, self.spanned("cli.main", cayleywl.cli.main)),
            (
                cayleywl.partition.refine_to_stable,
                self.spanned("partition.refine_to_stable", cayleywl.partition.refine_to_stable),
            ),
            (
                cayleywl.group_ring.refine,
                self.spanned("group_ring.refine", cayleywl.group_ring.refine, self._after_refine),
            ),
            (wl.wl2_step, self.spanned("wl.wl2_step", wl.wl2_step, self._after_wl2)),
            (wl.induced_smodule, self.spanned("wl.induced_smodule", wl.induced_smodule)),
            (wl.cr_stabilize, self.spanned(_cr_name, wl.cr_stabilize, self._after_cr)),
            (wl.parse_cayley_graph, self.spanned("wl.parse", wl.parse_cayley_graph)),
            (wl.parse_adjacency, self.spanned("wl.parse", wl.parse_adjacency)),
            (
                tin.has_tinhofer_property,
                self.spanned("tinhofer.search", tin.has_tinhofer_property, self._after_search),
            ),
            (tin.coloring_orbits, self.spanned("tinhofer.orbits", tin.coloring_orbits)),
            (
                tin.canonical_form_prime_circulant,
                self.spanned("tinhofer.canon", tin.canonical_form_prime_circulant),
            ),
            (tin.color_bijections, self.counted("tinhofer.bijection_searches", tin.color_bijections)),
            (
                tin.individualize,
                self.counted(
                    "tinhofer.canon_individualizations",
                    tin.individualize,
                    lambda: self.inside("tinhofer.canon"),
                ),
            ),
            (
                cayleywl.sweep.sweep_instance,
                self.spanned("sweep.instance", cayleywl.sweep.sweep_instance, self._after_instance),
            ),
        ]
        spec_cls = cayleywl.groups.GroupSpec
        part_cls = cayleywl.partition.OrderedPartition
        table = spec_cls.__dict__["addition_table"]
        from_labels = part_cls.__dict__["from_labels"]
        new_table = cached_property(self.spanned("groups.addition_table", table.func))
        new_table.__set_name__(spec_cls, "addition_table")
        class_attrs = [
            (spec_cls, "addition_table", table, new_table),
            (part_cls, "from_labels", from_labels,
             classmethod(self.spanned("partition.from_labels", from_labels.__func__))),
        ]
        restore = []
        try:
            for owner, attr, old, new in class_attrs:
                setattr(owner, attr, new)
                restore.append((owner, attr, old))
            modules = [
                m for name, m in sys.modules.items()
                if name == "cayleywl" or name.startswith("cayleywl.")
            ]
            for module in modules:
                for attr, value in list(vars(module).items()):
                    for old, new in functions:
                        if value is old:
                            setattr(module, attr, new)
                            restore.append((module, attr, old))
            yield self
        finally:
            for owner, attr, old in reversed(restore):
                setattr(owner, attr, old)

    # -- results -----------------------------------------------------------

    def mark(self) -> int:
        """Span index where the next pass starts."""
        return len(self.span_name)

    def layer_metrics(self, lo: int, hi: int) -> dict[str, float]:
        """Per-layer metrics of the spans in ``[lo, hi)`` and the current counters."""
        names = np.frombuffer(self.span_name, dtype=np.int32)[lo:hi]
        parents = np.frombuffer(self.parent, dtype=np.int32)[lo:hi]
        dur = (
            np.frombuffer(self.end, dtype=np.int64)[lo:hi]
            - np.frombuffer(self.start, dtype=np.int64)[lo:hi]
        ) / 1e9
        has_parent = parents >= lo
        child = np.bincount(parents[has_parent] - lo, weights=dur[has_parent], minlength=hi - lo)
        own = dur - child
        k = len(SPAN_NAMES)
        calls = np.bincount(names, minlength=k)
        self_s = np.bincount(names, weights=own, minlength=k)
        c = {n: int(calls[i]) for i, n in enumerate(SPAN_NAMES)}
        s = {n: float(self_s[i]) for i, n in enumerate(SPAN_NAMES)}
        cnt = self.counts

        def per(num: float, den: float, scale: float) -> float:
            return num / den * scale if den else 0.0

        out = {
            "cli.self_s": s["cli.main"],
            "groups.addition_table_builds": c["groups.addition_table"],
            "groups.addition_table_s": s["groups.addition_table"],
            "partition.from_labels_calls": c["partition.from_labels"],
            "partition.from_labels_s": s["partition.from_labels"],
            "partition.refine_to_stable_calls": c["partition.refine_to_stable"],
            "group_ring.refine_calls": c["group_ring.refine"],
            "group_ring.refine_s": s["group_ring.refine"],
            "group_ring.refine_us_per_call": per(s["group_ring.refine"], c["group_ring.refine"], 1e6),
            "group_ring.class_pairs": cnt["group_ring.class_pairs"],
            "wl.wl2_step_calls": c["wl.wl2_step"],
            "wl.wl2_step_s": s["wl.wl2_step"],
            "wl.wl2_ns_per_triple": per(s["wl.wl2_step"], cnt["wl.wl2_triples"], 1e9),
            "wl.induced_smodule_s": s["wl.induced_smodule"],
            "wl.parse_s": s["wl.parse"],
            "tinhofer.searches": c["tinhofer.search"],
            "tinhofer.nodes": cnt["tinhofer.nodes"],
            "tinhofer.search_s": s["tinhofer.search"],
            "tinhofer.us_per_node": per(s["tinhofer.search"], cnt["tinhofer.nodes"], 1e6),
            "tinhofer.orbit_calls": c["tinhofer.orbits"],
            "tinhofer.orbit_s": s["tinhofer.orbits"],
            "tinhofer.bijection_searches": cnt["tinhofer.bijection_searches"],
            "tinhofer.canon_calls": c["tinhofer.canon"],
            "tinhofer.canon_s": s["tinhofer.canon"],
            "tinhofer.canon_individualizations": cnt["tinhofer.canon_individualizations"],
            "sweep.instances": c["sweep.instance"],
            "sweep.self_s": s["sweep.instance"],
            "sweep.refine_calls_per_instance": per(cnt["sweep.refine_calls"], c["sweep.instance"], 1.0),
            "sweep.max_rounds": self.max_rounds,
            "sweep.min_slack": 0 if math.isinf(self.min_slack) else self.min_slack,
        }
        for key in ("wl.cr_cayley", "wl.cr_digraph"):
            out[key + ".calls"] = c[key]
            out[key + ".rounds"] = cnt[key + ".rounds"]
            out[key + ".s"] = s[key]
            out[key + ".ns_per_vertex_round"] = per(s[key], cnt[key + ".vertex_rounds"], 1e9)
        return out

    def save(self, path) -> None:
        """Write every span as parallel arrays plus the span-name table."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(SPAN_NAMES),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            trace=np.frombuffer(self.trace, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )


def _cr_name(graph) -> str:
    return "wl.cr_cayley" if isinstance(graph, cayleywl.wl.CayleyGraph) else "wl.cr_digraph"
