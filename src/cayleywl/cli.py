"""Command-line driver.

Exit codes: 0 success, 1 usage/input error, 2 assertion or bound violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Callable, Optional, Sequence

from .groups import is_prime
from .group_ring import stabilize_refine
from .partition import OrderedPartition, RefinementTrace, classes_text
from .spectral import SPECTRUM_LIMIT, eigenvalue_classes, numeric_spectrum, stabilizer_subgroup
from .sweep import (
    BoundViolation,
    CounterexampleMismatch,
    EngineMismatch,
    SweepConfig,
    reproduce_counterexample,
    sweep_rows,
)
from .tinhofer import (
    canonical_form_prime_circulant,
    check_tinhofer_order,
    has_tinhofer_property,
    individualize,
)
from .wl import (
    CayleyGraph,
    Graph,
    GraphFormatError,
    check_cr_size,
    check_wl2_order,
    initial_cayley_smodule,
    parse_adjacency,
    parse_cayley_graph,
    parse_vertex,
    cr_refine,
    uniform_coloring,
    wl2_stabilize,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse default exits with 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_graph(arg: str, check_order: Optional[Callable[[int], None]] = None) -> Graph:
    """Cayley string when it contains ':', otherwise an adjacency-list file,
    read as a stream; an undecodable byte fails its line as a lone surrogate."""
    if ":" in arg:
        return parse_cayley_graph(arg)
    path = Path(arg)
    if not path.exists():
        raise GraphFormatError(f"no such adjacency file {arg!r}", 0)
    with path.open(errors="surrogateescape") as stream:
        return parse_adjacency(stream, check_order)


def _descriptor(arg: str, needs: str) -> CayleyGraph:
    """The Cayley descriptor ``arg``; any other argument, a path included,
    raises ``needs`` before a file is opened."""
    if ":" not in arg:
        raise GraphFormatError(needs, 0)
    return parse_cayley_graph(arg)


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _rounds_text(fmt: str, rounds: int, key: str, value: object, shown: object) -> str:
    """One ``wl2``/``cr`` result: ``value`` goes into JSON, ``shown`` into
    csv and text, and the text format spells ``key`` with dashes."""
    if fmt == "json":
        return json.dumps({"rounds": rounds, key: value}, sort_keys=True) + "\n"
    if fmt == "csv":
        return f"rounds,{key}\n{rounds},{shown}\n"
    return f"rounds: {rounds}, {key.replace('_', '-')}: {shown}\n"


def _smodule_trace(g: CayleyGraph) -> tuple[OrderedPartition, RefinementTrace]:
    """Structural partition of Cay(G, con) and its ``refine`` trace, 2-WL's on the
    descriptor; the table is read first, so larger groups exit before any list."""
    g.spec.addition_table
    initial = initial_cayley_smodule(g.spec, g.con)
    return initial, stabilize_refine(initial)


def _cmd_wl2(args: argparse.Namespace) -> str:
    g = _load_graph(args.graph, check_wl2_order)
    if isinstance(g, CayleyGraph):
        trace = _smodule_trace(g)[1]
        stable = trace.final
        return _rounds_text(args.format, trace.rounds, "classes", stable.classes, stable.to_text())
    trace = wl2_stabilize(g)
    count = trace.final.class_count
    return _rounds_text(args.format, trace.rounds, "pair_classes", count, count)


def _cmd_cr(args: argparse.Namespace) -> str:
    g = _load_graph(args.graph, check_cr_size)
    if isinstance(g, CayleyGraph):
        check_cr_size(g.n * max(1, len(g.con)))
    coloring = uniform_coloring(g.n)
    for token in args.individualize or []:
        coloring = individualize(coloring, parse_vertex(token, g))
    trace = cr_refine(g, coloring)
    classes = trace.final
    return _rounds_text(args.format, trace.rounds, "classes", classes, classes_text(classes))


def _cmd_smodule(args: argparse.Namespace) -> str:
    initial, trace = _smodule_trace(_descriptor(args.graph, "smodule needs a Cayley graph input"))
    if args.format == "json":
        return json.dumps(
            {
                "initial": initial.classes,
                "rounds": trace.rounds,
                "stable": trace.final.classes,
            },
            sort_keys=True,
        ) + "\n"
    if args.format == "csv":
        return (
            "rounds,initial,stable\n"
            f"{trace.rounds},{initial.to_text()},{trace.final.to_text()}\n"
        )
    return (
        f"initial: {initial.to_text()}\n"
        f"rounds: {trace.rounds}\n"
        f"stable: {trace.final.to_text()}\n"
    )


def _cmd_spectrum(args: argparse.Namespace) -> str:
    needs = "spectrum needs a cyclic Cayley graph input"
    g = _descriptor(args.graph, needs)
    if len(g.spec.moduli) != 1:
        raise GraphFormatError(needs, 0)
    p = g.spec.order
    if not is_prime(p):
        raise GraphFormatError(f"spectrum needs prime order, got {p}", 0)
    if p > SPECTRUM_LIMIT:
        raise ValueError(f"spectrum limited to groups of order at most {SPECTRUM_LIMIT}, got {p}")
    sd = stabilizer_subgroup(p, g.con)
    classes = eigenvalue_classes(sd)
    values = numeric_spectrum(sd)
    member = classes.membership
    if args.format == "json":
        rows = [
            {"k": k, "real": values[k].real, "imag": values[k].imag, "class": member[k]}
            for k in range(p)
        ]
        return json.dumps(rows, sort_keys=True) + "\n"
    lines = ["k,real,imag,class"]
    for k in range(p):
        lines.append(f"{k},{values[k].real:.12g},{values[k].imag:.12g},{member[k]}")
    return "\n".join(lines) + "\n"


def _node_budget(args: argparse.Namespace) -> int:
    if args.max_nodes < 1:
        raise ValueError(f"--max-nodes must be >= 1, got {args.max_nodes}")
    return args.max_nodes


def _cmd_tinhofer_check(args: argparse.Namespace) -> str:
    budget = _node_budget(args)
    report = has_tinhofer_property(_load_graph(args.graph, check_tinhofer_order), budget=budget)
    payload = {
        "property": {"true": True, "false": False}.get(report.status),
        "status": report.status,
        "certificate": report.certificate or None,
        "nodes": report.nodes,
    }
    return json.dumps(payload, sort_keys=True) + "\n"


def _cmd_canon(args: argparse.Namespace) -> str:
    g = _descriptor(args.graph, "canon needs a Cayley graph input")
    form = canonical_form_prime_circulant(g.spec, g.con)
    payload = {"code": form.hex, "order": form.order}
    return json.dumps(payload, sort_keys=True) + "\n"


def _cmd_sweep(args: argparse.Namespace) -> str:
    cfg = SweepConfig(
        n_values=tuple(range(args.n_min, args.n_max + 1)),
        sample_count=args.sample,
        seed=args.seed,
        cross_check=args.cross_check,
        jobs=args.jobs,
    )
    rows = sweep_rows(cfg)
    if args.format == "json":
        records = [
            {"n": n, "set": f"0x{mask:x}", "rounds": r, "rounds_wl2": w, "bound": b, "d": d}
            for n, mask, r, w, b, d in rows
        ]
        return json.dumps(records, sort_keys=True) + "\n"
    lines = ["n,set,rounds,rounds_wl2,bound,d"]
    lines += [
        f"{n},0x{mask:x},{r},{'' if w is None else w},{b},{d}" for n, mask, r, w, b, d in rows
    ]
    return "\n".join(lines) + "\n"


def _cmd_counterexample(args: argparse.Namespace) -> str:
    _node_budget(args)  # validated, though the round check stops before any search
    reproduce_counterexample()  # raises the diff: c07 proves rounds 2 and 3 unreachable
    return ""


@functools.cache  # parse_args keeps no state in the parser, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cayleywl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, formats: Sequence[str] = ("text", "json", "csv")) -> None:
        """Declare ``--format`` over the given formats (none: a fixed format)
        and ``--out``."""
        if formats:
            p.add_argument("--format", choices=list(formats), default=formats[0])
        p.add_argument("--out", default=None, help="write output to a file")

    p = sub.add_parser("wl2", help="stabilize the pair-coloring refinement")
    p.add_argument("graph")
    common(p)
    p.set_defaults(func=_cmd_wl2)

    p = sub.add_parser("cr", help="stabilize color refinement")
    p.add_argument("graph")
    p.add_argument(
        "--individualize",
        action="append",
        metavar="V",
        help="vertex index or residue tuple to individualize (repeatable)",
    )
    common(p)
    p.set_defaults(func=_cmd_cr)

    p = sub.add_parser("smodule", help="stabilize the group-partition refinement")
    p.add_argument("graph")
    common(p)
    p.set_defaults(func=_cmd_smodule)

    p = sub.add_parser("spectrum", help="adjacency eigenvalues with class ids")
    p.add_argument("graph")
    common(p, formats=("csv", "json"))
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("tinhofer-check", help="decide the Tinhofer property")
    p.add_argument("graph")
    p.add_argument("--max-nodes", type=int, default=1_000_000)
    common(p, formats=())
    p.set_defaults(func=_cmd_tinhofer_check)

    p = sub.add_parser("canon", help="canonical form of a prime circulant")
    p.add_argument("graph")
    common(p, formats=())
    p.set_defaults(func=_cmd_canon)

    p = sub.add_parser("sweep", help="round-bound sweep over connection sets")
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--sample", type=int, default=None, metavar="COUNT")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--cross-check", action="store_true")
    p.add_argument("--jobs", type=int, default=1)
    common(p, formats=("csv", "json"))
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("counterexample", help="reproduce the 16-vertex counterexample")
    p.add_argument("--max-nodes", type=int, default=1_000_000)
    common(p, formats=())
    p.set_defaults(func=_cmd_counterexample)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _emit(args.func(args), args.out)
        return 0
    except (ValueError, OSError) as exc:
        print(f"cayleywl: {exc}", file=sys.stderr)
        return 1
    except (BoundViolation, EngineMismatch, CounterexampleMismatch) as exc:
        print(f"cayleywl: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
