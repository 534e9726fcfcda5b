import gc
import hashlib
import json
import random
import time
import tracemalloc
from itertools import combinations

import pytest

import cayleywl.cli
import cayleywl.sweep
import cayleywl.wl
from cayleywl.cli import build_parser, main
from cayleywl.groups import GroupSpec
from cayleywl.spectral import SPECTRUM_LIMIT
from cayleywl.sweep import JOBS_LIMIT, SweepConfig, round_bound, run_sweep
from cayleywl.tinhofer import CANON_LIMIT, TINHOFER_LIMIT
from cayleywl.wl import CR_LIMIT, WL2_LIMIT, induced_smodule, parse_cayley_graph, wl2_stabilize


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_wl2_text(capsys):
    code, out, _ = run(capsys, "wl2", "Z9:1,3,6,8")
    assert code == 0
    assert out == "rounds: 1, classes: 0|1,8|2,7|3,6|4,5\n"


def test_wl2_json(capsys):
    code, out, _ = run(capsys, "wl2", "Z9:1,3,6,8", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rounds"] == 1
    assert payload["classes"] == [[0], [1, 8], [2, 7], [3, 6], [4, 5]]


def test_cr_individualize(capsys):
    code, out, _ = run(capsys, "cr", "Z7:1,6", "--individualize", "0")
    assert code == 0
    assert out == "rounds: 2, classes: 0|1,6|2,5|3,4\n"


def test_cr_residue_tuple_vertex(capsys):
    code, out, _ = run(
        capsys, "cr", "Z4xZ4:(1,0),(3,0),(0,1),(0,3),(1,1),(3,3)",
        "--individualize", "(0,0)",
    )
    assert code == 0
    assert out.startswith("rounds: 1, classes: 0|")


def test_smodule(capsys):
    code, out, _ = run(capsys, "smodule", "Z9:1,3,6,8")
    assert code == 0
    assert out.splitlines() == [
        "initial: 0|1,3,6,8|2,4,5,7",
        "rounds: 1",
        "stable: 0|1,8|2,7|3,6|4,5",
    ]


def _smodule_descriptors():
    """Every connection set of Z_n for n <= 10, Z2xZ4 and Z3xZ3."""
    for moduli in [(n,) for n in range(2, 11)] + [(2, 4), (3, 3)]:
        spec = GroupSpec(moduli)
        if len(moduli) == 1:
            names = [str(g) for g in range(spec.order)]
        else:
            names = [f"({','.join(map(str, spec.element(g)))})" for g in range(spec.order)]
        for r in range(spec.order):
            for con in combinations(names[1:], r):
                yield f"{spec}:{','.join(con)}"


# sha256 of the text, json and csv output over _smodule_descriptors
_SMODULE_DIGEST = "80df5730e32c60e52f053a48ec5f935fb97a918741ece9478e5b0b0bc6042f41"


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_smodule_output_is_pinned():
    parser = build_parser()
    digest = hashlib.sha256()
    count = 0
    for graph in _smodule_descriptors():
        for fmt in ("text", "json", "csv"):
            args = parser.parse_args(["smodule", graph, "--format", fmt])
            digest.update(f"{graph} {fmt}\n{args.func(args)}".encode())
        count += 1
    assert count == 1022 + 128 + 256
    assert digest.hexdigest() == _SMODULE_DIGEST


def _wl2_descriptors():
    """Z1, the smodule descriptors, then 25 seeded sets each over Z2xZ8,
    Z2xZ2xZ4 and Z4xZ4."""
    yield "Z1:"
    yield from _smodule_descriptors()
    rng = random.Random(22)
    for moduli in [(2, 8), (2, 2, 4), (4, 4)]:
        spec = GroupSpec(moduli)
        names = [f"({','.join(map(str, spec.element(g)))})" for g in range(1, spec.order)]
        for _ in range(25):
            yield f"{spec}:{','.join(name for name in names if rng.random() < 0.5)}"


def test_wl2_descriptor_output_is_the_pair_engines():
    """A descriptor's classes and rounds are those of the pair engine read
    off its identity row, in every format, byte for byte."""
    parser = build_parser()
    count = 0
    for graph in _wl2_descriptors():
        g = parse_cayley_graph(graph)
        trace = wl2_stabilize(g)
        classes = induced_smodule(trace.final, g.spec).classes
        shown = "|".join(",".join(map(str, c)) for c in classes)
        expected = {
            "text": f"rounds: {trace.rounds}, classes: {shown}\n",
            "csv": f"rounds,classes\n{trace.rounds},{shown}\n",
            "json": json.dumps({"classes": [list(c) for c in classes], "rounds": trace.rounds}) + "\n",
        }
        for fmt, text in expected.items():
            args = parser.parse_args(["wl2", graph, "--format", fmt])
            assert args.func(args) == text, (graph, fmt)
        count += 1
    assert count == 1 + 1022 + 128 + 256 + 3 * 25


def test_wl2_descriptor_never_reaches_the_pair_engine(tmp_path, capsys, monkeypatch):
    def refused(g):
        raise ValueError("pair engine reached")

    monkeypatch.setattr(cayleywl.cli, "wl2_stabilize", refused)
    assert run(capsys, "wl2", "Z9:1,3,6,8") == (0, "rounds: 1, classes: 0|1,8|2,7|3,6|4,5\n", "")
    path = tmp_path / "path.txt"
    path.write_text("3\n0 1\n1 2\n")
    assert run(capsys, "wl2", str(path)) == (1, "", "cayleywl: pair engine reached\n")


@pytest.mark.parametrize("graph", ["Z256:1,255", "Z257:1,256"])
def test_wl2_descriptor_answers_above_the_pair_engine_limit(capsys, graph):
    """Descriptors answer up to the addition-table limit, with the stable
    partition and the round count that smodule reports."""
    code, out, err = run(capsys, "wl2", graph, "--format", "json")
    assert (code, err) == (0, "")
    smodule = json.loads(run(capsys, "smodule", graph, "--format", "json")[1])
    assert json.loads(out) == {"classes": smodule["stable"], "rounds": smodule["rounds"]}
    n = int(graph[1:4])
    assert smodule["stable"] == [[0]] + [sorted({d, n - d}) for d in range(1, n // 2 + 1)]


@pytest.mark.parametrize(
    "graph, order", [("Z4097:1", 4097), ("Z65xZ64:(0,1)", 4160), ("Z1000000000:1", 10**9)]
)
def test_smodule_rejects_groups_above_the_table_limit(capsys, monkeypatch, graph, order):
    """One refinement round gathers order^2 pairs, so no sum row may be
    built, nor the structural partition, one entry per element.  wl2 on a
    descriptor takes the same path and the same check."""
    def no_rows(spec, a):
        raise AssertionError("sum row built above the table limit")

    def no_partition(spec, con):
        raise AssertionError("structural partition built above the table limit")

    monkeypatch.setattr(GroupSpec, "sum_row", no_rows)
    monkeypatch.setattr(cayleywl.cli, "initial_cayley_smodule", no_partition)
    message = f"cayleywl: addition table limited to groups of order at most 4096, got {order}\n"
    for command in ("smodule", "wl2"):
        assert run(capsys, command, graph) == (1, "", message)


def test_spectrum_csv(capsys):
    code, out, _ = run(capsys, "spectrum", "Z7:1,6")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,real,imag,class"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 7
    assert len({row[3] for row in rows}) == 4
    assert rows[0][1] == "2"


def test_spectrum_rejects_orders_above_its_size_limit(capsys, monkeypatch):
    """Z2053, the least prime above the limit, and Z1000000007 exit 1 before
    the stabilizer is computed; Z2039, the greatest prime below it, gets past
    the guard (stopped here at the stabilizer).  A composite order keeps its
    prime-order message."""
    computed = []

    def stopped(p, con):
        computed.append(p)
        raise ValueError("stopped at the stabilizer")

    monkeypatch.setattr(cayleywl.cli, "stabilizer_subgroup", stopped)
    assert SPECTRUM_LIMIT == 2048
    for p in (2053, 1_000_000_007):
        assert run(capsys, "spectrum", f"Z{p}:1") == (
            1, "", f"cayleywl: spectrum limited to groups of order at most 2048, got {p}\n"
        )
    assert computed == []
    assert run(capsys, "spectrum", "Z4096:1") == (
        1, "", "cayleywl: spectrum needs prime order, got 4096 at position 0\n"
    )
    code, _, err = run(capsys, "spectrum", "Z2039:1")
    assert (code, computed) == (1, [2039])
    assert "stopped at the stabilizer" in err


def test_spectrum_and_canon_reject_a_huge_prime_order_at_once(capsys):
    """10^18 + 3 is prime: both commands pass their prime check and exit 1
    at their size limits, with their messages, where trial division would
    have run for minutes first."""
    p = 10**18 + 3
    started = time.perf_counter()
    assert run(capsys, "spectrum", f"Z{p}:1") == (
        1, "", f"cayleywl: spectrum limited to groups of order at most 2048, got {p}\n"
    )
    assert run(capsys, "canon", f"Z{p}:1") == (
        1, "", f"cayleywl: canon limited to groups of order at most 2048, got {p}\n"
    )
    assert time.perf_counter() - started < 1.0


def test_spectrum_and_canon_refuse_a_prime_above_the_prime_check_bound(capsys):
    """The least prime above the Miller-Rabin bound: both commands exit 1 at
    once with the prime check's refusal."""
    p = 3317044064679887385962123
    message = (
        f"cayleywl: prime check limited to numbers below 3317044064679887385961981, got {p}\n"
    )
    for command in ("spectrum", "canon"):
        started = time.perf_counter()
        assert run(capsys, command, f"Z{p}:1") == (1, "", message)
        assert time.perf_counter() - started < 1.0


def test_canon_codes_agree(capsys):
    code, out1, _ = run(capsys, "canon", "Z7:1,2,4")
    assert code == 0
    code, out2, _ = run(capsys, "canon", "Z7:3,5,6")
    assert code == 0
    a, b = json.loads(out1), json.loads(out2)
    assert a["code"] == b["code"]
    assert sorted(a["order"]) == list(range(7))


def test_tinhofer_check_true(capsys):
    code, out, _ = run(capsys, "tinhofer-check", "Z7:1,6")
    assert code == 0
    payload = json.loads(out)
    assert payload["property"] is True
    assert payload["certificate"] is None


def test_tinhofer_check_false(capsys):
    code, out, _ = run(capsys, "tinhofer-check", "Z4xZ4:(1,0),(3,0),(0,1),(0,3),(1,1),(3,3)")
    assert code == 0
    payload = json.loads(out)
    assert payload["property"] is False
    assert payload["certificate"][0] == [0, 0]


def test_tinhofer_check_long_directed_cycle(capsys):
    """The directed 1 200-cycle: the orbit query places 1 199 vertices one
    after another, more levels than the default recursion limit allows
    frames, and the search answers in 2 nodes."""
    payload = '{"certificate": null, "nodes": 2, "property": true, "status": "true"}\n'
    assert run(capsys, "tinhofer-check", "Z1200:1") == (0, payload, "")


def test_tinhofer_check_rejects_graphs_above_its_size_limit(capsys, monkeypatch):
    """Z2049:1 exits 1 before its digraph is built; Z2048:1 gets past the
    guard (stopped here at building the digraph)."""
    built = []

    def stopped(spec, con):
        built.append(spec.order)
        raise ValueError("stopped at build_cayley")

    monkeypatch.setattr(cayleywl.wl, "build_cayley", stopped)
    assert TINHOFER_LIMIT == 2048
    assert run(capsys, "tinhofer-check", "Z2049:1") == (
        1, "", "cayleywl: tinhofer-check limited to at most 2048 vertices, got 2049\n"
    )
    assert built == []
    code, _, err = run(capsys, "tinhofer-check", "Z2048:1")
    assert (code, built) == (1, [2048])
    assert "stopped at build_cayley" in err


def test_malformed_graph_usage_error(capsys):
    code, _, err = run(capsys, "wl2", "Z9:1,99")
    assert code == 1
    assert "position 5" in err


def test_individualize_vertex_out_of_range(capsys):
    code, _, err = run(capsys, "cr", "Z7:1,6", "--individualize", "9")
    assert code == 1
    assert "out of range" in err
    code, _, err = run(capsys, "cr", "Z7:1,6", "--individualize", "x")
    assert code == 1


@pytest.mark.parametrize("token", ["(0,9)", "(0,x)"])
def test_individualize_residue_tuple_checked(capsys, token):
    code, out, err = run(capsys, "cr", "Z4xZ4:(1,0)", "--individualize", token)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and "at position" in err


@pytest.mark.parametrize(
    "token, message",
    [
        ("(0,1),(1,0)", "expected one residue tuple at position 6"),
        ("(0,1", "unclosed residue tuple at position 0"),
    ],
)
def test_individualize_takes_one_residue_tuple(capsys, token, message):
    code, out, err = run(capsys, "cr", "Z4xZ4:(1,0)", "--individualize", token)
    assert code == 1 and out == ""
    assert err == f"cayleywl: {message}\n"


@pytest.mark.parametrize("command", [["tinhofer-check", "Z7:1,6"], ["counterexample"]])
def test_max_nodes_below_one(capsys, command):
    code, out, err = run(capsys, *command, "--max-nodes", "0")
    assert code == 1 and out == ""
    assert err == "cayleywl: --max-nodes must be >= 1, got 0\n"


def test_unknown_subcommand_exits_one():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_sweep_csv_deterministic(capsys):
    args = ("sweep", "--n-min", "2", "--n-max", "6")
    code, out1, _ = run(capsys, *args)
    assert code == 0
    code, out2, _ = run(capsys, *args)
    assert out1 == out2
    lines = out1.strip().splitlines()
    assert lines[0] == "n,set,rounds,rounds_wl2,bound,d"
    assert len(lines) - 1 == sum(1 << (n - 1) for n in range(2, 7))


def test_sweep_jobs_do_not_change_output(capsys):
    base = ("sweep", "--n-min", "5", "--n-max", "7", "--cross-check")
    _, out1, _ = run(capsys, *base)
    _, out2, _ = run(capsys, *base, "--jobs", "2")
    assert out1 == out2


def sweep_csv(records) -> str:
    lines = ["n,set,rounds,rounds_wl2,bound,d"]
    for r in records:
        wl2 = "" if r.rounds_wl2 is None else r.rounds_wl2
        lines.append(",".join(map(str, (r.n, r.set_mask, r.rounds, wl2, r.bound, r.d))))
    return "".join(line + "\n" for line in lines)


def sweep_json(records) -> str:
    rows = [
        {"n": r.n, "set": r.set_mask, "rounds": r.rounds, "rounds_wl2": r.rounds_wl2,
         "bound": r.bound, "d": r.d}
        for r in records
    ]
    return json.dumps(rows, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "argv, cfg",
    [
        (["--n-min", "2", "--n-max", "11"], SweepConfig(tuple(range(2, 12)))),
        (
            ["--n-min", "11", "--n-max", "16", "--sample", "50", "--seed", "7", "--cross-check"],
            SweepConfig(tuple(range(11, 17)), sample_count=50, seed=7, cross_check=True),
        ),
        (
            ["--n-min", "2", "--n-max", "9", "--cross-check", "--jobs", "2"],
            SweepConfig(tuple(range(2, 10)), cross_check=True, jobs=2),
        ),
    ],
    ids=["exhaustive", "sampled-cross-check", "jobs-2"],
)
def test_sweep_output_formats_run_sweep_records(capsys, argv, cfg):
    records = run_sweep(cfg)
    assert run(capsys, "sweep", *argv) == (0, sweep_csv(records), "")
    assert run(capsys, "sweep", *argv, "--format", "json") == (0, sweep_json(records), "")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_builds_no_records(capsys, monkeypatch, fmt):
    """The CLI formats the sweep's rows; records are built for run_sweep
    callers only."""

    def no_record(*args):
        raise AssertionError("SweepRecord built")

    monkeypatch.setattr(cayleywl.sweep, "SweepRecord", no_record)
    for argv in (
        ["--n-min", "2", "--n-max", "11"],
        ["--n-min", "11", "--n-max", "13", "--sample", "20", "--seed", "7", "--cross-check"],
    ):
        code, out, err = run(capsys, "sweep", *argv, "--format", fmt)
        assert code == 0 and out and err == ""


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_bound_violation_exits_two(capsys, monkeypatch, jobs):
    monkeypatch.setattr(cayleywl.sweep, "round_bound", lambda n: 1 if n >= 8 else round_bound(n))
    assert run(capsys, "sweep", "--n-min", "2", "--n-max", "10", "--jobs", jobs) == (
        2, "", "cayleywl: round bound violated: n=8 set=0x2 rounds=2 > bound=1\n"
    )


def test_sweep_engine_disagreement_exits_two(capsys, monkeypatch):
    """The pair engine is made to disagree on 0x102 = {1, 8} of Z9 alone,
    whose module result is fanned out from its orbit's representative."""
    pair_engine = cayleywl.sweep._wl2_modules

    def skewed(spec, masks):
        return [
            (rounds + (spec.order == 9 and mask == 0x102), classes)
            for mask, (rounds, classes) in zip(masks, pair_engine(spec, masks))
        ]

    monkeypatch.setattr(cayleywl.sweep, "_wl2_modules", skewed)
    assert run(capsys, "sweep", "--n-min", "2", "--n-max", "10", "--cross-check") == (
        2, "", "cayleywl: engine disagreement at n=9 set=0x102: rounds 3 (pair) vs 2 (module)\n"
    )


def test_sweep_jobs_limit(capsys, monkeypatch):
    """Job counts outside 1..JOBS_LIMIT exit 1 before any pool exists;
    JOBS_LIMIT itself gets past the check (stopped here at the pool)."""
    pools = []

    def stopped(processes):
        pools.append(processes)
        raise OSError("stopped at Pool")

    monkeypatch.setattr(cayleywl.sweep.multiprocessing, "Pool", stopped)
    base = ("sweep", "--n-min", "2", "--n-max", "3", "--jobs")
    assert JOBS_LIMIT == 512
    for jobs in (JOBS_LIMIT + 1, 100_000, 0):
        assert run(capsys, *base, str(jobs)) == (
            1, "", f"cayleywl: jobs must be in 1..512, got {jobs}\n"
        )
    assert pools == []
    assert run(capsys, *base, str(JOBS_LIMIT)) == (1, "", "cayleywl: stopped at Pool\n")
    assert pools == [JOBS_LIMIT]


def test_sweep_sampled_requires_seed(capsys):
    code, _, err = run(capsys, "sweep", "--n-min", "11", "--n-max", "11", "--sample", "5")
    assert code == 1
    assert "seed" in err


def test_sweep_sampled_reproducible(capsys):
    args = (
        "sweep", "--n-min", "11", "--n-max", "12",
        "--sample", "20", "--seed", "7", "--format", "json",
    )
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    rows = json.loads(out1)
    assert len(rows) == 40
    assert all(row["rounds"] <= row["bound"] for row in rows)


def test_sweep_out_file(tmp_path, capsys):
    target = tmp_path / "records.csv"
    code, out, _ = run(capsys, "sweep", "--n-min", "3", "--n-max", "3", "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text().startswith("n,set,rounds")


def test_adjacency_file_input(tmp_path, capsys):
    path = tmp_path / "graph.txt"
    path.write_text("4\n0 1\n1 0\n1 2\n2 1\n2 3\n3 2\n")
    code, out, _ = run(capsys, "cr", str(path), "--individualize", "0")
    assert code == 0
    assert out.startswith("rounds:")
    code, out, _ = run(capsys, "wl2", str(path))
    assert code == 0
    assert "pair-classes" in out


def test_wl2_rejects_graphs_above_its_size_limit(tmp_path, capsys, monkeypatch):
    """A 257-vertex input exits 1 before any pair is colored; a 256-vertex
    one gets past the guard (stopped here at its first pair coloring)."""
    colored = []

    def stopped(g):
        colored.append(g.n)
        raise ValueError("stopped at the initial pair coloring")

    monkeypatch.setattr(cayleywl.wl, "initial_pair_coloring", stopped)
    assert WL2_LIMIT == 256
    path = tmp_path / "edgeless.txt"
    path.write_text("257\n")
    assert run(capsys, "wl2", str(path)) == (
        1, "", "cayleywl: wl2 limited to graphs of at most 256 vertices, got 257\n"
    )
    assert colored == []
    path.write_text("256\n")
    code, _, err = run(capsys, "wl2", str(path))
    assert (code, colored) == (1, [256])
    assert "stopped at the initial pair coloring" in err


HEADER_LIMITS = {
    "wl2": (WL2_LIMIT, "wl2 limited to graphs of at most 256 vertices"),
    "tinhofer-check": (TINHOFER_LIMIT, "tinhofer-check limited to at most 2048 vertices"),
    "cr": (CR_LIMIT, "cr limited to graphs of at most 2097152 vertices and arcs"),
}


@pytest.mark.parametrize("command", list(HEADER_LIMITS))
def test_file_header_over_the_limit_exits_before_any_list(tmp_path, capsys, monkeypatch, command):
    """A header over the command's limit exits 1 with the library's message
    before DiGraph.from_edges builds a list per vertex (stubbed here to
    raise); a header at the limit gets as far as from_edges."""
    limit, message = HEADER_LIMITS[command]
    built = []

    def stopped(cls, n, edges):
        built.append(n)
        raise ValueError("stopped at from_edges")

    monkeypatch.setattr(cayleywl.wl.DiGraph, "from_edges", classmethod(stopped))
    path = tmp_path / "header.txt"
    for n in (limit + 1, 100_000_000):
        path.write_text(f"{n}")
        assert run(capsys, command, str(path)) == (1, "", f"cayleywl: {message}, got {n}\n")
    assert built == []
    path.write_text(f"{limit}\n")
    code, _, err = run(capsys, command, str(path))
    assert (code, built) == (1, [limit])
    assert "stopped at from_edges" in err


@pytest.fixture(scope="module")
def over_limit_file(tmp_path_factory):
    """A header of 3 000 000 vertices, over every header limit, and 8.6 MB
    of edge lines on vertices of that size."""
    path = tmp_path_factory.mktemp("over") / "over.adj"
    with path.open("w") as f:
        f.write("3000000\n")
        f.writelines(f"{h} {h + 1}\n" for h in range(2_000_000, 2_540_000))
    assert path.stat().st_size > 8 << 20
    return path


@pytest.mark.parametrize("command", list(HEADER_LIMITS))
def test_over_limit_header_costs_only_its_first_chunk(over_limit_file, capsys, command):
    """The header is checked once the first 64 KiB chunk is read, so the
    limit message costs under 1 MB traced, not the file's size."""
    message = HEADER_LIMITS[command][1]
    gc.collect()
    tracemalloc.start()
    try:
        result = run(capsys, command, str(over_limit_file))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == (1, "", f"cayleywl: {message}, got 3000000\n")
    assert peak < 1 << 20, peak


def test_cr_rejects_descriptors_above_its_size_limit(capsys, monkeypatch):
    """A descriptor's size is n * max(1, |con|): above CR_LIMIT it exits 1
    before the start coloring; at the limit, with one connection element,
    none or two, it gets past the guard (stopped here at the coloring)."""
    colored = []

    def stopped(n):
        colored.append(n)
        raise ValueError("stopped at the start coloring")

    monkeypatch.setattr(cayleywl.cli, "uniform_coloring", stopped)
    assert CR_LIMIT == 2_097_152
    half = CR_LIMIT // 2
    over = {
        f"Z{CR_LIMIT + 1}:1": CR_LIMIT + 1,
        f"Z{CR_LIMIT + 1}:": CR_LIMIT + 1,
        f"Z{half + 1}:1,2": CR_LIMIT + 2,
        "Z100000000:1": 100_000_000,
    }
    message = "cayleywl: cr limited to graphs of at most 2097152 vertices and arcs, got {}\n"
    for graph, size in over.items():
        assert run(capsys, "cr", graph) == (1, "", message.format(size))
    assert colored == []
    for graph in (f"Z{CR_LIMIT}:1", f"Z{CR_LIMIT}:", f"Z{half}:1,2", "Z1024xZ2048:(0,1)"):
        assert run(capsys, "cr", graph) == (1, "", "cayleywl: stopped at the start coloring\n")
    assert colored == [CR_LIMIT, CR_LIMIT, half, CR_LIMIT]


DESCRIPTOR_ONLY = {
    "smodule": "smodule needs a Cayley graph input",
    "spectrum": "spectrum needs a cyclic Cayley graph input",
    "canon": "canon needs a Cayley graph input",
}


@pytest.mark.parametrize("command", list(DESCRIPTOR_ONLY))
def test_descriptor_commands_read_no_file(tmp_path, capsys, monkeypatch, command):
    """smodule, spectrum and canon take descriptors only: a path to a good
    adjacency file, to a malformed one or to none exits 1 with the
    command's message and never reaches parse_adjacency (stubbed here to
    raise)."""

    def refused(stream, check_order=None):
        raise AssertionError("adjacency file parsed")

    monkeypatch.setattr(cayleywl.cli, "parse_adjacency", refused)
    good, bad = tmp_path / "good.adj", tmp_path / "bad.adj"
    good.write_text("7\n0 1\n")
    bad.write_text("x\n")
    message = f"cayleywl: {DESCRIPTOR_ONLY[command]} at position 0\n"
    for path in (good, bad, tmp_path / "missing.adj"):
        assert run(capsys, command, str(path)) == (1, "", message)


@pytest.mark.parametrize("command", ["cr", "wl2", "tinhofer-check"])
def test_undecodable_byte_is_reported_at_its_line(tmp_path, capsys, command):
    """An undecodable byte on line 3, in the first chunk, and on line
    40 003, past it, exits 1 with one message naming its line, which shows
    the byte escaped."""
    path = tmp_path / "undecodable.adj"
    for filler, line in ((1, 3), (40_001, 40_003)):
        path.write_bytes(b"7\n" + b"0 1\n" * filler + b"2 \xff3\n1 2\n")
        assert run(capsys, command, str(path)) == (
            1, "", f"cayleywl: expected integer, got '\\udcff3' at position {line}\n"
        )


def test_canon_rejects_orders_above_its_size_limit(capsys, monkeypatch):
    """Z2053, the least prime above the limit, exits 1 before any sum row
    is built; Z2039, the greatest prime below it, gets past the guard
    (stopped here at its first sum row)."""
    built = []

    def stopped(spec, a):
        built.append(spec.order)
        raise ValueError("stopped at sum_row")

    monkeypatch.setattr(GroupSpec, "sum_row", stopped)
    assert CANON_LIMIT == 2048
    assert run(capsys, "canon", "Z2053:1,2052") == (
        1, "", "cayleywl: canon limited to groups of order at most 2048, got 2053\n"
    )
    assert built == []
    code, _, err = run(capsys, "canon", "Z2039:1,2038")
    assert (code, built) == (1, [2039])
    assert "stopped at sum_row" in err


def test_counterexample_exits_two_with_diff(capsys):
    # The reference round lists cannot arise from in-neighbor color
    # refinement on this graph (the three-class partition after round 1 is
    # equitable, so refinement stops there); the reproduction must abort
    # with a diff.  See the README note on the counterexample command.
    code, _, err = run(capsys, "counterexample")
    assert code == 2
    assert "counterexample mismatch" in err
    assert "expected" in err and "computed" in err


def test_counterexample_reports_each_round_once_per_side(capsys):
    """The diff is the whole report: every computed and expected round
    appears once, with no second listing of the computed rounds."""
    assert run(capsys, "counterexample") == (2, "", (
        "cayleywl: counterexample mismatch\n"
        "counterexample round class-lists diverge from the reference\n"
        "  round 0: computed 0|1,2,3,4,5,6,7,8,9,10,11,12,13,14,15\n"
        "  round 0: expected 0|1,2,3,4,5,6,7,8,9,10,11,12,13,14,15\n"
        "  round 1: computed 0|1,3,4,5,12,15|2,6,7,8,9,10,11,13,14\n"
        "  round 1: expected 0|1,3,4,5,12,15|2,6,7,8,9,10,11,13,14\n"
        "! round 2: computed <absent>\n"
        "! round 2: expected 0|1,3,4,5,12,15|2,7,8,10,13|6,9,11,14\n"
        "! round 3: computed <absent>\n"
        "! round 3: expected 0|1,3,4,12|2,7,8,13|5,15|6,9,11,14|10\n"
    ))


def test_zero_vertex_adjacency_file(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("0\n")
    assert run(capsys, "cr", str(path)) == (0, "rounds: 0, classes: \n", "")
    assert run(capsys, "wl2", str(path)) == (0, "rounds: 0, pair-classes: 0\n", "")
    code, out, _ = run(capsys, "tinhofer-check", str(path))
    assert code == 0
    assert json.loads(out)["property"] is True


# adjacency text -> expected position: the 1-based line of a bad edge line,
# blank lines included, or 0 for the header
ADJACENCY_ERRORS = {
    "3\n0 x\n": 2,
    "3\n0 1\n1 2.5\n": 3,
    "-2\n": 0,
    "3\n0 5\n": 2,
    "3\n1 1\n": 2,
    "3\n\n\n0 x\n": 4,
}


@pytest.mark.parametrize("text", ADJACENCY_ERRORS)
def test_adjacency_errors_carry_positions(tmp_path, capsys, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    code, out, err = run(capsys, "cr", str(path))
    assert code == 1 and out == ""
    assert err.endswith(f" at position {ADJACENCY_ERRORS[text]}\n")
    assert len(err.splitlines()) == 1


OUT_COMMANDS = [
    ["wl2", "Z9:1,3,6,8"],
    ["cr", "Z7:1,6", "--individualize", "0", "--format", "json"],
    ["smodule", "Z9:1,3,6,8", "--format", "csv"],
    ["spectrum", "Z7:1,6"],
    ["tinhofer-check", "Z7:1,6"],
    ["canon", "Z7:1,2,4"],
    ["sweep", "--n-min", "3", "--n-max", "5", "--format", "json"],
    ["counterexample"],
]


@pytest.mark.parametrize("argv", OUT_COMMANDS, ids=lambda argv: argv[0])
def test_out_writes_the_stdout_bytes(tmp_path, capsys, argv):
    code, out, err = run(capsys, *argv)
    target = tmp_path / "out.txt"
    assert run(capsys, *argv, "--out", str(target)) == (code, "", err)
    if code == 0:
        assert out and target.read_bytes() == out.encode()
    else:  # counterexample exits 2 before writing anything
        assert not target.exists()


def test_out_into_missing_directory(tmp_path, capsys):
    target = tmp_path / "missing" / "out.txt"
    code, out, err = run(capsys, "cr", "Z7:1,6", "--out", str(target))
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and "missing" in err


def test_sampled_sweep_order_limit(capsys):
    # a sampled mask is n - 1 bits of one 64-bit generator state
    sampled = ("sweep", "--sample", "1", "--seed", "1")
    assert run(capsys, *sampled, "--n-min", "65", "--n-max", "65")[0] == 0
    code, out, err = run(capsys, *sampled, "--n-min", "66", "--n-max", "66")
    assert (code, out, err) == (1, "", "cayleywl: sampled mode limited to n <= 65\n")


def test_sweep_empty_order_range(capsys):
    code, out, err = run(capsys, "sweep", "--n-min", "5", "--n-max", "3")
    assert code == 1 and out == ""
    assert "empty" in err
