"""cayleywl benchmark: one seeded workload, timed or traced.

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` for inputs and output checks):

- ``sweep``: ``cayleywl sweep`` exhaustive over n = 2..14 (16382 records).
- ``xcheck``: ``cayleywl sweep --sample 50 --cross-check`` over n = 11..16.
- ``cr-large``: ``cayleywl cr --individualize 0 --format json`` at
  p = 10007, 20011, 40009 on the c09 ladder set (first pass) or its image
  under a seeded unit multiplier (later passes), each as a Cayley descriptor
  and as an adjacency-list file (6 calls per pass).
- ``ir``: ``has_tinhofer_property`` on three named graphs and 30 Cayley
  graphs of order 12..16, and ``canonical_form_prime_circulant`` on 1000
  seeded Z13 connection sets, in a seeded order.

Every CLI call runs in this process through ``cayleywl.cli.main`` with
``--jobs 1``.  A pass runs the whole input set once, starting from a
collected heap; passes repeat until the next one would end after
``--seconds``, with at least one pass.  Call times are rescaled to a nominal
machine speed by ``speed.py``; the raw times are printed too.

With ``--trace 0`` the run prints the end-to-end metrics:

- ``instances_per_s``: median over passes of instances / time in calls; an
  instance is a sweep record, a ``cr`` call or an ``ir`` graph;
- ``call_ms_p50``, ``call_ms_p99``: latency of one call (one CLI call, or one
  ``ir`` graph); the percentile within each pass, median over passes.  With
  one call per pass (``sweep``, ``xcheck``) both are the median call time;
- ``setup_s``: median over five fresh interpreters of the wall time from
  start through ``import cayleywl.cli`` to one minimal call of the entry
  point, rescaled by bare ``import numpy`` interpreters run around each;
- ``peak_rss_mb``: high-water RSS of this process, which ran the workload.

With ``--trace 1`` untraced and traced passes alternate; the traced ones give
the per-layer metrics of ``tracing.py`` and ``trace.instances_per_s_delta``
(traced minus untraced ``instances_per_s``).  Spans are written to
``.bench_out/`` at the root of the checkout.

Every output is checked; ``fail_ratio`` = failed / attempted outputs, where
the outputs are the calls plus the set-up interpreters' exit codes.  The last
line of stdout is the JSON result.  ``--size tiny`` shrinks every input for
the self-check, and ``--capture`` rewrites ``expected.json`` from the code
under test.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
EXPECTED = BENCH / "expected.json"
OUT = ROOT / ".bench_out"
SETUP_RUNS = 5
# Wall time of ``python3 -c "import numpy"`` on an idle 2-vCPU 2.1 GHz x86-64
# VM; it only sets the scale of setup_s.
NUMPY_STARTUP_S = 0.1


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("sweep", "xcheck", "cr-large", "ir"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--capture", action="store_true", help="rewrite expected.json and exit")
    args = parser.parse_args(argv)
    if args.workload is None and not args.capture:
        parser.error("--workload is required")
    return args


def import_package() -> None:
    """Import cayleywl from this checkout's sources, and only from there."""
    if not (SRC / "cayleywl" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no cayleywl sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cayleywl

    if Path(cayleywl.__file__).resolve().parent != SRC / "cayleywl":
        raise SystemExit(f"run.py: cayleywl imported from {cayleywl.__file__}, not {SRC}")


def environment() -> dict:
    import numpy

    cpu_max = Path("/sys/fs/cgroup/cpu.max")
    return {
        "nproc": os.cpu_count(),
        "cpu_max": cpu_max.read_text().strip() if cpu_max.exists() else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
    }


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def setup_times(warmup: str) -> tuple[list[float], int]:
    """Set-up times of fresh interpreters that import the CLI and make one
    minimal call, and how many of them exited non-zero.

    Each wall time is rescaled by bare ``import numpy`` interpreters started
    just before and after it: the two share interpreter start-up and numpy's
    import, so their ratio follows the machine's speed for this kind of work
    much better than the reference kernel of ``speed.py`` does.
    """
    code = f"import sys\nsys.path.insert(0, {str(SRC)!r})\nimport cayleywl.cli as cli\n{warmup}\n"

    def launch(source: str) -> tuple[float, int]:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", source],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=120,
        )
        return time.perf_counter() - start, proc.returncode

    times, failed = [], 0
    before, _ = launch("import numpy")
    for _ in range(SETUP_RUNS):
        elapsed, status = launch(code)
        after, _ = launch("import numpy")
        times.append(elapsed * NUMPY_STARTUP_S / ((before + after) / 2))
        failed += status != 0
        before = after
    return times, failed


def run_for(seconds: float, step) -> list:
    """Call ``step`` until another call would end after ``seconds``; at least once."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(step())
        spent = time.perf_counter() - start
        if spent / len(results) * (len(results) + 1) > seconds:
            return results


def rate(passes) -> float:
    return statistics.median(p.instances / p.seconds for p in passes)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def run_pass(workload):
    gc.collect()
    p = workload.run_pass()
    workload.speed.flush()
    return p


def timed_metrics(workload, seconds: float, setup: list[float]) -> tuple[dict, list]:
    passes = run_for(seconds, lambda: run_pass(workload))
    raw = [x for p in passes for x in p.raw]
    print(
        f"raw: median call {statistics.median(raw) * 1e3:.6g} ms, "
        f"time in calls {sum(raw):.4g} s over {len(passes)} passes"
    )
    per_pass = f"median of {len(passes)} passes of {len(passes[0].latencies)} calls"
    metrics = {
        "instances_per_s": (rate(passes), "1/s", f"median of {len(passes)} passes"),
        "call_ms_p50": (
            statistics.median(statistics.median(p.latencies) for p in passes) * 1e3, "ms", per_pass
        ),
        "call_ms_p99": (
            statistics.median(percentile(p.latencies, 99) for p in passes) * 1e3, "ms", per_pass
        ),
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} interpreters"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", "this process"
        ),
    }
    return metrics, passes


def traced_metrics(workload, seconds: float, spans_path: Path) -> tuple[dict, list]:
    import tracing

    tracer = tracing.Tracer()
    plain, traced, layers = [], [], []

    def pair():
        plain.append(run_pass(workload))
        tracer.reset_counters()
        lo = tracer.mark()
        with tracer.traced():
            traced.append(run_pass(workload))
        layers.append(tracer.layer_metrics(lo, tracer.mark()))

    run_for(seconds, pair)
    tracer.save(spans_path)
    metrics = {}
    for name, unit in tracing.LAYER_UNITS.items():
        if name == "trace.instances_per_s_delta":
            value = rate(traced) - rate(plain)
            note = f"{len(traced)} traced and {len(plain)} untraced passes"
        elif unit == "count":
            value = layers[0][name]
            if any(layer[name] != value for layer in layers):
                print(f"warning: {name} differs between traced passes", file=sys.stderr)
            note = "per pass"
        else:
            value = statistics.median(layer[name] for layer in layers)
            note = f"per pass, median of {len(layers)}"
        metrics[name] = (value, unit, note)
    return metrics, plain + traced


def run(args: argparse.Namespace, expected: dict) -> int:
    """Run one workload against its expected outputs and print the result."""
    import workloads

    print(json.dumps({"env": environment()}))
    cls = workloads.WORKLOADS[args.workload]
    setup, setup_failed = setup_times(cls.warmup)
    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        with speed.Speed() as clock:
            workload = cls(args.seed, args.size, workdir, expected, clock)
            with contextlib.redirect_stdout(io.StringIO()):
                exec(f"import cayleywl.cli as cli\n{cls.warmup}", {})
            if args.trace:
                spans = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
                metrics, passes = traced_metrics(workload, args.seconds, spans)
            else:
                metrics, passes = timed_metrics(workload, args.seconds, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failures = [f for p in passes for f in p.failures]
    attempted = sum(len(p.latencies) for p in passes) + len(setup)
    failed = len(failures) + setup_failed
    for message in failures[:20]:
        print(f"FAIL {message}", file=sys.stderr)
    for name, (value, unit, note) in metrics.items():
        print(f"{name} = {value:.6g} {unit} ({note})")
    print(f"fail_ratio = {failed / attempted:.6g} ({failed} of {attempted} outputs)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    if args.capture:
        import workloads

        EXPECTED.write_text(
            json.dumps({size: workloads.capture(size) for size in workloads.SIZES}, indent=1) + "\n"
        )
        return 0
    if not EXPECTED.is_file():
        raise SystemExit(f"run.py: missing {EXPECTED}")
    return run(args, json.loads(EXPECTED.read_text())[args.size][args.workload])


if __name__ == "__main__":
    sys.exit(main())
