"""Fast self-check of the benchmark: ``python3 bench/selfcheck.py``.

Runs a tiny-size pass of every workload, timed and traced, and asserts that
each run reports no failure and emits exactly the metrics of BENCHMARK.json
with their units.  Then runs every workload once more against a deliberately
corrupted expected output and asserts that the failure is counted.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import subprocess
import sys
from pathlib import Path

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def result_of(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def check_metrics(result: dict, wanted: list[dict], label: str) -> None:
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    expected = {m["name"]: m["unit"] for m in wanted}
    assert emitted == expected, f"{label}: metrics {emitted} differ from {expected}"


def corrupt(workload: str, expected: dict) -> dict:
    bad = copy.deepcopy(expected)
    if workload == "sweep":
        bad["csv_sha256"] = "0" * 64
    elif workload == "xcheck":
        bad["exit_code"] = 1
    else:
        digests = bad["ladder_sha256" if workload == "cr-large" else "search_sha256"]
        digests[next(iter(digests))] = "0" * 64
    return bad


def main() -> int:
    run.import_package()
    names = [w["name"] for w in SPEC["workloads"]]
    for workload in names:
        for trace, wanted in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            label = f"{workload} --trace {trace}"
            proc = subprocess.run(
                [sys.executable, str(Path(run.__file__)), "--workload", workload, "--seed", "7",
                 "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
                capture_output=True, text=True, timeout=170,
            )
            assert proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}"
            result = result_of(proc.stdout)
            assert result["correct"] and result["failed"] == 0, f"{label}: {result}"
            check_metrics(result, wanted, label)
            print(f"ok   {label}: {len(result['metrics'])} metrics, {result['attempted']} outputs")
    expected = json.loads(run.EXPECTED.read_text())["tiny"]
    for workload in names:
        args = run.parse_args(
            ["--workload", workload, "--seed", "7", "--seconds", "0", "--size", "tiny"]
        )
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            run.run(args, corrupt(workload, expected[workload]))
        result = result_of(out.getvalue())
        assert not result["correct"] and result["failed"] > 0, f"{workload} corrupted: {result}"
        print(f"ok   {workload} with a corrupted expected output: "
              f"{result['failed']} of {result['attempted']} outputs failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
