"""Seeded inputs, timed passes and output checks of the four workloads.

A workload is built once per run from ``--seed``; ``run_pass`` then runs the
whole input set once, timing each call through ``speed.Speed.call``, and
checks every output.  The timed region of a call is the call into cayleywl
only: checks, digests and input generation happen outside it.

Output checks use an independent oracle where one exists and compare byte
digests against ``expected.json`` for every output that does not depend on
the seed.  Seeded outputs must also be byte-identical from pass to pass.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import cayleywl.cli as cli
from cayleywl import groups, tinhofer, wl

# Groups of order 12..16 whose Cayley graphs feed the Tinhofer searches.
IR_GROUPS = ((12,), (2, 6), (13,), (14,), (15,), (16,), (2, 8), (4, 4), (2, 2, 4), (2, 2, 2, 2))

SIZES = {
    "full": {
        "sweep": {"n_max": 14},
        "xcheck": {"n_min": 11, "n_max": 16, "sample": 50},
        "cr-large": {"primes": (10007, 20011, 40009)},
        "ir": {"groups": IR_GROUPS, "templates_per_group": 3, "canon_sets": 1000},
    },
    "tiny": {
        "sweep": {"n_max": 6},
        "xcheck": {"n_min": 5, "n_max": 7, "sample": 3},
        "cr-large": {"primes": (101, 211)},
        "ir": {"groups": ((6,), (2, 4)), "templates_per_group": 1, "canon_sets": 30},
    },
}

# Template searches above this many nodes are not used: such graphs exist
# among order-16 groups and take 1-40 s each, longer than a run.
TEMPLATE_NODE_CAP = 3000


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_cli(argv: list[str]) -> tuple[object, str]:
    """One in-process CLI call: (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


@dataclass
class Pass:
    """One run over the workload's whole input set; ``latencies`` are the
    rescaled call times and ``raw`` the measured ones (see ``speed.py``)."""

    instances: int = 0
    latencies: list[float] = field(default_factory=list)
    raw: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(self.latencies)


class Workload:
    name = ""
    # Python source run after ``import cayleywl.cli as cli``: the minimal call
    # of the workload's entry point that set-up time includes.
    warmup = ""

    def __init__(self, seed: int, size: str, workdir: Path, expected: dict, speed) -> None:
        self.params = SIZES[size][self.name]
        self.speed = speed
        self.expected = expected
        self.rng = random.Random(f"{self.name}-{seed}")
        self.workdir = workdir
        self._first: dict[object, str] = {}

    def repeats(self, key: object, text: str) -> bool:
        """True when this output matches the same call's first-pass output."""
        d = digest(text)
        return self._first.setdefault(key, d) == d

    def run_pass(self) -> Pass:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def divisors(n: int) -> int:
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def round_bound(n: int) -> int:
    return (2 + divisors(n)) * math.ceil(math.log2(n))


def mcg_masks(n: int, count: int, seed: int) -> list[int]:
    """Sampled connection masks, written from the generator spec in README."""
    m64 = (1 << 64) - 1
    if count >= 1 << (n - 1):
        return [m << 1 for m in range(1 << (n - 1))]
    state = ((seed ^ (n * 0x9E3779B97F4A7C15)) | 1) & m64
    drawn: list[int] = []
    while len(drawn) < count:
        state = (state * 0xD1342543DE82EF95) & m64
        mask = (state >> (64 - (n - 1))) << 1
        if mask not in drawn:
            drawn.append(mask)
    return drawn


def check_sweep_rows(text: str, masks: dict[int, list[int]], cross_check: bool) -> str | None:
    """None when the CSV holds exactly the expected (n, set) rows in order,
    with correct bound and d and rounds within the bound."""
    lines = text.splitlines()
    if not lines or lines[0] != "n,set,rounds,rounds_wl2,bound,d":
        return "bad CSV header"
    want = [(n, f"0x{m:x}") for n in sorted(masks) for m in sorted(masks[n])]
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != len(want):
        return f"{len(rows)} records, expected {len(want)}"
    for (n, mask), row in zip(want, rows):
        if row[:2] != [str(n), mask]:
            return f"record {row[:2]} where ({n}, {mask}) was expected"
        rounds, wl2, bound, d = row[2:]
        if int(bound) != round_bound(n) or int(d) != divisors(n):
            return f"n={n}: bound/d {bound}/{d}"
        if not 0 <= int(rounds) <= int(bound):
            return f"n={n} set={mask}: rounds {rounds} outside [0, {bound}]"
        if wl2 != (rounds if cross_check else ""):
            return f"n={n} set={mask}: rounds_wl2 {wl2!r} against rounds {rounds}"
    return None


# ---------------------------------------------------------------------------
# sweep and xcheck: one CLI call per pass
# ---------------------------------------------------------------------------

class Sweep(Workload):
    """Exhaustive sweep over n = 2..n_max; the seed has nothing to choose."""

    name = "sweep"
    warmup = "cli.main(['sweep', '--n-min', '2', '--n-max', '3'])"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        n_max = self.params["n_max"]
        self.argv = ["sweep", "--n-min", "2", "--n-max", str(n_max), "--jobs", "1"]
        self.masks = {n: [m << 1 for m in range(1 << (n - 1))] for n in range(2, n_max + 1)}

    def run_pass(self) -> Pass:
        p = Pass(sum(len(v) for v in self.masks.values()))
        code, text = self.speed.call(p, run_cli, self.argv)
        if code != self.expected["exit_code"]:
            p.failures.append(f"sweep exit code {code}")
        elif (problem := check_sweep_rows(text, self.masks, cross_check=False)) is not None:
            p.failures.append(f"sweep: {problem}")
        elif digest(text) != self.expected["csv_sha256"]:
            p.failures.append("sweep CSV digest differs from the captured one")
        return p


class CrossCheck(Workload):
    """Sampled sweep with 2-WL cross-check; the seed picks the sample seed."""

    name = "xcheck"
    warmup = (
        "cli.main(['sweep', '--n-min', '4', '--n-max', '5', '--sample', '2', "
        "'--seed', '1', '--cross-check'])"
    )

    def __init__(self, *args) -> None:
        super().__init__(*args)
        lo, hi, k = self.params["n_min"], self.params["n_max"], self.params["sample"]
        sample_seed = self.rng.randrange(1 << 32)
        self.argv = [
            "sweep", "--n-min", str(lo), "--n-max", str(hi), "--sample", str(k),
            "--seed", str(sample_seed), "--cross-check", "--jobs", "1",
        ]
        self.masks = {n: mcg_masks(n, k, sample_seed) for n in range(lo, hi + 1)}

    def run_pass(self) -> Pass:
        p = Pass(sum(len(v) for v in self.masks.values()))
        code, text = self.speed.call(p, run_cli, self.argv)
        if code != self.expected["exit_code"]:
            p.failures.append(f"xcheck exit code {code}")
        elif (problem := check_sweep_rows(text, self.masks, cross_check=True)) is not None:
            p.failures.append(f"xcheck: {problem}")
        elif not self.repeats("csv", text):
            p.failures.append("xcheck output changed between passes")
        return p


# ---------------------------------------------------------------------------
# cr-large: large prime circulants as descriptors and as adjacency files
# ---------------------------------------------------------------------------

def ladder_set(p: int) -> tuple[int, ...]:
    """Five-step geometric ladder and its negatives (the c09 connection set)."""
    base = p ** 0.2
    ladder: list[int] = []
    for k in range(5):
        v = max(1, round(base ** (k + 1))) % p
        while v == 0 or v in ladder or (p - v) in ladder:
            v = (v + 1) % p
        ladder.append(v)
    return tuple(sorted(set(ladder) | {p - v for v in ladder}))


def cr_argv(graph: str) -> list[str]:
    return ["cr", graph, "--individualize", "0", "--format", "json"]


class CrLarge(Workload):
    """Pass k runs each prime's ladder set multiplied by a unit m_k: m_0 = 1,
    later ones seeded.

    x -> m*x is a group automorphism fixing vertex 0, so every pass takes the
    same rounds and work, and each output with every vertex multiplied by
    1/m must be the captured ladder output.  Descriptor and file outputs must
    both match it, so they are identical."""

    name = "cr-large"
    warmup = "cli.main(['cr', 'Z5:1,4', '--individualize', '0', '--format', 'json'])"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.passes = 0

    def run_pass(self) -> Pass:
        primes = self.params["primes"]
        p = Pass(2 * len(primes))
        for prime in primes:
            m = 1 if self.passes == 0 else self.rng.randrange(2, prime - 1)
            con = sorted(m * v % prime for v in ladder_set(prime))
            path = self.workdir / f"Z{prime}.txt"
            with path.open("w") as f:
                f.write(f"{prime}\n")
                f.writelines(f"{h} {(h + s) % prime}\n" for s in con for h in range(prime))
            for arg in (f"Z{prime}:" + ",".join(map(str, con)), str(path)):
                gc.collect()  # every call starts from a collected heap
                code, text = self.speed.call(p, run_cli, cr_argv(arg))
                label = f"cr Z{prime} ladder*{m} {'file' if arg == str(path) else 'descriptor'}"
                if code != self.expected["exit_code"]:
                    p.failures.append(f"{label}: exit code {code}")
                elif (problem := self.check(prime, text)) is not None:
                    p.failures.append(f"{label}: {problem}")
                elif digest(scaled(text, pow(m, -1, prime), prime)) != (
                    self.expected["ladder_sha256"][str(prime)]
                ):
                    p.failures.append(f"{label}: not the captured ladder output multiplied by {m}")
        self.passes += 1
        return p

    @staticmethod
    def check(prime: int, text: str) -> str | None:
        try:
            out = json.loads(text)
        except json.JSONDecodeError:
            return "output is not JSON"
        classes = out["classes"]
        if sorted(v for c in classes for v in c) != list(range(prime)):
            return "classes do not partition the vertices"
        if [0] not in classes:
            return "individualized vertex 0 is not a singleton class"
        if not isinstance(out["rounds"], int) or out["rounds"] < 1:
            return f"rounds {out['rounds']!r}"
        return None


def scaled(text: str, m: int, p: int) -> str:
    """The cr JSON output with every vertex multiplied by m mod p."""
    out = json.loads(text)
    classes = sorted(sorted(m * v % p for v in c) for c in out["classes"])
    return json.dumps({"classes": classes, "rounds": out["rounds"]}, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# ir: Tinhofer searches and prime-circulant canonical labelling
# ---------------------------------------------------------------------------

NAMED_GRAPHS = {
    # Z4xZ4 counterexample: (1,0),(3,0),(0,1),(0,3),(1,1),(3,3)
    "counterexample": ((4, 4), (4, 12, 1, 3, 5, 15)),
    "hypercube-Z2^4": ((2, 2, 2, 2), (8, 4, 2, 1)),
    "Z3^3": ((3, 3, 3), (9, 18, 3, 6, 1, 2)),
}


def tinhofer_payload(report) -> str:
    cert = [list(pair) for pair in report.certificate] if report.certificate else None
    return json.dumps(
        {"status": report.status, "certificate": cert, "nodes": report.nodes}, sort_keys=True
    )


def orbit_key(con: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Least image of con under the unit multipliers of Z_p."""
    return min((tuple(sorted(m * c % p for c in con)) for m in range(1, p)), default=())


class IR(Workload):
    """Tinhofer searches on fixed Cayley graphs and canonical labelling of
    seeded Z13 connection sets, in a seeded order."""

    name = "ir"
    warmup = (
        "from cayleywl import groups, tinhofer, wl\n"
        "g = wl.CayleyGraph(groups.GroupSpec((5,)), (1, 4))\n"
        "tinhofer.has_tinhofer_property(g)\n"
        "tinhofer.canonical_form_prime_circulant(g.spec, g.con)"
    )

    def __init__(self, *args) -> None:
        super().__init__(*args)
        graphs = dict(NAMED_GRAPHS)
        graphs.update((template_label(t), (t["moduli"], t["con"])) for t in self.expected["templates"])
        self.searches = [
            (label, wl.CayleyGraph(groups.GroupSpec(tuple(m)), tuple(con)))
            for label, (m, con) in graphs.items()
        ]
        masks = self.rng.sample(range(1 << 12), self.params["canon_sets"])
        self.canon_sets = [tuple(j for j in range(1, 13) if mask >> (j - 1) & 1) for mask in masks]
        self.order = list(range(len(self.searches) + len(self.canon_sets)))
        self.rng.shuffle(self.order)
        self.z13 = groups.GroupSpec((13,))

    def run_pass(self) -> Pass:
        p = Pass(len(self.order))
        forms = {}
        for i in self.order:
            if i >= len(self.searches):
                con = self.canon_sets[i - len(self.searches)]
                forms[con] = self.speed.call(p, tinhofer.canonical_form_prime_circulant, self.z13, con)
                continue
            label, graph = self.searches[i]
            report = self.speed.call(p, tinhofer.has_tinhofer_property, graph)
            payload = tinhofer_payload(report)
            if label == "counterexample" and (
                report.status != "false" or report.certificate[0] != (0, 0)
            ):
                p.failures.append(f"tinhofer {label}: expected a false verdict rooted at (0, 0)")
            elif digest(payload) != self.expected["search_sha256"][label]:
                p.failures.append(f"tinhofer {label}: digest differs from the captured one")
        p.failures += self.check_canon([forms[con] for con in self.canon_sets])
        return p

    def check_canon(self, forms) -> list[str]:
        """Code classes must equal the unit-multiplier orbits (the c08 oracle),
        and each output must repeat the first pass's."""
        codes = [form.hex for form in forms]
        keys = [orbit_key(con, 13) for con in self.canon_sets]
        by_code, by_key, by_both = Counter(codes), Counter(keys), Counter(zip(codes, keys))
        failures = []
        for con, form, key in zip(self.canon_sets, forms, keys):
            if not by_code[form.hex] == by_key[key] == by_both[form.hex, key]:
                failures.append(f"canon Z13:{con}: code class differs from its multiplier orbit")
            elif not self.repeats(con, f"{form.hex} {form.order}"):
                failures.append(f"canon Z13:{con}: output changed between passes")
        return failures


WORKLOADS = {w.name: w for w in (Sweep, CrossCheck, CrLarge, IR)}


# ---------------------------------------------------------------------------
# expected outputs, captured once from the code under test
# ---------------------------------------------------------------------------

def template_label(t: dict) -> str:
    return f"Z{'xZ'.join(map(str, t['moduli']))}:{','.join(map(str, t['con']))}"


def _templates(params: dict) -> list[dict]:
    """Symmetric connection sets drawn from a fixed stream; sets whose
    Tinhofer search exceeds the node cap are skipped."""
    rng = random.Random("ir-templates")
    out = []
    for moduli in params["groups"]:
        order = math.prod(moduli)
        spec = groups.GroupSpec(moduli)
        kept: list[tuple[int, ...]] = []
        while len(kept) < params["templates_per_group"]:
            con: set[int] = set()
            for _ in range(rng.randint(1, 3)):
                g = rng.randrange(1, order)
                con |= {g, spec.neg(g)}
            key = tuple(sorted(con))
            if key in kept:
                continue
            report = tinhofer.has_tinhofer_property(wl.CayleyGraph(spec, key), TEMPLATE_NODE_CAP)
            if report.status != "budget-exceeded":
                kept.append(key)
                out.append({"moduli": list(moduli), "con": list(key)})
    return out


def capture(size: str) -> dict:
    """Expected outputs of every seed-independent call for one size."""
    params = SIZES[size]
    n_max = params["sweep"]["n_max"]
    _, sweep_csv = run_cli(["sweep", "--n-min", "2", "--n-max", str(n_max)])
    ladder = {}
    for p in params["cr-large"]["primes"]:
        _, text = run_cli(cr_argv(f"Z{p}:" + ",".join(map(str, ladder_set(p)))))
        ladder[str(p)] = digest(text)
    templates = _templates(params["ir"])
    graphs = dict(NAMED_GRAPHS)
    graphs.update((template_label(t), (t["moduli"], t["con"])) for t in templates)
    searches = {
        label: digest(tinhofer_payload(
            tinhofer.has_tinhofer_property(wl.CayleyGraph(groups.GroupSpec(tuple(m)), tuple(con)))
        ))
        for label, (m, con) in graphs.items()
    }
    return {
        "sweep": {"exit_code": 0, "csv_sha256": digest(sweep_csv)},
        "xcheck": {"exit_code": 0},
        "cr-large": {"exit_code": 0, "ladder_sha256": ladder},
        "ir": {"templates": templates, "search_sha256": searches},
    }
