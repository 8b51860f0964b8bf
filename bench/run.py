"""Benchmark of the antiforce package: three workloads, one process.

Run from the repository root:

    python3 bench/run.py --workload families --seed 0 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it give the run's context and every exhausted solve. The exit
code is 1 when an output is wrong or a traced layer records no calls.
See bench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Criterion 1's per-solve allowance; every oracle call gets a fresh one.
BUDGET_NODES = 50_000_000
BUDGET_SECONDS = 10.0
SETUP_REPEATS = 3
# Latency timings that a single run cannot make steady are repeated:
# see steady_latencies.
CHEAP_S = 0.01
SPIKE_S = 0.1
RETIME_MIN_S = 0.02
RETIMINGS = 2

# Machine-speed probe. On a shared host the same solve runs up to twice
# as slow from one ten-second spell to the next, which would swamp every
# figure. So each timing that the budget's clock does not fix is divided
# by the probe's slowdown, measured right before and after it: a fixed
# pure-Python computation (bit-mask filtering, recursion, frozensets)
# that shares no code with the package. PROBE_NOMINAL_S is the probe's
# time on an unloaded 2-core Xeon; it only sets the scale.
PROBE_NOMINAL_S = 0.0005
PROBE_MASKS = [((i * 2654435761) >> 3) & 0xFFFFF for i in range(1, 400)]

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import antiforce; print(time.perf_counter() - t)"
)

# Layers that must record calls on each workload; zero calls means a
# wrapper came loose from the function the package really calls.
REQUIRED_LAYERS = {
    "families": (
        "families.build", "graph.power", "graph.from_json", "matching.pm_gate",
        "matching.pm_enum", "matching.alt_cycles", "antiforcing.via_matchings",
        "antiforcing.witness_check", "matching.count_pms",
    ),
    "random": (
        "graph.from_json", "matching.pm_gate", "matching.pm_enum",
        "matching.alt_cycles", "antiforcing.via_matchings",
        "antiforcing.witness_check", "matching.count_pms",
    ),
    "verify": (
        "families.build", "graph.power", "graph.from_json", "formulas.evaluate",
        "harness.sweep_point", "harness.emit_report", "matching.pm_gate",
        "matching.pm_enum", "matching.alt_cycles", "antiforcing.via_matchings",
        "antiforcing.subset_search", "matching.count_pms",
        "antiforcing.witness_check",
    ),
}


class GateFailure(Exception):
    """An output of the program is wrong."""


def budget():
    return antiforce.Budget(max_nodes=BUDGET_NODES, max_seconds=BUDGET_SECONDS)


def check_witness(g, res) -> None:
    if res.method != "convention_no_pm" and not antiforce.is_anti_forcing_set(g, res.witness):
        raise GateFailure(f"witness of size {res.value} is not an anti-forcing set")


def solve_unit(name: str, g, pinned: int | None):
    """Solve with the matching route, re-verify the witness, compare the pin."""

    def unit() -> None:
        try:
            res = antiforce.af_via_matchings(g, budget())
        except antiforce.BudgetExceededError:
            return
        try:
            check_witness(g, res)
        except GateFailure as exc:
            raise GateFailure(f"{name}: {exc}") from None
        if pinned is not None and res.value != pinned:
            raise GateFailure(f"{name}: af={res.value}, pinned {pinned}")

    return unit


def cross_check_unit(name: str, g, pinned: int | None):
    """Subset search, compared with the matching route's pinned value."""

    def unit() -> None:
        try:
            res = antiforce.af_subset_search(g, budget())
        except antiforce.BudgetExceededError:
            return
        if pinned is not None and res.value != pinned:
            raise GateFailure(
                f"{name}: oracle disagreement, subset={res.value} matchings={pinned}"
            )
        check_witness(g, res)

    return unit


def sweep_unit(family: str, digest: str | None):
    def unit() -> None:
        spec = antiforce.default_sweep_spec(family)
        with redirect_stderr(io.StringIO()):
            text = antiforce.harness.emit_report(antiforce.run_sweep(spec, workers=1), "csv")
        if hashlib.sha256(text.encode()).hexdigest() != digest:
            raise GateFailure(f"default {family} sweep report differs from its pin")

    return unit


def golden_unit(name: str, builder, want: str):
    def unit() -> None:
        if builder() != want:
            raise GateFailure(f"report {name} differs from tests/goldens/{name}")

    return unit


def build_units(workload: str, seed: int, expected: dict):
    """Corpus generation and loading (the timed set-up), then the units.

    Returns the graph names for reporting and a list of zero-argument
    callables; running them all is the workload.
    """
    pins = expected["families"]
    if workload == "families":
        graphs = corpus.load(corpus.criterion1())
        names = {corpus.graph_key(g): name for name, g in graphs}
        return names, [solve_unit(name, g, pins.get(name)) for name, g in graphs]
    if workload == "random":
        graphs = corpus.load(corpus.random_graphs(seed))
        names = {corpus.graph_key(g): name for name, g in graphs}
        pinned = expected["random"]
        return names, [
            solve_unit(name, g, pinned.get(corpus.graph_digest(g))) for name, g in graphs
        ]
    instances = corpus.criterion1()
    names = corpus.sweep_names()
    small = corpus.load(corpus.unswept_small(instances, names))
    for name, g in small:
        names.setdefault(corpus.graph_key(g), name)
    golden_dir = ROOT / "tests" / "goldens"
    units = [sweep_unit(f, expected["reports"].get(f)) for f in antiforce.harness.DEFAULT_RANGES]
    units += [
        golden_unit(name, builder, (golden_dir / name).read_text())
        for name, builder in GOLDEN.BUILDERS.items()
    ]
    units += [cross_check_unit(name, g, pins.get(name)) for name, g in small]
    return names, units


def _probe_cover(masks: list[int], k: int) -> bool:
    if not masks:
        return True
    if k <= 0:
        return False
    t = min(masks, key=int.bit_count)
    for _ in range(3):
        if not t:
            break
        low = t & -t
        e = low.bit_length() - 1
        if _probe_cover([x for x in masks if not (x >> e) & 1], k - 1):
            return True
        t ^= low
    return False


def slowdown() -> float:
    """How slow the machine is now: probe time over its nominal time."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        for i in range(4):
            _probe_cover(PROBE_MASKS[i * 50 : i * 50 + 90], 4)
            frozenset((u, u + 1) for u in range(i, i + 60))
        times.append(time.perf_counter() - start)
    return statistics.median(times) / PROBE_NOMINAL_S


def freeze_heap() -> None:
    """Keep the objects left by import and set-up out of later collections.

    Otherwise a full collection that happens to fall inside a solve of
    half a millisecond scans them all and multiplies its latency.
    """
    gc.collect()
    gc.freeze()


def import_seconds() -> float:
    """Import time of the package in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout)


def measure_setup(workload: str, seed: int, expected: dict):
    """Median set-up time over several repeats, each speed-normalised."""
    imports, builds = [], []
    for _ in range(SETUP_REPEATS):
        before = slowdown()
        seconds = import_seconds()
        imports.append(seconds / ((before + slowdown()) / 2))
    for _ in range(SETUP_REPEATS):
        before = slowdown()
        start = time.perf_counter()
        names, units = build_units(workload, seed, expected)
        seconds = time.perf_counter() - start
        builds.append(seconds / ((before + slowdown()) / 2))
    return statistics.median(imports) + statistics.median(builds), names, units


def run_units(units, tracer) -> list[tuple[float, float, bool]]:
    """Run every unit in order.

    Per unit: the seconds charged to it, the seconds measured (less the
    tracer's probes), and whether a solve in it ran out of budget. A
    unit is charged its measured time divided by the machine's slowdown
    around it, unless a solve in it ran out: the budget's clock set that
    unit's length.
    """
    out = []
    before = slowdown()
    for unit in units:
        first, probed = len(tracer.solves), tracer.probe_s
        start = time.perf_counter()
        try:
            unit()
        except antiforce.InternalInvariantError as exc:
            raise GateFailure(f"internal invariant: {exc}") from None
        measured = time.perf_counter() - start - (tracer.probe_s - probed)
        after = slowdown()
        factor = (before + after) / 2
        before = after
        exhausted = any(s.exhausted for s in tracer.solves[first:])
        out.append((measured if exhausted else measured / factor, measured, exhausted))
    return out


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def latency_sample(solves) -> list:
    """The solves behind the latency figures: those on graphs of even order.

    An odd-order graph has no perfect matching and is answered by the
    convention in microseconds, without a search; on the verify workload
    such calls are half the sample and would put the median at the
    boundary between the two kinds.
    """
    return [s for s in solves if s.graph.n % 2 == 0]


def timed_solve(s) -> float:
    """One speed-normalised timing of a finished solve, run again.

    A solve under RETIME_MIN_S is repeated until that much time has
    passed and the mean is taken: a single sub-millisecond timing moves
    by a third with the state the preceding work left in the caches.
    """
    solver = {
        spans.VIA_MATCHINGS: antiforce.af_via_matchings,
        spans.SUBSET_SEARCH: antiforce.af_subset_search,
    }[s.oracle]
    before = slowdown()
    runs = 0
    start = time.perf_counter()
    while True:
        try:
            solver(s.graph, budget())
        except antiforce.BudgetExceededError:
            return BUDGET_SECONDS
        runs += 1
        measured = time.perf_counter() - start
        if measured >= RETIME_MIN_S:
            break
    return measured / runs / ((before + slowdown()) / 2)


def steady_latencies(solves) -> list[float]:
    """Latencies, steadied where a single timing is noisy.

    A finished solve whose timing is under CHEAP_S is timed again in a
    loop and takes the loop's mean. Then, among the solves that set the
    tail percentile (the one at it, its neighbours, and any under
    SPIKE_S that a stall pushed up among the ten beyond it), each takes
    the median of its timing and RETIMINGS more.
    """
    for s in solves:
        if not s.exhausted and s.seconds < CHEAP_S:
            s.seconds = timed_solve(s)
    order = sorted(solves, key=lambda s: s.seconds)
    n = len(order)
    for rank in range(max(0, n - 12), n):
        s = order[rank]
        if not s.exhausted and (rank <= n - 10 or s.seconds < SPIKE_S):
            s.seconds = statistics.median(
                [s.seconds] + [timed_solve(s) for _ in range(RETIMINGS)]
            )
    return [s.seconds for s in solves]


def context(args) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu,
        "loadavg_start": [round(x, 2) for x in os.getloadavg()],
        "budget": {"nodes": BUDGET_NODES, "seconds": BUDGET_SECONDS},
    }


def report_solves(ctx: dict, solves) -> None:
    """Print the run's context and why each exhausted solve stopped."""
    seconds = [s.seconds for s in latency_sample(solves)]
    tail_s, pct = tail(seconds)
    exhausted = [s for s in solves if s.exhausted]
    finished = [s for s in solves if not s.exhausted]
    slowest = max(finished, key=lambda s: s.seconds, default=None)
    ctx.update(
        solves=len(solves),
        exhausted=len(exhausted),
        exhausted_frac=len(exhausted) / len(solves),
        p50_samples=len(seconds),
        tail_percentile=round(pct, 2),
        tail_samples_beyond=sum(1 for x in seconds if x > tail_s),
        slowest_solved=None if slowest is None else [slowest.name, round(slowest.seconds, 4)],
    )
    print("context " + json.dumps(ctx))
    for s in exhausted:
        layer = s.layer or "untraced"
        print(f"exhausted {s.name} oracle={s.oracle} lower={s.lower} layer={layer}")


def run_untraced(args, expected: dict) -> tuple[dict, list, dict]:
    setup_s, names, units = measure_setup(args.workload, args.seed, expected)
    freeze_heap()
    with spans.Tracer(boundaries=False, names=names, probe=slowdown) as tracer:
        timed = run_units(units, tracer)
    seconds = steady_latencies(latency_sample(tracer.solves))
    metrics = {
        "wall_s": (sum(charged for charged, _, _ in timed), "s"),
        "solved": (sum(not s.exhausted for s in tracer.solves), "count"),
        "solve_p50_s": (statistics.median(seconds), "s"),
        "solve_tail_s": (tail(seconds)[0], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }
    return metrics, tracer.solves, {"measured_wall_s": sum(m for _, m, _ in timed)}


def run_traced(args, expected: dict) -> tuple[dict, list, dict]:
    _, twins = build_units(args.workload, args.seed, expected)
    tracer = spans.Tracer(boundaries=True)
    plain = spans.Tracer(boundaries=False)
    with tracer:
        tracer.names, units = build_units(args.workload, args.seed, expected)
    freeze_heap()
    traced_s = untraced_s = 0.0
    for unit, twin in zip(units, twins):
        with tracer:
            [(_, seconds, exhausted)] = run_units([unit], tracer)
        # Overhead: each unit that finished within budget is run again
        # untraced right after, so slow drift in machine speed cancels.
        # A solve that runs out takes its full budget traced or not.
        if not exhausted:
            with plain:
                [(_, base, _)] = run_units([twin], plain)
            traced_s += seconds
            untraced_s += base
    missing = [
        layer for layer in REQUIRED_LAYERS[args.workload] if not tracer.calls_all[layer]
    ]
    if missing:
        raise GateFailure(f"traced layers recorded no calls: {', '.join(missing)}")
    metrics = {name: (value, unit_of(name)) for name, value in tracer.layer_metrics().items()}
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "ratio")
    return metrics, tracer.solves, {}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_per_pm"):
        return "ratio"
    return "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(REQUIRED_LAYERS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "antiforce" / "__init__.py").is_file():
        print(f"bench: no package at {SRC}; run from the repository root", file=sys.stderr)
        return 2
    ctx = context(args)
    expected = json.loads((BENCH / "expected.json").read_text())
    try:
        run = run_traced if args.trace else run_untraced
        metrics, solves, extra = run(args, expected)
    except GateFailure as exc:
        print(f"bench: FAILED: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    ctx.update(extra)
    report_solves(ctx, solves)
    print(json.dumps({
        "correct": True,
        "attempted": len(solves),
        "failed": sum(s.exhausted for s in solves),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _load_golden_builders():
    spec = importlib.util.spec_from_file_location(
        "golden_builders", ROOT / "tests" / "golden_builders.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules["golden_builders"] = module
    spec.loader.exec_module(module)
    return module


if __name__ == "__main__":
    if (SRC / "antiforce" / "__init__.py").is_file():
        sys.path.insert(0, str(SRC))
        import antiforce

        import corpus
        import spans

        GOLDEN = _load_golden_builders()
    raise SystemExit(main())
