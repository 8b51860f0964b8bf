"""Spans at the package's module boundaries, recorded from outside.

The package has no tracing of its own, so ``Tracer`` wraps public
functions of its modules. A function is replaced under every name it
is bound to in the package's modules (``harness`` imports
``af_via_matchings`` by name, for example), so a call made inside the
package is recorded as well as one made by the benchmark.

Accounting rules:

- a span's self time is its duration minus the durations of its child
  spans; every ``*_s`` layer time is a self time, except where noted;
- search nodes are read from the ``Budget`` passed to the oracle that
  encloses the span, so a span's nodes are the budget ticks it charged;
- call and node counts made inside an oracle call that ran out of
  budget are dropped: such a call stops at a time-dependent point, so
  only counts from solved calls repeat exactly. Times are kept;
- an exhausted oracle call is attributed to the innermost open span
  among the layers that charge the budget.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Callable

import antiforce
from antiforce import Budget, BudgetExceededError

VIA_MATCHINGS = "antiforcing.via_matchings"
SUBSET_SEARCH = "antiforcing.subset_search"

# (layer, module, function). The two oracles are always wrapped: their
# spans are the per-solve latencies and the solved/exhausted record.
ORACLES = (
    (VIA_MATCHINGS, "antiforce.antiforcing", "af_via_matchings"),
    (SUBSET_SEARCH, "antiforce.antiforcing", "af_subset_search"),
)
BOUNDARIES = (
    ("graph.power", "antiforce.graph", "power"),
    ("graph.from_json", "antiforce.graph", "from_json"),
    ("families.build", "antiforce.families", "build"),
    ("matching.pm_enum", "antiforce.matching", "enumerate_perfect_matchings"),
    ("matching.pm_gate", "antiforce.matching", "has_perfect_matching"),
    ("matching.alt_cycles", "antiforce.matching", "alternating_cycles"),
    ("matching.count_pms", "antiforce.matching", "count_pms_excluding"),
    ("antiforcing.witness_check", "antiforce.antiforcing", "is_anti_forcing_set"),
    ("harness.sweep_point", "antiforce.harness", "sweep_point"),
    ("harness.emit_report", "antiforce.harness", "emit_report"),
)
FORMULAS = "formulas.evaluate"

# Layers that charge the budget, innermost first, and the counter an
# exhausted call is reported under.
EXHAUSTION_COUNTERS = {
    "matching.pm_enum": "budget.exhausted_pm_enum",
    "matching.alt_cycles": "budget.exhausted_alt_cycles",
    VIA_MATCHINGS: "budget.exhausted_hitting_set",
    SUBSET_SEARCH: "budget.exhausted_subset_search",
}

# Layers whose result length is counted (matchings, cycles).
COUNTED_RESULTS = ("matching.pm_enum", "matching.alt_cycles")


def _formula_functions() -> list[tuple[str, str, str]]:
    mod = antiforce.formulas
    return [
        (FORMULAS, mod.__name__, name)
        for name, fn in vars(mod).items()
        if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not name.startswith("_")
    ]


def _package_modules() -> list:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if name == "antiforce" or name.startswith("antiforce.") or name == "golden_builders"
    ]


@dataclass
class Solve:
    """One oracle call."""

    name: str
    oracle: str
    graph: object
    seconds: float
    exhausted: bool
    lower: int | None = None
    layer: str | None = None


@dataclass
class _Frame:
    layer: str
    budget: Budget | None
    nodes0: int
    start: float = 0.0
    child_s: float = 0.0
    child_nodes: int = 0


@dataclass
class Tracer:
    """Wraps the oracles, and with ``boundaries`` every layer boundary.

    ``names`` maps a graph key ``(n, edges)`` to the instance name used
    when an oracle call on that graph is reported. With ``probe``, a
    function returning the machine's slowdown, each finished solve's
    latency is divided by the slowdown measured right before and after
    it; ``probe_s`` accumulates the time spent probing.
    """

    boundaries: bool
    names: dict = field(default_factory=dict)
    probe: Callable[[], float] | None = None
    probe_s: float = 0.0
    solves: list[Solve] = field(default_factory=list)
    self_s: defaultdict = field(default_factory=lambda: defaultdict(float))
    total_s: defaultdict = field(default_factory=lambda: defaultdict(float))
    calls_all: Counter = field(default_factory=Counter)
    counts: Counter = field(default_factory=Counter)
    exhausted: Counter = field(default_factory=Counter)
    _stack: list[_Frame] = field(default_factory=list)
    _pending: list[Counter] = field(default_factory=list)
    _undo: list = field(default_factory=list)

    def __enter__(self) -> "Tracer":
        targets = list(ORACLES)
        if self.boundaries:
            targets += list(BOUNDARIES) + _formula_functions()
        modules = _package_modules()
        for layer, modname, attr in targets:
            orig = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(layer, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, key, orig in reversed(self._undo):
            setattr(mod, key, orig)
        self._undo.clear()

    def _wrap(self, layer: str, fn):
        oracle = layer in (VIA_MATCHINGS, SUBSET_SEARCH)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(layer, oracle, fn, args, kwargs)

        return wrapper

    def _call(self, layer: str, oracle: bool, fn, args, kwargs):
        slowdown = 1.0
        if oracle:
            budget = kwargs.get("budget", args[1] if len(args) > 1 else None)
            self._pending.append(Counter())
            if self.probe is not None:
                slowdown = self._probe() / 2
        else:
            budget = self._stack[-1].budget if self._stack else None
        frame = _Frame(layer, budget, budget.nodes if budget is not None else 0)
        self._stack.append(frame)
        ok = False
        exc_seen: BudgetExceededError | None = None
        frame.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        except BudgetExceededError as exc:
            exc_seen = exc
            if layer in EXHAUSTION_COUNTERS and not hasattr(exc, "bench_layer"):
                exc.bench_layer = layer
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - frame.start
            nodes = budget.nodes - frame.nodes0 if budget is not None else 0
            self.self_s[layer] += duration - frame.child_s
            self.total_s[layer] += duration
            self.calls_all[layer] += 1
            if self._stack:
                parent = self._stack[-1]
                parent.child_s += duration
                if parent.budget is budget:
                    parent.child_nodes += nodes
            target = self._pending[-1] if self._pending else self.counts
            target[layer + ".calls"] += 1
            target[layer + ".self_nodes"] += nodes - frame.child_nodes
            if ok and layer in COUNTED_RESULTS:
                target[layer + ".items"] += len(result)
            if oracle:
                target["budget.nodes"] += nodes
                pending = self._pending.pop()
                if ok:
                    (self._pending[-1] if self._pending else self.counts).update(pending)
                if self.probe is not None:
                    slowdown += self._probe() / 2
                if ok or exc_seen is not None:
                    self._record_solve(layer, args, duration / slowdown, budget, exc_seen)

    def _probe(self) -> float:
        start = time.perf_counter()
        slowdown = self.probe()
        self.probe_s += time.perf_counter() - start
        return slowdown

    def _record_solve(self, layer, args, seconds, budget, exc) -> None:
        g = args[0]
        name = self.names.get((g.n, g.edges), f"graph(n={g.n},e={len(g.edges)})")
        if exc is None:
            self.solves.append(Solve(name, layer, g, seconds, False))
            return
        inner = getattr(exc, "bench_layer", layer)
        self.exhausted[EXHAUSTION_COUNTERS[inner]] += 1
        # An exhausted solve counts as its full budget.
        if budget is not None:
            seconds = budget.max_seconds
        self.solves.append(
            Solve(name, layer, g, seconds, True, exc.lower, inner if self.boundaries else None)
        )

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics, from the spans recorded so far."""
        c, s = self.counts, self.self_s
        pms = c["matching.pm_enum.items"]
        return {
            "matching.alt_cycles_s": s["matching.alt_cycles"],
            "matching.alt_cycles_calls": c["matching.alt_cycles.calls"],
            "matching.cycles_found": c["matching.alt_cycles.items"],
            "matching.alt_cycles_nodes": c["matching.alt_cycles.self_nodes"],
            "matching.alt_cycles_calls_per_pm": (
                c["matching.alt_cycles.calls"] / pms if pms else 0.0
            ),
            "antiforcing.hitting_set_self_s": s[VIA_MATCHINGS],
            "antiforcing.hitting_set_nodes": c[VIA_MATCHINGS + ".self_nodes"],
            "matching.pm_enum_s": s["matching.pm_enum"],
            "matching.pm_enum_calls": c["matching.pm_enum.calls"],
            "matching.pms_enumerated": pms,
            "matching.pm_enum_nodes": c["matching.pm_enum.self_nodes"],
            "matching.pm_gate_s": s["matching.pm_gate"],
            "matching.pm_gate_calls": c["matching.pm_gate.calls"],
            "matching.count_pms_s": s["matching.count_pms"],
            "matching.count_pms_calls": c["matching.count_pms.calls"],
            "antiforcing.subset_search_self_s": s[SUBSET_SEARCH],
            "antiforcing.subsets_tested": c[SUBSET_SEARCH + ".self_nodes"],
            # Inclusive: a witness check's work is its count_pms probe.
            "antiforcing.witness_check_s": self.total_s["antiforcing.witness_check"],
            "antiforcing.witness_checks": c["antiforcing.witness_check.calls"],
            "graph.power_s": s["graph.power"],
            "graph.from_json_s": s["graph.from_json"],
            "families.build_s": s["families.build"],
            "formulas.evaluate_s": s[FORMULAS],
            "harness.sweep_point_self_s": s["harness.sweep_point"],
            "harness.emit_report_s": s["harness.emit_report"],
            "budget.nodes": c["budget.nodes"],
            **{name: self.exhausted[name] for name in EXHAUSTION_COUNTERS.values()},
        }
