"""Write bench/expected.json, the values the correctness gate pins.

Run from the repository root, at a commit whose results are trusted:

    python3 bench/pin.py

It pins af for every criterion-1 instance the matching route solves
within its budget (with a verified witness), the same for every graph
of the random corpus of seeds 0..RANDOM_SEEDS-1 (keyed by graph digest,
so any seed that produces the graph is checked), and the SHA-256 of
each default sweep report.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import antiforce  # noqa: E402

import corpus  # noqa: E402
from run import BUDGET_NODES, BUDGET_SECONDS  # noqa: E402

RANDOM_SEEDS = 40


def solved_value(g) -> int | None:
    try:
        res = antiforce.af_via_matchings(
            g, antiforce.Budget(max_nodes=BUDGET_NODES, max_seconds=BUDGET_SECONDS)
        )
    except antiforce.BudgetExceededError:
        return None
    if res.method != "convention_no_pm" and not antiforce.is_anti_forcing_set(g, res.witness):
        raise SystemExit(f"unverifiable witness on {sorted(g.edges)}")
    return res.value


def main() -> int:
    families = {}
    for name, g in corpus.load(corpus.criterion1()):
        value = solved_value(g)
        if value is not None:
            families[name] = value
    random_pins: dict[str, int] = {}
    for seed in range(RANDOM_SEEDS):
        for _, g in corpus.load(corpus.random_graphs(seed)):
            value = solved_value(g)
            if value is not None:
                random_pins[corpus.graph_digest(g)] = value
        print(f"seed {seed}: {len(random_pins)} random graphs pinned", file=sys.stderr)
    reports = {}
    for family in antiforce.harness.DEFAULT_RANGES:
        spec = antiforce.default_sweep_spec(family)
        with redirect_stderr(io.StringIO()):
            text = antiforce.harness.emit_report(antiforce.run_sweep(spec), "csv")
        reports[family] = hashlib.sha256(text.encode()).hexdigest()
    doc = {"families": families, "random": random_pins, "reports": reports}
    (BENCH / "expected.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(families)} family instances, {len(random_pins)} random graphs")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
