"""The frontier: 43 even-order powers at the edge of what the solver finishes.

The instances are P_n^m and C_n^m for even n from 14 to 24 and m from 2
to 4, ortho-chain(5)^m and para-chain(5)^m for m from 2 to 4, and K_14.
Each is solved by af_via_matchings under the default budget, and its
witness re-checked by ``solve_verified`` under the same budget, in a
child process of its own, so that one instance's memory cannot weigh on
the next. An instance that finishes is solved twice more, and its time
is the best of the three runs, so that a slow spell of the host does not
read as a change. The script prints each instance's value, or the bounds it
carries when the budget runs out, and its seconds, then writes them to
BENCH_frontier_<label>.json at the repository root:

    python tests/frontier.py --label baseline

tests/goldens/frontier.json pins the value of every instance a route
has decided, under any budget. The exit code is 1 when a value solved
here differs from its pin or has none, or from another run's. The
run takes about four minutes on a 2-core Xeon and is not part of tier-1.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import platform
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from antiforce import BudgetExceededError, af_via_matchings, build, power, solve_verified
from criterion1_witnesses import instance_budget, instance_name

ROOT = Path(__file__).parent.parent
PIN = Path(__file__).parent / "goldens" / "frontier.json"
RUNS = 3  # a finished instance's time is the best of this many runs


def frontier_instances() -> list[tuple[str, int, int]]:
    specs = [(fam, n) for fam in ("path", "cycle") for n in range(14, 25, 2)]
    specs += [("ortho-chain", 5), ("para-chain", 5)]
    instances = [(fam, k, m) for fam, k in specs for m in range(2, 5)]
    return instances + [("complete", 14, 1)]


def solve(fam: str, k: int, m: int) -> dict[str, object]:
    """The value, or the bounds when the budget runs out, and the seconds spent solving."""
    g = power(build(fam, k), m)
    start = time.perf_counter()
    try:
        bounds = {"value": solve_verified(g, af_via_matchings, instance_budget()).value}
    except BudgetExceededError as exc:
        bounds = {"lower": exc.lower, "upper": exc.upper}
    seconds = time.perf_counter() - start
    return {"name": instance_name(fam, k, m), "n": g.n, **bounds, "seconds": round(seconds, 3)}


def solve_in_child(fam: str, k: int, m: int) -> dict[str, object]:
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=spawn) as pool:
        return pool.submit(solve, fam, k, m).result()


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--label", default="local", help="names the BENCH_frontier_<label>.json")
    args = parser.parse_args(argv)
    pin = json.loads(PIN.read_text())
    rows = []
    faults = 0
    for fam, k, m in frontier_instances():
        row = solve_in_child(fam, k, m)
        rows.append(row)
        name = row["name"]
        if "value" in row:
            again = [solve_in_child(fam, k, m) for _ in range(RUNS - 1)]
            row["seconds"] = min([row["seconds"]] + [r["seconds"] for r in again])
            fault = "" if pin.get(name) == row["value"] else f", pinned {pin.get(name)}"
            if any(r.get("value", row["value"]) != row["value"] for r in again):
                fault += ", another run differs"
            faults += bool(fault)
            print(f"{name}: {row['value']} in {row['seconds']:.2f} s{fault}", flush=True)
        else:
            print(f"{name}: {row['lower']}..{row['upper']} in {row['seconds']:.2f} s", flush=True)
    solved = sum("value" in row for row in rows)
    context = {"python": platform.python_version(), "machine": platform.machine()}
    doc = {"label": args.label, **context, "cpus": os.cpu_count(), "solved": solved}
    out = ROOT / f"BENCH_frontier_{args.label}.json"
    out.write_text(json.dumps(doc | {"instances": rows}, indent=1) + "\n")
    print(f"{solved} of {len(rows)} solved, {faults} differ from the pin or have none; wrote {out}")
    return 1 if faults else 0


if __name__ == "__main__":
    raise SystemExit(main())
