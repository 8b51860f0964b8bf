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

With ``--against DIR``, DIR being another checkout of the repository,
each instance is also solved with the ``antiforce`` of DIR/src, the
two trees taking turns run by run, so that a drift of the host's speed
falls on both alike. Each tree's value or bounds and best of three are
printed and written side by side:

    python tests/frontier.py --label change --against ../parent

tests/goldens/frontier.json pins the value of every instance a route
has decided, under any budget. The exit code is 1 when a value that
either tree solves differs from its pin or has none, or from another
run's. The run takes about four minutes on a 2-core Xeon, five with
``--against``, and is not part of tier-1.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from antiforce import BudgetExceededError, af_via_matchings, build, power, solve_verified
from criterion1_witnesses import instance_budget, instance_name

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PIN = HERE / "goldens" / "frontier.json"
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


def solve_in_child(fam: str, k: int, m: int, tree: Path = ROOT) -> dict[str, object]:
    """``solve`` in a fresh interpreter that imports ``antiforce`` from ``tree``/src."""
    code = f"import json, frontier; print(json.dumps(frontier.solve({fam!r}, {k}, {m})))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tree / "src"), str(HERE)])}
    run = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        cwd=HERE,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(run.stdout)


def solve_on(fam: str, k: int, m: int, trees: list[Path]) -> tuple[list[dict[str, object]], bool]:
    """One row per tree, and whether any tree's runs disagree.

    A tree that finishes is run RUNS times in all, its time the best.
    Round by round the trees take turns, in reversed order every other
    round.
    """
    rows = [solve_in_child(fam, k, m, tree) for tree in trees]
    differs = False
    for turn in range(1, RUNS):
        for t in range(len(trees))[:: -1 if turn % 2 else 1]:
            if "value" in rows[t]:
                again = solve_in_child(fam, k, m, trees[t])
                rows[t]["seconds"] = min(rows[t]["seconds"], again["seconds"])
                differs = differs or again.get("value") != rows[t]["value"]
    return rows, differs


def shown(row: dict[str, object]) -> str:
    if "value" in row:
        return f"{row['value']} in {row['seconds']:.2f} s"
    return f"{row['lower']}..{row['upper']} in {row['seconds']:.2f} s"


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--label", default="local", help="names the BENCH_frontier_<label>.json")
    parser.add_argument(
        "--against", type=Path, metavar="DIR", help="another checkout to run on each instance too"
    )
    args = parser.parse_args(argv)
    trees = [ROOT] + ([args.against.resolve()] if args.against else [])
    pin = json.loads(PIN.read_text())
    rows = []
    faults = 0
    for fam, k, m in frontier_instances():
        (row, *others), differs = solve_on(fam, k, m, trees)
        name = row["name"]
        fault = "".join(
            f", pinned {pin.get(name)}"
            for r in (row, *others)
            if "value" in r and pin.get(name) != r["value"]
        )
        fault += ", another run differs" if differs else ""
        faults += bool(fault)
        for other in others:
            row["against"] = {key: other[key] for key in other if key not in ("name", "n")}
        rows.append(row)
        line = f"{name}: {shown(row)}" + "".join(f"; against: {shown(o)}" for o in others)
        print(line + fault, flush=True)
    solved = sum("value" in row for row in rows)
    context = {"python": platform.python_version(), "machine": platform.machine()}
    doc = {"label": args.label, **context, "cpus": os.cpu_count(), "solved": solved}
    if args.against:
        doc["against_solved"] = sum("value" in row["against"] for row in rows)
    out = ROOT / f"BENCH_frontier_{args.label}.json"
    out.write_text(json.dumps(doc | {"instances": rows}, indent=1) + "\n")
    against = f" ({doc['against_solved']} against)" if args.against else ""
    print(
        f"{solved} of {len(rows)} solved{against}, {faults} differ from the pin or have none;"
        f" wrote {out}"
    )
    return 1 if faults else 0


if __name__ == "__main__":
    raise SystemExit(main())
