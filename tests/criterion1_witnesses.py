"""The criterion-1 family instances and their pinned witnesses.

tests/goldens/criterion1_witnesses.json maps each instance that
af_via_matchings solves within its budget to ``[value, sorted witness]``;
each witness is re-checked by ``solve_verified`` before it is compared.
The acceptance test compares every instance it solves against the pin,
so a change of the reported lexicographically smallest witness fails
tier-1. Run this module directly to check the pin (exit code 1 when an
instance solved here differs from it or is not pinned), or to rewrite
it after a deliberate change:

    python tests/criterion1_witnesses.py
    python tests/criterion1_witnesses.py --write

Both solve all 99 instances and print the seconds spent solving, 0.2 to
0.3 s on a 2-core Xeon.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from antiforce import Budget, BudgetExceededError, af_via_matchings, build, power, solve_verified
from antiforce.budget import DEFAULT_MAX_NODES, DEFAULT_MAX_SECONDS

PIN = Path(__file__).parent / "goldens" / "criterion1_witnesses.json"


def instance_budget() -> Budget:
    # The deadline starts at construction, so every solve gets its own.
    return Budget(max_nodes=DEFAULT_MAX_NODES, max_seconds=DEFAULT_MAX_SECONDS)


def family_instances() -> list[tuple[str, int, int, object]]:
    """Every family instance with n <= 12, m <= 4, deduplicated by power graph."""
    specs = []
    specs += [("path", k) for k in range(2, 13)]
    specs += [("cycle", k) for k in range(3, 13)]
    specs += [("complete", k) for k in range(2, 13)]
    specs += [("friendship", k) for k in range(1, 6)]
    specs += [("tri-chain", k) for k in range(1, 6)]
    specs += [("ortho-chain", k) for k in range(1, 4)]
    specs += [("para-chain", k) for k in range(1, 4)]
    seen = {}
    for fam, k in specs:
        base = build(fam, k)
        assert base.n <= 12
        for m in range(1, 5):
            g = power(base, m)
            seen.setdefault((g.n, g.edges), (fam, k, m, g))
    return list(seen.values())


def instance_name(fam: str, k: int, m: int) -> str:
    return f"{fam}({k})^{m}"


def pin_entry(value: int, witness) -> list:
    return [value, [list(e) for e in sorted(witness)]]


def load_pin() -> dict[str, list]:
    return json.loads(PIN.read_text())


def solve_all() -> tuple[dict[str, list], float]:
    """Pin entries of every instance solved and re-checked in budget, and the seconds spent."""
    out = {}
    seconds = 0.0
    for fam, k, m, g in family_instances():
        start = time.perf_counter()
        try:
            r = solve_verified(g, af_via_matchings, instance_budget())
        except BudgetExceededError:
            continue
        finally:
            seconds += time.perf_counter() - start
        out[instance_name(fam, k, m)] = pin_entry(r.value, r.witness)
    return out, seconds


def dump(entries: dict[str, list]) -> str:
    lines = [f"  {json.dumps(name)}: {json.dumps(entry)}" for name, entry in entries.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--write", action="store_true", help="rewrite the pin")
    args = parser.parse_args(argv)
    entries, seconds = solve_all()
    if args.write:
        PIN.write_text(dump(entries))
        print(f"wrote {PIN} ({len(entries)} instances, solved in {seconds:.2f} s)")
        return 0
    pin = load_pin()
    missing = [name for name in entries if name not in pin]
    differ = [name for name in entries if name in pin and pin[name] != entries[name]]
    for name in missing:
        print(f"{name}: not pinned")
    for name in differ:
        print(f"{name}: differs")
    print(
        f"{len(entries)} solved in {seconds:.2f} s, {len(differ)} differ from the pin, "
        f"{len(missing)} not pinned"
    )
    return 1 if missing or differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
