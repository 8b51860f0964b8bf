"""Builders for the frozen reports under tests/goldens/.

Each builder returns the exact CSV text the harness emits today; the
acceptance test compares these against the committed files byte for
byte.  Run this module directly to check the files (exit code 1 when
any is stale), or to rewrite them after a deliberate report-format
change:

    python tests/golden_builders.py
    python tests/golden_builders.py --write
"""

from __future__ import annotations

from pathlib import Path

from antiforce import SweepSpec, run_edge_count_audit, run_sweep
from antiforce.harness import emit_report

GOLDEN_DIR = Path(__file__).parent / "goldens"


def build_path_sweep() -> str:
    spec = SweepSpec(family="path", k_values=(4, 6, 8), m_values=(2, 3))
    return emit_report(run_sweep(spec), "csv")


def build_cycle_sweep() -> str:
    spec = SweepSpec(family="cycle", k_values=(4, 6, 8, 10), m_values=(2,))
    return emit_report(run_sweep(spec), "csv")


def build_ortho_audit() -> str:
    records = []
    for k in (2, 4, 6, 8):
        records.extend(run_edge_count_audit("ortho-chain", (k,), tuple(range(2, k + 2))))
    return emit_report(records, "csv")


def build_para_audit() -> str:
    records = []
    for k in (2, 4, 6, 8):
        records.extend(run_edge_count_audit("para-chain", (k,), tuple(range(2, 2 * k + 2))))
    return emit_report(records, "csv")


def build_tri_chain_audit() -> str:
    records = []
    for k in range(2, 9):
        records.extend(run_edge_count_audit("tri-chain", (k,), tuple(range(2, k + 1))))
    return emit_report(records, "csv")


def build_odd_path_audit() -> str:
    return emit_report(run_edge_count_audit("path", (3, 5, 7, 9), tuple(range(1, 9))), "csv")


def build_odd_cycle_audit() -> str:
    return emit_report(run_edge_count_audit("cycle", (3, 5, 7, 9), tuple(range(1, 9))), "csv")


BUILDERS = {
    "path_sweep.csv": build_path_sweep,
    "cycle_sweep.csv": build_cycle_sweep,
    "ortho_chain_audit.csv": build_ortho_audit,
    "para_chain_audit.csv": build_para_audit,
    "tri_chain_audit.csv": build_tri_chain_audit,
    "odd_path_audit.csv": build_odd_path_audit,
    "odd_cycle_audit.csv": build_odd_cycle_audit,
}


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--write", action="store_true", help="rewrite the golden files")
    args = parser.parse_args(argv)
    stale = False
    for name, builder in BUILDERS.items():
        text = builder()
        target = GOLDEN_DIR / name
        if args.write:
            GOLDEN_DIR.mkdir(exist_ok=True)
            target.write_text(text)
            print(f"wrote {target} ({len(text.splitlines()) - 1} rows)")
        else:
            ok = target.exists() and target.read_text() == text
            stale = stale or not ok
            print(f"{name}: {'ok' if ok else 'STALE'}")
    return 1 if stale else 0


if __name__ == "__main__":
    raise SystemExit(main())
