"""Verification harness: sweeps formulas against the exact oracles.

Every comparison lands in one report row per (family, k, m): a document
keyed by ``COLUMNS``, built by ``_record`` and serialized by
``emit_report``. A family with no closed form gives OUT_OF_RANGE rows.
Oracle budgets never abort a sweep; they become SKIPPED rows. A
disagreement between the two independent oracles does abort: that is an
internal invariant failure, not a finding.

Reports are deterministic byte for byte: fixed column order, fixed row
order, exact rational formatting.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial

from .antiforcing import af_subset_search, af_via_matchings, is_anti_forcing_set
from .budget import DEFAULT_MAX_NODES, DEFAULT_MAX_SECONDS, Budget, BudgetExceededError
from .families import build
from .formulas import (
    IN_RANGE,
    OUT_OF_RANGE,
    FormulaResult,
    Value,
    af_ortho_power,
    af_ortho_power_closed_form,
    af_para_power,
    af_para_power_closed_form,
    evaluate_formula,
)
from .graph import _shown, power

STATUSES = (
    "MATCH",
    "MISMATCH",
    "WITHIN_BOUNDS",
    "BOUND_VIOLATION",
    "OUT_OF_RANGE",
    "SKIPPED",
)

# A report row's columns, in order, with the type of each value: oracle_value
# is an int, or "skipped(budget)" when the oracle ran out of budget.
COLUMNS: dict[str, type | tuple[type, ...]] = {
    "family": str,
    "k": int,
    "m": int,
    "n": int,
    "formula_value": str,
    "formula_case": str,
    "applicability": str,
    "oracle_value": (int, str),
    "bound_lower": str,
    "bound_upper": str,
    "status": str,
}

EVEN_K_FAMILIES = frozenset({"ortho-chain", "para-chain"})

DEFAULT_CROSS_CHECK_N_LIMIT = 8


def _family_ks(family: str, k_values: tuple[int, ...]) -> list[int]:
    """The k values a sweep or audit of family visits: chains take even k only."""
    return [k for k in k_values if not (family in EVEN_K_FAMILIES and k % 2)]


class InternalInvariantError(Exception):
    """The two oracles disagreed or a witness failed re-verification."""


def format_value(x: Value | None) -> str:
    """Exact textual form: integers bare, other rationals as a/b, None as n/a."""
    return "n/a" if x is None else str(x)


def classify_status(res: FormulaResult | None, oracle: int | None) -> str:
    """Grade the closed-form claim res against the oracle's value.

    None for res means the family has no closed form, and None for
    oracle means the oracle ran out of budget. Precedence: out-of-range
    claims and no claim are never graded, budget-starved rows are
    SKIPPED, bound claims grade against their interval, everything else
    is an equality check.
    """
    if res is None or res.applicability == OUT_OF_RANGE:
        return "OUT_OF_RANGE"
    if oracle is None:
        return "SKIPPED"
    if res.lower is not None or res.upper is not None:
        ok_low = res.lower is None or oracle >= res.lower
        ok_up = res.upper is None or oracle <= res.upper
        return "WITHIN_BOUNDS" if ok_low and ok_up else "BOUND_VIOLATION"
    if res.value is None:
        return "OUT_OF_RANGE"
    return "MATCH" if res.value == oracle else "MISMATCH"


# The cells of a row whose family has no closed form: every claim n/a.
_NO_FORMULA = FormulaResult(None, "exact", "n/a", OUT_OF_RANGE)


def _record(
    family: str, k: int, m: int, n: int, res: FormulaResult | None, oracle: int | None
) -> dict[str, object]:
    """The graded report row for res against oracle; no formula gives an n/a row."""
    res = res or _NO_FORMULA
    cells = (
        family,
        k,
        m,
        n,
        format_value(res.value),
        res.case,
        res.applicability,
        "skipped(budget)" if oracle is None else oracle,
        format_value(res.lower),
        format_value(res.upper),
        classify_status(res, oracle),
    )
    return dict(zip(COLUMNS, cells))


@dataclass(frozen=True)
class SweepSpec:
    family: str
    k_values: tuple[int, ...]
    m_values: tuple[int, ...]
    # The allowance of each oracle call; every call gets a fresh copy.
    budget: Budget = field(default_factory=partial(Budget, DEFAULT_MAX_NODES, DEFAULT_MAX_SECONDS))

    def __post_init__(self) -> None:
        if not self.points():
            raise ValueError(f"sweep of {self.family} has no points (chains take even k only)")

    def points(self) -> list[tuple[int, int]]:
        return [(k, m) for k in _family_ks(self.family, self.k_values) for m in self.m_values]


def parse_range(text: str) -> tuple[int, ...]:
    """Inclusive integer range A, A:B, or A:B:STEP."""
    try:
        nums = [int(p) for p in text.split(":")]
    except ValueError:
        nums = []
    if not 1 <= len(nums) <= 3:
        raise ValueError("bad range, expected integers A[:B[:STEP]]")
    if len(nums) == 1:
        return (nums[0],)
    step = nums[2] if len(nums) == 3 else 1
    if step < 1:
        raise ValueError(f"range step must be >= 1, got {_shown(step)}")
    if nums[1] < nums[0]:
        raise ValueError("empty range, B is below A")
    return tuple(range(nums[0], nums[1] + 1, step))


def sweep_point(spec: SweepSpec, k: int, m: int) -> dict[str, object]:
    """Grade the formula for spec.family at (k, m) against the oracle."""
    family = spec.family
    base = build(family, k)
    g = power(base, m)
    res = evaluate_formula(family, k, m)

    # The witness is re-verified inside the oracle's budget: running out
    # there skips the row, as running out in the solve does.
    budget = replace(spec.budget)
    try:
        result = af_via_matchings(g, budget)
        if result.method == "via_matchings" and not is_anti_forcing_set(g, result.witness, budget):
            raise InternalInvariantError(f"unverifiable witness on {family}(k={k})^{m}")
        oracle = result.value
    except BudgetExceededError:
        oracle = None

    if oracle is not None and g.n <= DEFAULT_CROSS_CHECK_N_LIMIT:
        try:
            check = af_subset_search(g, replace(spec.budget))
        except BudgetExceededError:
            check = None
        if check is not None and check.value != oracle:
            raise InternalInvariantError(
                f"oracle disagreement on {family}(k={k})^{m}: "
                f"subset={check.value} matchings={oracle}"
            )

    return _record(family, k, m, base.n, res, oracle)


def run_sweep(spec: SweepSpec, workers: int = 1) -> list[dict[str, object]]:
    """One record per sweep point, in (k, m) iteration order."""
    point = partial(sweep_point, spec)
    points = spec.points()
    if workers <= 1:
        return [point(k, m) for k, m in points]
    # Under fork, the pool starts all its workers at once.
    with ProcessPoolExecutor(max_workers=min(workers, len(points))) as pool:
        return list(pool.map(point, *zip(*points)))


def run_edge_count_audit(
    family: str, k_values: tuple[int, ...], m_values: tuple[int, ...]
) -> list[dict[str, object]]:
    """Grade edge-count formulas against directly counted |E(family(k)^m)|.

    Only rows whose formula is an edge-count claim participate; exact
    and bound rows (even paths and cycles) are outside this audit.
    """
    records: list[dict[str, object]] = []
    for k in _family_ks(family, k_values):
        base = build(family, k)
        for m in m_values:
            res = evaluate_formula(family, k, m)
            if res is not None and res.kind == "edge_count":
                records.append(_record(family, k, m, base.n, res, len(power(base, m).edges)))
    return records


def check_closed_form_consistency(k_max: int = 12) -> list[tuple[str, int, int, Value, Value]]:
    """Compare chain recurrences against their closed-form counterparts.

    Returns every in-range disagreement as (family, k, m, recurrence,
    closed form); an empty list means the algebra is consistent. The
    para odd-m closed form is known to disagree (by 2(m-3) for odd
    m >= 5); those rows are findings this function reports.
    """
    bad: list[tuple[str, int, int, Value, Value]] = []
    for k in range(2, k_max + 1, 2):
        for m in range(3, k + 2):
            rec = af_ortho_power(k, m)
            closed = af_ortho_power_closed_form(k, m)
            if rec.applicability == IN_RANGE and rec.value != closed:
                bad.append(("ortho-chain", k, m, rec.value, closed))
        for m in range(2, 2 * k + 2):
            rec = af_para_power(k, m)
            closed = af_para_power_closed_form(k, m)
            if rec.applicability == IN_RANGE and rec.value != closed:
                bad.append(("para-chain", k, m, rec.value, closed))
    return bad


def emit_report(
    records: list[dict[str, object]],
    fmt: str = "csv",
    path: str | None = None,
) -> str:
    """Serialize report rows as CSV or JSON.

    Both formats write each row's ``COLUMNS`` cells in column order and
    drop any other key. Per-status counts go to stderr in ``STATUSES``
    order; the text is written to ``path`` when given and returned
    either way.
    """
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(COLUMNS)
        writer.writerows([rec[c] for c in COLUMNS] for rec in records)
        text = buf.getvalue()
    elif fmt == "json":
        text = json.dumps([{c: rec[c] for c in COLUMNS} for rec in records], indent=2) + "\n"
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    counts = Counter(rec["status"] for rec in records)
    summary = " ".join(f"{s}={counts[s]}" for s in STATUSES if counts[s])
    print(f"records={len(records)} {summary}".rstrip(), file=sys.stderr)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


DEFAULT_RANGES: dict[str, tuple[tuple[int, ...], tuple[int, ...]]] = {
    "path": (tuple(range(2, 9)), (2, 3)),
    "cycle": (tuple(range(3, 9)), (2, 3)),
    "complete": (tuple(range(2, 7)), (2, 3)),
    "friendship": (tuple(range(1, 5)), (2, 3)),
    "tri-chain": (tuple(range(1, 6)), (2, 3)),
    "ortho-chain": ((2, 4, 6, 8), (2, 3, 4)),
    "para-chain": ((2, 4, 6, 8), (2, 3, 4)),
}


def default_sweep_spec(family: str) -> SweepSpec:
    if family not in DEFAULT_RANGES:
        raise ValueError(f"no default ranges for family {family!r}")
    ks, ms = DEFAULT_RANGES[family]
    return SweepSpec(family=family, k_values=ks, m_values=ms)
