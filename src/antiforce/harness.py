"""Verification harness: sweeps formulas against the exact oracles.

Every comparison lands in one report row per (family, k, m): a document
keyed by ``COLUMNS``, built by ``_record`` and serialized by
``emit_report``. A family with no closed form gives OUT_OF_RANGE rows.
Oracle budgets never abort a sweep; they become SKIPPED rows. A witness
failing its re-check in ``solve_verified``, the one owner of re-checks,
or the two independent oracles disagreeing on a value or a witness, does
abort: that is an internal invariant failure, not a finding.

Reports are deterministic byte for byte: fixed column order, fixed row
order, exact rational formatting.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import accumulate
from typing import Callable

from .antiforcing import AntiForcingResult, af_subset_search, af_via_matchings, is_anti_forcing_set
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
from .graph import Graph, _bfs_within, power

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


def solve_verified(g: Graph, route: Callable, budget: Budget) -> AntiForcingResult:
    """route(g, budget), its witness re-checked to leave g exactly one PM, on the same budget.

    Running out in the re-check still leaves the value found as both
    bounds. The no-PM convention's empty witness is not checked.
    """
    result = route(g, budget)
    if result.method != "convention_no_pm":
        try:
            verified = is_anti_forcing_set(g, result.witness, budget)
        except BudgetExceededError as exc:
            exc.lower = exc.upper = result.value
            raise
        if not verified:
            raise InternalInvariantError(f"unverifiable witness from {result.method}")
    return result


def sweep_point(spec: SweepSpec, k: int, m: int) -> dict[str, object]:
    """Grade the formula for spec.family at (k, m) against route two's verified value.

    Up to DEFAULT_CROSS_CHECK_N_LIMIT vertices, route one must give the same value and
    witness, both routes giving the lexicographically smallest, or run out of budget.
    """
    family = spec.family
    base = build(family, k)
    g = power(base, m)
    res = evaluate_formula(family, k, m)

    try:
        result = solve_verified(g, af_via_matchings, replace(spec.budget))
    except BudgetExceededError:
        return _record(family, k, m, base.n, res, None)

    if g.n <= DEFAULT_CROSS_CHECK_N_LIMIT:
        try:
            check = af_subset_search(g, replace(spec.budget))
        except BudgetExceededError:
            check = None
        if check is not None and (check.value, check.witness) != (result.value, result.witness):
            raise InternalInvariantError(
                f"oracle disagreement on {family}(k={k})^{m}: "
                f"subset={check.value} matchings={result.value}"
                + (" with different witnesses" if check.value == result.value else "")
            )

    return _record(family, k, m, base.n, res, result.value)


def run_sweep(spec: SweepSpec, workers: int = 1) -> list[dict[str, object]]:
    """One record per sweep point, in (k, m) iteration order."""
    point = partial(sweep_point, spec)
    points = spec.points()
    # Under fork, the pool starts all its workers at once: no more than points or processors.
    size = min(workers, len(points), os.cpu_count() or 1)
    if size <= 1:
        return [point(k, m) for k, m in points]
    # Imported here, not at the top: it loads multiprocessing, which one worker never needs.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=size) as pool:
        return list(pool.map(point, *zip(*points)))


def run_edge_count_audit(
    family: str, k_values: tuple[int, ...], m_values: tuple[int, ...]
) -> list[dict[str, object]]:
    """Grade edge-count formulas against directly counted |E(family(k)^m)|.

    Only rows whose formula is an edge-count claim participate; exact
    and bound rows (even paths and cycles) are outside this audit. Each
    k's formulas are evaluated first, then one BFS pass over the base
    graph, cut off at the largest graded m (or n - 1, past which no
    pair lies), counts the vertex pairs at each distance: |E(G^m)| is
    the number at distance 1 to m, so no power graph is built.
    """
    records: list[dict[str, object]] = []
    for k in _family_ks(family, k_values):
        base = build(family, k)
        claims = [(m, evaluate_formula(family, k, m)) for m in m_values]
        graded = [(m, res) for m, res in claims if res is not None and res.kind == "edge_count"]
        if not graded:
            continue
        top = min(max(m for m, _ in graded), base.n - 1)
        at = [0] * (top + 1)  # at[d]: vertex pairs at distance d
        for src, reached, dist in _bfs_within(base, top):
            for v in reached:
                if v > src:
                    at[dist[v]] += 1
        within = list(accumulate(at))  # within[d]: pairs at distance 1 to d
        for m, res in graded:
            records.append(_record(family, k, m, base.n, res, within[min(m, top)]))
    return records


def check_closed_form_consistency() -> list[tuple[str, int, int, Value, Value]]:
    """Compare chain recurrences against their closed-form counterparts, k even up to 12.

    Returns every in-range disagreement as (family, k, m, recurrence,
    closed form); an empty list means the algebra is consistent. The
    para odd-m closed form is known to disagree (by 2(m-3) for odd
    m >= 5); those rows are findings this function reports.
    """
    bad: list[tuple[str, int, int, Value, Value]] = []
    for k in range(2, 13, 2):
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


def emit_report(records: list[dict[str, object]], fmt: str = "csv") -> str:
    """Serialize report rows as CSV or JSON text.

    Both formats write each row's ``COLUMNS`` cells in column order and
    drop any other key.
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
