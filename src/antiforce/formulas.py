"""Closed-form anti-forcing values and bounds for the graph families.

Each evaluator returns the literal formula value as a claim to be
audited, never a value corrected to match an oracle. Values carry a
kind tag:

- "exact": a genuine anti-forcing computation for a graph with perfect
  matchings (even paths and cycles).
- "edge_count": the no-perfect-matching convention af = |E| evaluated in
  closed form (odd paths/cycles and the odd-order chain families).
- "bounds": even cycle powers, whose value is None and whose claim is
  the interval from ``lower`` to ``upper``.

Rational arithmetic is exact throughout; a non-integral value is
reported as a Fraction, not rounded.

Applicability marks whether the parameters sit inside the derivation's
range; out-of-range values are still computed for reporting but are
excluded from pass/fail grading by the harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .graph import MAX_ORDER, _is_int, _shown

KINDS = ("exact", "edge_count", "bounds")
IN_RANGE = "in_range"
OUT_OF_RANGE = "out_of_range"

Value = int | Fraction


def _intify(x: Value) -> Value:
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


@dataclass(frozen=True)
class FormulaResult:
    value: Value | None
    kind: str
    case: str
    applicability: str
    lower: Fraction | None = None
    upper: Fraction | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.applicability not in (IN_RANGE, OUT_OF_RANGE):
            raise ValueError(f"unknown applicability {self.applicability!r}")
        object.__setattr__(self, "value", _intify(self.value))


def _check_km(k: int, m: int, k_min: int) -> None:
    if not _is_int(k) or k < k_min:
        raise ValueError(f"k must be an integer >= {k_min}, got {_shown(k)}")
    # The recurrences step up to m. Every m >= n - 1 gives the complete
    # graph, and no graph has more than MAX_ORDER vertices.
    if not _is_int(m) or not 1 <= m <= MAX_ORDER:
        raise ValueError(f"m must be an integer from 1 to {MAX_ORDER}, got {_shown(m)}")


def af_path_power(k: int, m: int) -> FormulaResult:
    """Anti-forcing value claimed for the m-th power of the k-vertex path.

    Even k dispatches on how 2m compares with k: case (i) when k = 2m or
    k = 2m - 2, case (ii) for shorter paths (a correction sum appears),
    case (iii) peels floor(k/2m) full blocks of m(m-1) and recurses on
    the remainder. Odd k has no perfect matching, so the value is the
    edge count of the power.
    """
    _check_km(k, m, 1)
    if m == 1:
        if k % 2 == 0:
            return FormulaResult(0, "exact", "m=1", IN_RANGE)
        return FormulaResult(k - 1, "edge_count", "m=1", IN_RANGE)
    if k % 2:
        if m < k - 1:
            return FormulaResult(m * k - m * (m + 1) // 2, "edge_count", "odd", IN_RANGE)
        return FormulaResult(k * (k - 1) // 2, "edge_count", "odd-complete", IN_RANGE)
    if k > 2 * m:
        blocks = k // (2 * m)
        rest = k - 2 * m * blocks
        tail = af_path_power(rest, m).value if rest else 0
        return FormulaResult(blocks * m * (m - 1) + tail, "exact", "(iii)", IN_RANGE)
    if k == 2 * m or 2 * m - k - 1 < 2:
        return FormulaResult((k - m) * (m - 1), "exact", "(i)", IN_RANGE)
    correction = sum(2 * m - k - 2 * i for i in range(1, (2 * m - k - 1) // 2 + 1))
    return FormulaResult((k - m) * (m - 1) + correction, "exact", "(ii)", IN_RANGE)


def af_cycle_power_bounds(k: int, m: int) -> FormulaResult:
    """Bounds for even cycle powers, exact values elsewhere.

    Even k, m >= 2: (k+8)/4 <= af <= k(k-2)/4, a result of kind
    "bounds". Even k, m = 1: exactly 1 (deleting any edge leaves a path
    with a unique perfect matching). Odd k never has a perfect matching,
    so the value is the edge count: mk while the power is not complete,
    k*floor(k/2) once it is.
    """
    _check_km(k, m, 3)
    if k % 2:
        case = "m=1" if m == 1 else "odd" if m < k // 2 else "odd-complete"
        value = m * k if m < k // 2 else k * (k // 2)
        return FormulaResult(value, "edge_count", case, IN_RANGE)
    if m == 1:
        return FormulaResult(1, "exact", "m=1", IN_RANGE)
    return FormulaResult(
        None, "bounds", "bounds", IN_RANGE, Fraction(k + 8, 4), Fraction(k * (k - 2), 4)
    )


def af_friendship_power(k: int, m: int) -> FormulaResult:
    """2k^2 + k for m >= 2: the power is complete on 2k+1 vertices."""
    _check_km(k, m, 1)
    if m == 1:
        return FormulaResult(3 * k, "edge_count", "m=1", IN_RANGE)
    return FormulaResult(2 * k * k + k, "edge_count", "complete", IN_RANGE)


def af_triangular_chain_power(k: int, m: int) -> FormulaResult:
    """4km - k - 2m^2 + 2m for 2 <= m <= k.

    Out of range (m > k) the literal value no longer counts the power's
    edges; it is still returned for reporting, with the true complete
    edge count quoted in the case label.
    """
    _check_km(k, m, 1)
    if m == 1:
        return FormulaResult(3 * k, "edge_count", "m=1", IN_RANGE)
    value = 4 * k * m - k - 2 * m * m + 2 * m
    if m <= k:
        return FormulaResult(value, "edge_count", "distance-sum", IN_RANGE)
    complete_edges = (2 * k + 1) * k
    case = f"m>k (complete: {complete_edges} edges)"
    return FormulaResult(value, "edge_count", case, OUT_OF_RANGE)


def _require_even_k(k: int, family: str) -> None:
    if k % 2:
        raise ValueError(f"{family} formula needs even k, got {_shown(k)}")


def af_ortho_power(k: int, m: int) -> FormulaResult:
    """Recurrence for ortho square chains, even k only.

    Bases 10k-4 (m=2) and 18k-16 (m=3); each further power adds
    9(k-m)+15, the number of vertex pairs at distance exactly m. The
    pair counts stay non-negative iff m <= k+1, which bounds the
    in-range domain.
    """
    _check_km(k, m, 2)
    _require_even_k(k, "ortho-chain")
    if m == 1:
        return FormulaResult(4 * k, "edge_count", "m=1", IN_RANGE)
    value = 10 * k - 4 if m == 2 else 18 * k - 16 + sum(9 * (k - j) + 15 for j in range(4, m + 1))
    case = "base(m=2)" if m == 2 else "base(m=3)" if m == 3 else "recurrence"
    applicability = IN_RANGE if m <= k + 1 else OUT_OF_RANGE
    return FormulaResult(value, "edge_count", case, applicability)


def af_ortho_power_closed_form(k: int, m: int) -> Value:
    """9k(m-1) - ((m-3)/2)(9m+6) - 16, the solved recurrence (m >= 3)."""
    _check_km(k, m, 2)
    _require_even_k(k, "ortho-chain")
    if m < 3:
        raise ValueError(f"closed form applies for m >= 3, got {m}")
    return _intify(
        9 * k * (m - 1) - Fraction(m - 3, 2) * (9 * m + 6) - 16
    )


def af_para_power(k: int, m: int) -> FormulaResult:
    """Recurrence for para square chains, even k only.

    Base 10k-4 (m=2); stepping to an odd power adds 4(k - floor(m/2)),
    stepping to an even power m >= 4 adds 5(k - m/2) + 1. In range while
    floor(m/2) <= k.
    """
    _check_km(k, m, 2)
    _require_even_k(k, "para-chain")
    if m == 1:
        return FormulaResult(4 * k, "edge_count", "m=1", IN_RANGE)
    value = 10 * k - 4
    for j in range(3, m + 1):
        if j % 2:
            value += 4 * (k - j // 2)
        else:
            value += 5 * (k - j // 2) + 1
    case = "base(m=2)" if m == 2 else "odd-step" if m % 2 else "even-step"
    applicability = IN_RANGE if m // 2 <= k else OUT_OF_RANGE
    return FormulaResult(value, "edge_count", case, applicability)


def af_para_power_closed_form(k: int, m: int) -> Value:
    """Closed-form counterparts of af_para_power, one per parity of m.

    Audited claims, kept verbatim: the even branch (m >= 2) solves the
    recurrence, but the odd branch (m >= 3) exceeds the recurrence value
    by 2(m-3) for every odd m >= 5. That disagreement is a reportable
    finding surfaced by check_closed_form_consistency, not an error to
    patch here.
    """
    _check_km(k, m, 2)
    _require_even_k(k, "para-chain")
    if m % 2 == 0:
        return _intify(
            Fraction(9 * m + 2, 2) * k - Fraction(m - 2, 8) * (9 * m + 16) - 4
        )
    if m < 3:
        raise ValueError(f"odd closed form applies for m >= 3, got {m}")
    return _intify(
        Fraction(9 * m + 1, 2) * k - Fraction(m - 1, 8) * (9 * m - 11) - 4
    )


# Each family's evaluator, keyed like families.FAMILIES; None where the
# paper gives no closed form.
FORMULAS: dict[str, Callable[[int, int], FormulaResult] | None] = {
    "path": af_path_power,
    "cycle": af_cycle_power_bounds,
    "complete": None,
    "friendship": af_friendship_power,
    "tri-chain": af_triangular_chain_power,
    "ortho-chain": af_ortho_power,
    "para-chain": af_para_power,
}


def evaluate_formula(family: str, k: int, m: int) -> FormulaResult | None:
    """The family's closed form at (k, m); None when no formula exists."""
    if family not in FORMULAS:
        raise ValueError(f"unknown family {family!r}")
    evaluator = FORMULAS[family]
    return None if evaluator is None else evaluator(k, m)
