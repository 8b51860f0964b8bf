from fractions import Fraction

import pytest

from antiforce import FormulaResult
from antiforce.formulas import (
    FORMULAS,
    IN_RANGE,
    OUT_OF_RANGE,
    af_cycle_power_bounds,
    af_friendship_power,
    af_ortho_power,
    af_ortho_power_closed_form,
    af_para_power,
    af_para_power_closed_form,
    af_path_power,
    af_triangular_chain_power,
)
from antiforce.graph import MAX_ORDER


def test_formula_result_validation():
    r = FormulaResult(Fraction(4, 2), "exact", "x", IN_RANGE)
    assert r.value == 2 and isinstance(r.value, int)
    with pytest.raises(ValueError):
        FormulaResult(1, "bogus", "x", IN_RANGE)
    with pytest.raises(ValueError):
        FormulaResult(1, "exact", "x", "sometimes")


@pytest.mark.parametrize(
    "k,m,value,case",
    [
        (4, 2, 2, "(i)"),      # k = 2m
        (2, 2, 0, "(i)"),      # k = 2m - 2
        (6, 3, 6, "(i)"),      # k = 2m
        (4, 3, 2, "(i)"),      # k = 2m - 2
        (4, 4, 2, "(ii)"),     # correction sum 2m-k-2i for i=1
        (2, 3, 0, "(ii)"),     # negative main term plus correction
        (6, 5, 6, "(ii)"),
        (8, 2, 4, "(iii)"),    # two full blocks
        (6, 2, 2, "(iii)"),    # one block, remainder 2 recurses to 0
        (10, 2, 4, "(iii)"),
        (12, 3, 12, "(iii)"),
    ],
)
def test_path_even_cases(k, m, value, case):
    res = af_path_power(k, m)
    assert res.value == value and res.case == case
    assert res.kind == "exact" and res.applicability == IN_RANGE


def test_path_block_peeling():
    for k in (8, 10, 12, 14, 16):
        for m in (2, 3):
            if k <= 2 * m:
                continue
            whole = af_path_power(k, m).value
            rest = k - 2 * m
            tail = af_path_power(rest, m).value if rest else 0
            assert whole == m * (m - 1) + tail


def test_path_m1_and_odd():
    assert af_path_power(6, 1) == FormulaResult(0, "exact", "m=1", IN_RANGE)
    assert af_path_power(5, 1) == FormulaResult(4, "edge_count", "m=1", IN_RANGE)
    res = af_path_power(7, 2)
    assert res.value == 2 * 7 - 3 and res.kind == "edge_count" and res.case == "odd"
    res = af_path_power(5, 4)
    assert res.value == 10 and res.case == "odd-complete"


def test_path_validation():
    with pytest.raises(ValueError):
        af_path_power(0, 2)
    with pytest.raises(ValueError):
        af_path_power(4, 0)


def _bounds(lower, upper):
    return FormulaResult(None, "bounds", "bounds", IN_RANGE, lower, upper)


def test_cycle_even_bounds():
    res = af_cycle_power_bounds(6, 2)
    assert res == _bounds(Fraction(7, 2), Fraction(6))
    res = af_cycle_power_bounds(10, 3)
    assert res == _bounds(Fraction(9, 2), Fraction(20))
    # The k = 4 pair is inverted: lower 3 exceeds upper 2.
    res = af_cycle_power_bounds(4, 2)
    assert res == _bounds(Fraction(3), Fraction(2))
    assert res.lower > res.upper


def test_cycle_bounds_ordered_from_six():
    for k in range(6, 40, 2):
        for m in (2, 3, 4):
            res = af_cycle_power_bounds(k, m)
            assert res.kind == "bounds" and res.value is None
            assert res.lower <= res.upper


def test_cycle_exact_cases():
    assert af_cycle_power_bounds(6, 1) == FormulaResult(1, "exact", "m=1", IN_RANGE)
    res = af_cycle_power_bounds(7, 2)
    assert res == FormulaResult(14, "edge_count", "odd", IN_RANGE)
    res = af_cycle_power_bounds(5, 2)
    assert res.value == 10 and res.case == "odd-complete"
    res = af_cycle_power_bounds(5, 1)
    assert res.value == 5 and res.case == "m=1"
    with pytest.raises(ValueError):
        af_cycle_power_bounds(2, 1)


def test_friendship():
    assert af_friendship_power(3, 1).value == 9
    for m in (2, 3, 7):
        res = af_friendship_power(3, m)
        assert res.value == 21 and res.case == "complete"
        assert res.kind == "edge_count"
    assert af_friendship_power(1, 2).value == 3
    assert af_friendship_power(4, 2).value == 36


def test_triangular_chain():
    assert af_triangular_chain_power(3, 2).value == 17
    assert af_triangular_chain_power(5, 1).value == 15
    res = af_triangular_chain_power(4, 4)
    assert res.value == 4 * 4 * 4 - 4 - 2 * 16 + 8 and res.applicability == IN_RANGE
    out = af_triangular_chain_power(2, 3)
    assert out.applicability == OUT_OF_RANGE
    assert "complete: 10 edges" in out.case


def test_ortho_recurrence():
    assert af_ortho_power(4, 2).value == 36
    assert af_ortho_power(4, 3).value == 56
    assert af_ortho_power(6, 4).value == 125  # 92 + 9*(6-4) + 15
    assert af_ortho_power(6, 4).case == "recurrence"
    assert af_ortho_power(2, 1).value == 8
    assert af_ortho_power(4, 5).applicability == IN_RANGE  # m = k + 1
    assert af_ortho_power(4, 6).applicability == OUT_OF_RANGE
    with pytest.raises(ValueError):
        af_ortho_power(3, 2)


def test_ortho_closed_form_solves_recurrence():
    for k in (2, 4, 6, 8, 10):
        for m in range(3, k + 2):
            assert af_ortho_power_closed_form(k, m) == af_ortho_power(k, m).value
    assert af_ortho_power_closed_form(6, 4) == 125
    with pytest.raises(ValueError):
        af_ortho_power_closed_form(4, 2)


def test_para_recurrence():
    assert af_para_power(4, 2).value == 36
    assert af_para_power(4, 3).value == 48   # +4*(4-1)
    assert af_para_power(4, 4).value == 59   # +5*(4-2)+1
    assert af_para_power(4, 5).value == 67   # +4*(4-2)
    assert af_para_power(2, 1).value == 8
    assert af_para_power(2, 5).applicability == IN_RANGE  # floor(5/2) = 2 = k
    assert af_para_power(2, 6).applicability == OUT_OF_RANGE
    with pytest.raises(ValueError):
        af_para_power(5, 2)


def test_para_closed_form_even_solves_recurrence():
    for k in (2, 4, 6, 8, 10):
        for m in range(2, 2 * k + 1, 2):
            assert af_para_power_closed_form(k, m) == af_para_power(k, m).value


def test_para_closed_form_odd_disagrees_from_five():
    """The odd-m closed form is off by 2(m-3) against the recurrence.

    Kept verbatim as an audited claim; the gap is the documented finding.
    """
    for k in (2, 4, 6, 8):
        for m in range(3, 2 * k + 2, 2):
            closed = af_para_power_closed_form(k, m)
            rec = af_para_power(k, m).value
            assert closed - rec == 2 * (m - 3)
    assert af_para_power_closed_form(4, 3) == 48      # m = 3 agrees
    assert af_para_power_closed_form(4, 5) == 71      # recurrence gives 67
    with pytest.raises(ValueError):
        af_para_power_closed_form(2, 1)


def test_closed_forms_are_integral_in_range():
    for k in (2, 4, 6, 8, 10, 12):
        for m in range(3, k + 2):
            assert isinstance(af_ortho_power_closed_form(k, m), int)
        for m in range(2, 2 * k + 2):
            assert isinstance(af_para_power_closed_form(k, m), int)


def test_chain_families_reject_bad_k():
    for fn in (af_ortho_power, af_para_power):
        with pytest.raises(ValueError):
            fn(1, 2)
        with pytest.raises(ValueError):
            fn(4, 0)



@pytest.mark.parametrize(
    "evaluate",
    [fn for fn in FORMULAS.values() if fn is not None]
    + [af_ortho_power_closed_form, af_para_power_closed_form],
)
def test_exponent_stops_at_max_order(evaluate):
    # The recurrences step up to m, and every m >= n - 1 gives the
    # complete graph on at most MAX_ORDER vertices, so a larger m is
    # refused before any stepping.
    evaluate(4, MAX_ORDER)
    for m in (MAX_ORDER + 1, 10**9):
        with pytest.raises(ValueError, match=f"m must be an integer from 1 to {MAX_ORDER}"):
            evaluate(4, m)
