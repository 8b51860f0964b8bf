import json
import time
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import pytest

from antiforce import (
    FAMILIES,
    Budget,
    SweepSpec,
    af_subset_search,
    af_via_matchings,
    check_closed_form_consistency,
    classify_status,
    emit_report,
    evaluate_formula,
    parse_range,
    path,
    power,
    run_edge_count_audit,
    run_sweep,
)
from antiforce.formulas import FORMULAS, IN_RANGE, OUT_OF_RANGE, FormulaResult, af_para_power
from antiforce.harness import (
    COLUMNS,
    DEFAULT_CROSS_CHECK_N_LIMIT,
    STATUSES,
    InternalInvariantError,
    default_sweep_spec,
    format_value,
    sweep_point,
)


def test_column_contract():
    assert tuple(COLUMNS) == (
        "family",
        "k",
        "m",
        "n",
        "formula_value",
        "formula_case",
        "applicability",
        "oracle_value",
        "bound_lower",
        "bound_upper",
        "status",
    )
    assert {c for c, t in COLUMNS.items() if t is not str} == {"k", "m", "n", "oracle_value"}
    assert COLUMNS["oracle_value"] == (int, str)
    assert STATUSES == (
        "MATCH",
        "MISMATCH",
        "WITHIN_BOUNDS",
        "BOUND_VIOLATION",
        "OUT_OF_RANGE",
        "SKIPPED",
    )


def test_format_value():
    assert format_value(3) == "3"
    assert format_value(None) == "n/a"
    assert format_value(Fraction(7, 2)) == "7/2"
    assert format_value(Fraction(8, 2)) == "4"


def _row(**overrides):
    base = dict(
        family="path",
        k=4,
        m=2,
        n=4,
        formula_value="2",
        formula_case="(i)",
        applicability=IN_RANGE,
        oracle_value=1,
        bound_lower="n/a",
        bound_upper="n/a",
        status="MISMATCH",
    )
    base.update(overrides)
    return base


def test_record_row_and_json():
    rows = {
        "sweep": _point("path", 4, 2),
        "skipped": _point("path", 10, 2, budget=Budget(max_nodes=1)),
        "audit": run_edge_count_audit("path", (5,), (2,))[0],
    }
    for name, row in rows.items():
        assert list(row) == list(COLUMNS), name
        for column, kind in COLUMNS.items():
            assert isinstance(row[column], kind), (name, column, row[column])
    assert rows["sweep"] == _row()
    assert rows["skipped"]["status"] == "SKIPPED"
    assert rows["skipped"]["oracle_value"] == "skipped(budget)"
    assert rows["audit"]["oracle_value"] == 7 and rows["audit"]["formula_value"] == "7"


def _claim(value, applicability=IN_RANGE, lower=None, upper=None):
    kind = "bounds" if value is None and (lower, upper) != (None, None) else "exact"
    return FormulaResult(value, kind, "case", applicability, lower, upper)


@pytest.mark.parametrize(
    "kwargs,expected",
    [
        (dict(res=_claim(2, OUT_OF_RANGE), oracle=1), "OUT_OF_RANGE"),
        (dict(res=_claim(2), oracle=None), "SKIPPED"),
        (dict(res=_claim(None, lower=Fraction(3), upper=Fraction(6)), oracle=5), "WITHIN_BOUNDS"),
        (dict(res=_claim(None, lower=Fraction(3), upper=Fraction(6)), oracle=2), "BOUND_VIOLATION"),
        (dict(res=_claim(None, lower=Fraction(3), upper=Fraction(6)), oracle=7), "BOUND_VIOLATION"),
        (dict(res=_claim(None, lower=Fraction(3)), oracle=9), "WITHIN_BOUNDS"),
        (dict(res=_claim(None), oracle=1), "OUT_OF_RANGE"),
        (dict(res=_claim(4), oracle=4), "MATCH"),
        (dict(res=_claim(4), oracle=5), "MISMATCH"),
        # Out-of-range wins over everything, budget loss over bounds.
        (dict(res=_claim(None, OUT_OF_RANGE, Fraction(1), Fraction(2)), oracle=None),
         "OUT_OF_RANGE"),
        (dict(res=_claim(None, IN_RANGE, Fraction(1), Fraction(2)), oracle=None), "SKIPPED"),
        # A family with no closed form is never graded.
        (dict(res=None, oracle=3), "OUT_OF_RANGE"),
    ],
)
def test_classify_status(kwargs, expected):
    assert classify_status(**kwargs) == expected


def test_evaluate_formula_dispatch():
    assert evaluate_formula("path", 6, 2).value == 2
    assert evaluate_formula("complete", 4, 2) is None
    assert evaluate_formula("cycle", 6, 2).lower == Fraction(7, 2)
    assert FORMULAS.keys() == FAMILIES.keys()
    with pytest.raises(ValueError):
        evaluate_formula("nope", 3, 2)


def test_parse_range():
    assert parse_range("4") == (4,)
    assert parse_range("4:10") == (4, 5, 6, 7, 8, 9, 10)
    assert parse_range("4:10:2") == (4, 6, 8, 10)
    assert parse_range("3:3") == (3,)


@pytest.mark.parametrize("text", ["", "4:", ":4", "4:10:0", "10:4", "1:2:3:4"])
def test_parse_range_rejects(text):
    with pytest.raises(ValueError):
        parse_range(text)


def test_sweep_specs_compare_by_their_caps():
    # A Budget's deadline is a clock reading, not part of its value.
    assert default_sweep_spec("path") == default_sweep_spec("path")
    spec = default_sweep_spec("path")
    assert spec != replace(spec, budget=Budget(max_nodes=1000))


def test_sweep_spec_points_filters_odd_k():
    spec = SweepSpec(family="ortho-chain", k_values=(2, 3, 4), m_values=(2,))
    assert spec.points() == [(2, 2), (4, 2)]
    spec = SweepSpec(family="path", k_values=(2, 3), m_values=(2,))
    assert spec.points() == [(2, 2), (3, 2)]
    with pytest.raises(ValueError):
        SweepSpec(family="path", k_values=(), m_values=(2,))
    with pytest.raises(ValueError, match="no points"):
        SweepSpec(family="ortho-chain", k_values=(3, 5), m_values=(2,))
    with pytest.raises(ValueError):
        SweepSpec(family="path", k_values=(2,), m_values=(2,), budget=Budget(max_nodes=0))


def _point(family, k, m, **overrides):
    spec = SweepSpec(family=family, k_values=(k,), m_values=(m,), **overrides)
    return sweep_point(spec, k, m)


def test_sweep_point_path_mismatch():
    rec = _point("path", 4, 2)
    assert rec["status"] == "MISMATCH"
    assert rec["formula_value"] == "2" and rec["oracle_value"] == 1
    assert rec["n"] == 4


def test_sweep_point_cycle_bound_violation():
    rec = _point("cycle", 4, 2)
    assert rec["status"] == "BOUND_VIOLATION"
    assert rec["bound_lower"] == "3" and rec["bound_upper"] == "2"
    assert rec["oracle_value"] == 2


def test_sweep_point_cycle_within_bounds():
    rec = _point("cycle", 6, 2)
    assert rec["status"] == "WITHIN_BOUNDS"
    assert rec["formula_value"] == "n/a"


def test_sweep_point_complete_is_ungraded():
    rec = _point("complete", 4, 2)
    assert rec["status"] == "OUT_OF_RANGE"
    assert rec["formula_value"] == "n/a" and rec["oracle_value"] == 2
    assert rec["formula_case"] == "n/a"


def test_sweep_point_friendship_match():
    rec = _point("friendship", 2, 2)
    assert rec["status"] == "MATCH"
    assert rec["formula_value"] == "10" and rec["oracle_value"] == 10


def test_sweep_point_skips_over_limit():
    # The node budget is the only limit: a row is SKIPPED when it runs out.
    rec = _point("path", 10, 2, budget=Budget(max_nodes=1))
    assert rec["status"] == "SKIPPED"
    assert rec["oracle_value"] == "skipped(budget)"


def test_sweep_point_odd_order_bypasses_limit():
    # Odd n: the convention value needs no search, so no skip.
    rec = _point("friendship", 3, 2, budget=Budget(max_nodes=1))
    assert rec["status"] == "MATCH" and rec["oracle_value"] == 21


def test_oracle_disagreement_raises(monkeypatch):
    monkeypatch.setattr(
        "antiforce.harness.af_subset_search",
        lambda g, budget=None: SimpleNamespace(value=999),
    )
    with pytest.raises(InternalInvariantError):
        _point("cycle", 6, 2)


def test_cross_check_reach(monkeypatch):
    checked = []

    def counted(g, budget=None):
        checked.append(g.n)
        return af_subset_search(g, budget)

    monkeypatch.setattr("antiforce.harness.af_subset_search", counted)
    rows = run_sweep(SweepSpec("path", (8, 10), (2,)))
    assert DEFAULT_CROSS_CHECK_N_LIMIT == 8
    assert [r["n"] for r in rows] == [8, 10]
    assert checked == [8]


def test_unverifiable_witness_raises(monkeypatch):
    monkeypatch.setattr(
        "antiforce.harness.is_anti_forcing_set", lambda g, s, budget=None: False
    )
    with pytest.raises(InternalInvariantError):
        _point("path", 4, 2)


def test_unverifiable_witness_raises_on_every_solved_row(monkeypatch):
    monkeypatch.setattr(
        "antiforce.harness.is_anti_forcing_set", lambda g, s, budget=None: False
    )
    with pytest.raises(InternalInvariantError):
        _point("cycle", 6, 2)  # WITHIN_BOUNDS, not a MISMATCH


def test_recheck_out_of_budget_skips_the_row():
    # P_10^2 has n = 10, past the cross-check, so only the oracle and the
    # re-check of its witness charge the budget. The solve fits exactly;
    # solve plus re-check does not.
    full = Budget()
    value = af_via_matchings(power(path(10), 2), full).value
    row = _point("path", 10, 2, budget=Budget(full.nodes, 60.0))
    assert row["status"] == "SKIPPED" and row["oracle_value"] == "skipped(budget)"
    row = _point("path", 10, 2, budget=Budget(full.nodes + 100, 60.0))
    assert row["status"] != "SKIPPED" and row["oracle_value"] == value


def test_run_sweep_starts_no_more_workers_than_points(monkeypatch):
    # A stand-in pool that runs in process: no worker is started.
    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *args):
            return map(fn, *args)

    monkeypatch.setattr("antiforce.harness.ProcessPoolExecutor", Pool)
    spec = SweepSpec("path", (2, 3), (2,))
    assert run_sweep(spec, workers=10**6) == run_sweep(spec)
    assert sizes == [2]


def test_run_sweep_workers_agree():
    spec = SweepSpec(family="path", k_values=(2, 3, 4), m_values=(2, 3))
    assert run_sweep(spec, workers=1) == run_sweep(spec, workers=2)


def test_edge_count_audit_tri_chain():
    records = run_edge_count_audit("tri-chain", (1, 2, 3), (2, 3))
    in_range = [r for r in records if r["applicability"] == IN_RANGE]
    assert in_range and all(r["status"] == "MATCH" for r in in_range)
    out = [r for r in records if r["applicability"] == OUT_OF_RANGE]
    assert all(r["status"] == "OUT_OF_RANGE" for r in out)


def test_edge_count_audit_skips_odd_k_chains():
    records = run_edge_count_audit("ortho-chain", (3, 4), (2,))
    assert [r["k"] for r in records] == [4]


def test_edge_count_audit_ignores_exact_rows():
    records = run_edge_count_audit("path", (4, 5), (2,))
    assert [r["k"] for r in records] == [5]
    assert records[0]["status"] == "MATCH"


def test_closed_form_consistency_findings():
    start = time.perf_counter()
    findings = check_closed_form_consistency(12)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert not [f for f in findings if f[0] == "ortho-chain"]
    expected = []
    for k in range(2, 13, 2):
        for m in range(5, 2 * k + 2, 2):
            rec = af_para_power(k, m).value
            expected.append(("para-chain", k, m, rec, rec + 2 * (m - 3)))
    assert findings == expected
    assert len(findings) == 36


def test_emit_report_csv(capsys):
    records = [_row(), _row(k=6, oracle_value=2, status="MATCH")]
    text = emit_report(records, fmt="csv")
    lines = text.splitlines()
    assert lines[0] == ",".join(COLUMNS)
    assert len(lines) == 3
    assert text == emit_report(records, fmt="csv")
    err = capsys.readouterr().err
    assert "records=2" in err and "MATCH=1" in err and "MISMATCH=1" in err


def test_emit_report_json(tmp_path):
    records = [_row()]
    out = tmp_path / "r.json"
    text = emit_report(records, fmt="json", path=str(out))
    docs = json.loads(text)
    assert docs[0]["family"] == "path" and docs[0]["k"] == 4
    assert out.read_text() == text
    with pytest.raises(ValueError):
        emit_report(records, fmt="yaml")


def test_golden_check_exits_1_when_stale(tmp_path, monkeypatch, capsys):
    import golden_builders

    monkeypatch.setattr(golden_builders, "GOLDEN_DIR", tmp_path)
    monkeypatch.setattr(golden_builders, "BUILDERS", {"r.csv": lambda: "a\n"})
    assert golden_builders.main([]) == 1
    assert golden_builders.main(["--write"]) == 0
    assert golden_builders.main([]) == 0
    (tmp_path / "r.csv").write_text("b\n")
    assert golden_builders.main([]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "r.csv: STALE"


def test_default_sweep_specs():
    spec = default_sweep_spec("path")
    assert spec.k_values == (2, 3, 4, 5, 6, 7, 8)
    assert spec.m_values == (2, 3)
    spec = default_sweep_spec("ortho-chain")
    assert spec.k_values == (2, 4, 6, 8) and spec.m_values == (2, 3, 4)
    with pytest.raises(ValueError):
        default_sweep_spec("nope")
