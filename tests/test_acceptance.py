"""Acceptance gate: one test per criterion.

Run `pytest -v tests/test_acceptance.py` to get a pass/fail line per
criterion.  Criterion 1 dominates the runtime (both solvers over the
small-graph atlas plus every family instance with n <= 12, each
solved witness compared against tests/goldens/criterion1_witnesses.json);
the whole module finishes in about 3 s on a 2-core Xeon.
"""

import csv
import io
import math
import random
import time

import networkx as nx

from antiforce import (
    BudgetExceededError,
    SweepSpec,
    af_of_matching,
    af_para_power,
    af_subset_search,
    af_via_matchings,
    build,
    check_closed_form_consistency,
    complete,
    cycle,
    edge,
    enumerate_perfect_matchings,
    has_perfect_matching,
    is_anti_forcing_set,
    ortho_square_chain,
    para_square_chain,
    path,
    power,
    run_sweep,
)
from antiforce import FAMILIES
from antiforce.harness import default_sweep_spec, emit_report
from conftest import connected_atlas, graph_to_nx, random_connected_graph
from criterion1_witnesses import (
    family_instances,
    instance_budget,
    instance_name,
    load_pin,
    pin_entry,
)
from golden_builders import BUILDERS, GOLDEN_DIR


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def test_criterion_01_oracle_cross_equivalence():
    start = time.perf_counter()

    atlas = connected_atlas()
    assert len(atlas) == 996
    for g in atlas:
        a = af_subset_search(g)
        b = af_via_matchings(g)
        assert a.value == b.value, f"atlas disagreement on n={g.n} {sorted(g.edges)}"
        assert a.witness == b.witness, f"witnesses differ on n={g.n} {sorted(g.edges)}"
        if has_perfect_matching(g):
            assert is_anti_forcing_set(g, a.witness)
            assert is_anti_forcing_set(g, b.witness)

    # Pinned value and sorted witness of every instance solved in budget;
    # an instance that exhausts its budget here is not compared.
    pin = load_pin()
    instances = family_instances()
    solved = skipped = crossed = cross_skipped = 0
    for fam, k, m, g in instances:
        try:
            b = af_via_matchings(g, instance_budget())
        except BudgetExceededError:
            skipped += 1
            continue
        solved += 1
        name = instance_name(fam, k, m)
        assert pin.get(name) == pin_entry(b.value, b.witness), name
        if has_perfect_matching(g):
            assert is_anti_forcing_set(g, b.witness), (fam, k, m)
        if g.n <= 8:
            try:
                a = af_subset_search(g, instance_budget())
            except BudgetExceededError:
                cross_skipped += 1
                continue
            crossed += 1
            assert a.value == b.value, (fam, k, m, a.value, b.value)
            assert a.witness == b.witness, f"witnesses differ on {name}"

    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    assert solved >= 90 and cross_skipped == 0
    print(
        f"criterion 1: atlas=996 instances={len(instances)} solved={solved} "
        f"skipped(budget)={skipped} cross_checked={crossed} "
        f"cross_skipped(budget)={cross_skipped} elapsed={elapsed:.1f}s"
    )


def test_criterion_02_exact_spot_values():
    cases = [
        (path(6), 0),
        (cycle(6), 1),
        (cycle(8), 1),
        (complete(4), 2),
        (power(path(4), 2), 1),
    ]
    for g, want in cases:
        for solver in (af_subset_search, af_via_matchings):
            res = solver(g)
            assert res.value == want, (g.n, solver.__name__, res.value, want)
            assert is_anti_forcing_set(g, res.witness)
    print(f"criterion 2: {len(cases)} spot values x 2 solvers, witnesses verified")


def test_criterion_03_no_pm_convention():
    spec = SweepSpec(family="friendship", k_values=(1, 2, 3, 4), m_values=(2, 3, 4, 5))
    records = run_sweep(spec)
    assert len(records) == 16
    for r in records:
        assert r["status"] == "MATCH", (r["k"], r["m"], r["status"])
        assert r["oracle_value"] == 2 * r["k"] * r["k"] + r["k"]
        assert r["formula_value"] == str(r["oracle_value"])
    print("criterion 3: 16/16 friendship rows MATCH with value 2k^2+k")


def test_criterion_04_edge_count_audits():
    audits = {name: fn for name, fn in BUILDERS.items() if name.endswith("_audit.csv")}
    assert len(audits) == 5
    total = 0
    for name, builder in sorted(audits.items()):
        text = builder()
        assert text == (GOLDEN_DIR / name).read_text(), f"stale golden {name}"
        rows = _rows(text)
        total += len(rows)
        for r in rows:
            assert r["applicability"] == "in_range"
            assert r["status"] == "MATCH", (name, r)
            assert r["formula_value"] == r["oracle_value"]
    assert total == 152
    print(f"criterion 4: {total} audit rows over 5 reports, all in-range rows MATCH")


def test_criterion_05_expected_findings_goldens():
    path_text = BUILDERS["path_sweep.csv"]()
    assert path_text == (GOLDEN_DIR / "path_sweep.csv").read_text()
    by_km = {(r["k"], r["m"]): r for r in _rows(path_text)}
    r42 = by_km[("4", "2")]
    assert r42["status"] == "MISMATCH"
    assert r42["formula_value"] == "2" and r42["oracle_value"] == "1"
    assert by_km[("4", "3")]["status"] == "MATCH"

    cycle_text = BUILDERS["cycle_sweep.csv"]()
    assert cycle_text == (GOLDEN_DIR / "cycle_sweep.csv").read_text()
    rows = {r["k"]: r for r in _rows(cycle_text)}
    r4 = rows["4"]
    assert r4["status"] == "BOUND_VIOLATION"
    assert r4["oracle_value"] == "2"
    assert r4["bound_lower"] == "3" and r4["bound_upper"] == "2"
    for k in ("6", "8", "10"):
        assert rows[k]["status"] == "WITHIN_BOUNDS"
    mismatches = sum(r["status"] == "MISMATCH" for r in _rows(path_text))
    print(
        f"criterion 5: goldens reproduced; path sweep carries {mismatches} "
        "MISMATCH findings, cycle sweep flags the k=4 bound violation"
    )


def test_criterion_06_recurrence_vs_closed_forms():
    start = time.perf_counter()
    findings = check_closed_form_consistency()
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert not [f for f in findings if f[0] == "ortho-chain"]
    expected = []
    for k in range(2, 13, 2):
        for m in range(5, 2 * k + 2, 2):
            rec = af_para_power(k, m).value
            expected.append(("para-chain", k, m, rec, rec + 2 * (m - 3)))
    assert findings == expected
    print(
        f"criterion 6: ortho forms agree everywhere; para odd-m closed form "
        f"reported as {len(findings)} finding rows (offset 2(m-3)) in {elapsed:.3f}s"
    )


def test_criterion_07_sandwich_inequality():
    checked = 0
    for g in connected_atlas():
        if g.n % 2:
            continue
        delta = max(map(len, g.incident_edges), default=0)
        for m in enumerate_perfect_matchings(g):
            analysis = af_of_matching(g, m)
            f = analysis.f_of_m
            # f = 0 forces af = 0 through the upper bound.
            assert f <= analysis.af_of_m <= (delta - 1) * f
            checked += 1
    k4 = complete(4)
    for m in enumerate_perfect_matchings(k4):
        analysis = af_of_matching(k4, m)
        assert analysis.f_of_m == 1
        assert analysis.af_of_m == 2 == (max(map(len, k4.incident_edges)) - 1) * analysis.f_of_m
    assert checked > 200
    print(f"criterion 7: sandwich held on {checked} matchings, tight at complete(4)")


def test_criterion_08_power_law_properties():
    rng = random.Random(424117)
    for _ in range(500):
        n = rng.randint(1, 12)
        g = random_connected_graph(rng, n)
        h = power(g, max(nx.diameter(graph_to_nx(g)), 1))
        assert len(h.edges) == h.n * (h.n - 1) // 2
        a, b = rng.randint(2, 3), rng.randint(2, 3)
        assert power(power(g, a), b).edges == power(g, a * b).edges
        j = rng.randint(2, 4)
        base = dict(nx.all_pairs_shortest_path_length(graph_to_nx(g)))
        quot = dict(nx.all_pairs_shortest_path_length(graph_to_nx(power(g, j))))
        for u in range(g.n):
            for v in range(u + 1, g.n):
                assert quot[u][v] == math.ceil(base[u][v] / j)
    print("criterion 8: 500 seeded connected graphs passed all three power laws")


def _pairs_at_distance(g, dist, m):
    return {
        edge(u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if dist[u][v] == m
    }


def test_criterion_09_chain_distance_patterns():
    k = 8
    g = ortho_square_chain(k)
    idx = {lab: i for i, lab in enumerate(g.labels)}
    dist = dict(nx.all_pairs_shortest_path_length(graph_to_nx(g)))
    for m in range(4, k + 2):
        cases = [
            ("x", "x", m - 2, k - m + 2),
            ("x", "y", m - 1, k - m + 2),
            ("x", "z", m - 3, k - m + 3),
            ("y", "x", m - 1, k - m + 1),
            ("y", "y", m, k - m + 1),
            ("y", "z", m - 2, k - m + 2),
            ("z", "x", m - 1, k - m + 1),
            ("z", "y", m, k - m + 1),
            ("z", "z", m - 2, k - m + 2),
        ]
        found = set()
        for a, b, shift, count in cases:
            for i in range(1, count + 1):
                u, v = idx[f"{a}{i}"], idx[f"{b}{i + shift}"]
                assert dist[u][v] == m, ("ortho", m, a, i, b, i + shift)
                found.add(edge(u, v))
        assert len(found) == 9 * (k - m) + 15
        assert found == _pairs_at_distance(g, dist, m)

    g = para_square_chain(k)
    idx = {lab: i for i, lab in enumerate(g.labels)}
    dist = dict(nx.all_pairs_shortest_path_length(graph_to_nx(g)))
    for m in range(3, 2 * k + 2):
        s = m // 2
        if m % 2 == 0:
            if m < 4:
                continue
            cases = [
                ("x", "x", s, k - s),
                ("x", "z", s, k - s),
                ("y", "y", s, k - s + 1),
                ("z", "x", s, k - s),
                ("z", "z", s, k - s),
            ]
            aggregate = 5 * (k - s) + 1
        else:
            cases = [
                ("x", "y", s + 1, k - s),
                ("y", "x", s, k - s),
                ("y", "z", s, k - s),
                ("z", "y", s + 1, k - s),
            ]
            aggregate = 4 * (k - s)
        found = set()
        for a, b, shift, count in cases:
            for i in range(1, count + 1):
                u, v = idx[f"{a}{i}"], idx[f"{b}{i + shift}"]
                assert dist[u][v] == m, ("para", m, a, i, b, i + shift)
                found.add(edge(u, v))
        assert len(found) == aggregate
        assert found == _pairs_at_distance(g, dist, m)
    print("criterion 9: nine ortho and nine para distance cases exhaust k=8 exactly")


def test_criterion_10_report_determinism():
    outputs = []
    for _ in range(2):
        chunks = []
        for fam in FAMILIES:
            records = run_sweep(default_sweep_spec(fam))
            chunks.append(emit_report(records, "csv"))
        outputs.append("".join(chunks))
    assert outputs[0] == outputs[1]
    print("criterion 10: two full default sweeps byte-identical")
