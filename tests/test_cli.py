import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import antiforce.harness as harness
from antiforce import (
    AntiForcingResult,
    Budget,
    af_subset_search,
    af_via_matchings,
    power,
    to_json,
)
from antiforce.cli import main
from antiforce.families import complete, cycle, ortho_square_chain, path
from antiforce.graph import MAX_ORDER
from antiforce.harness import COLUMNS, InternalInvariantError
from conftest import complete_joined_to_star


def run_cli(argv, stdin_text="", monkeypatch=None, capsys=None):
    if monkeypatch is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    rc = main(argv)
    out, err = capsys.readouterr()
    return rc, out, err


def test_gen_path(capsys):
    rc = main(["gen", "path", "--k", "4"])
    out, _ = capsys.readouterr()
    doc = json.loads(out)
    assert rc == 0
    assert doc["n"] == 4 and len(doc["edges"]) == 3
    assert doc["labels"]["0"] == "v1"


def test_gen_rejects(capsys):
    assert main(["gen", "nope", "--k", "4"]) == 1
    capsys.readouterr()
    assert main(["gen", "path", "--k", "0"]) == 1
    err = capsys.readouterr().err
    assert "k >= 1" in err


def test_power_reads_stdin(monkeypatch, capsys):
    rc, out, _ = run_cli(
        ["power", "--m", "2"], to_json(path(4)), monkeypatch, capsys
    )
    assert rc == 0
    assert json.loads(out)["edges"] == [[0, 1], [0, 2], [1, 2], [1, 3], [2, 3]]


def test_power_accepts_edgelist(monkeypatch, capsys):
    rc, out, _ = run_cli(["power", "--m", "2"], "3 2\n0 1\n1 2\n", monkeypatch, capsys)
    assert rc == 0 and json.loads(out)["n"] == 3


def test_empty_stdin_fails(monkeypatch, capsys):
    rc, _, err = run_cli(["power", "--m", "2"], "", monkeypatch, capsys)
    assert rc == 1 and "stdin" in err


def test_pm_listing(monkeypatch, capsys):
    rc, out, _ = run_cli(["pm"], to_json(cycle(6)), monkeypatch, capsys)
    assert rc == 0
    matchings = json.loads(out)["matchings"]
    assert len(matchings) == 2
    assert matchings[0] == [[0, 1], [2, 3], [4, 5]]


def test_pm_count_unique_cap(monkeypatch, capsys):
    rc, out, _ = run_cli(["pm", "--count"], to_json(cycle(6)), monkeypatch, capsys)
    assert rc == 0 and json.loads(out) == {"count": 2}
    rc, out, _ = run_cli(["pm", "--unique"], to_json(path(4)), monkeypatch, capsys)
    assert rc == 0 and json.loads(out) == {"unique": True}
    rc, out, _ = run_cli(["pm", "--cap", "1"], to_json(cycle(6)), monkeypatch, capsys)
    assert rc == 0 and len(json.loads(out)["matchings"]) == 1
    rc, _, err = run_cli(
        ["pm", "--count", "--cap", "1"], to_json(cycle(6)), monkeypatch, capsys
    )
    assert rc == 1 and "cap" in err


@pytest.mark.parametrize("g", [cycle(6), path(3)])
def test_pm_cap_zero_exits_1_with_or_without_a_perfect_matching(g, monkeypatch, capsys):
    rc, out, err = run_cli(["pm", "--cap", "0"], to_json(g), monkeypatch, capsys)
    assert rc == 1 and out == ""
    assert err == "antiforce: cap must be a positive integer or None\n"


def test_pm_count_does_not_list_matchings(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise AssertionError("pm --count built the matching list")

    monkeypatch.setattr("antiforce.cli.enumerate_perfect_matchings", boom)
    rc, out, _ = run_cli(["pm", "--count"], to_json(complete(8)), monkeypatch, capsys)
    assert rc == 0 and json.loads(out) == {"count": 105}


@pytest.mark.parametrize("mode", ["--count", "--unique"])
def test_pm_cap_rejected_with_count_or_unique(mode, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise AssertionError("pm enumerated before rejecting --cap")

    monkeypatch.setattr("antiforce.cli.enumerate_perfect_matchings", boom)
    monkeypatch.setattr("antiforce.cli.count_pms_excluding", boom)
    rc, out, err = run_cli(
        ["pm", mode, "--cap", "1"], to_json(complete(8)), monkeypatch, capsys
    )
    assert rc == 1 and out == "" and "cap" in err


@pytest.mark.parametrize("flags", [[], ["--count"], ["--unique"], ["--cap", "2"]])
def test_pm_budget_exhaustion_exit_2(flags, monkeypatch, capsys):
    g = complete_joined_to_star(14)
    rc, out, err = run_cli(["pm", *flags, "--budget", "100"], to_json(g), monkeypatch, capsys)
    assert rc == 2 and out == ""
    assert err == "antiforce: budget exhausted\n"


def test_pm_mutually_exclusive_flags(monkeypatch, capsys):
    rc, _, _ = run_cli(
        ["pm", "--count", "--unique"], to_json(cycle(6)), monkeypatch, capsys
    )
    assert rc == 1


def test_af_subset(monkeypatch, capsys):
    rc, out, _ = run_cli(
        ["af", "--method", "subset"], to_json(path(6)), monkeypatch, capsys
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc == {"value": 0, "witness": [], "method": "subset_search"}


def test_af_default_method(monkeypatch, capsys):
    rc, out, _ = run_cli(["af"], to_json(complete(4)), monkeypatch, capsys)
    doc = json.loads(out)
    assert rc == 0 and doc["value"] == 2 and doc["method"] == "via_matchings"


def test_af_convention(monkeypatch, capsys):
    rc, out, _ = run_cli(["af"], to_json(path(5)), monkeypatch, capsys)
    doc = json.loads(out)
    assert doc["value"] == 4 and doc["method"] == "convention_no_pm"


@pytest.mark.parametrize("method", ["matchings", "subset"])
def test_af_unverifiable_witness_exits_3(method, monkeypatch, capsys):
    # C_6 keeps two perfect matchings, so the empty set is no witness.
    def wrong(g, budget):
        return AntiForcingResult(0, frozenset(), "via_matchings")

    solver = "af_via_matchings" if method == "matchings" else "af_subset_search"
    monkeypatch.setattr(f"antiforce.cli.{solver}", wrong)
    rc, out, err = run_cli(["af", "--method", method], to_json(cycle(6)), monkeypatch, capsys)
    assert rc == 3 and out == ""
    assert err == "antiforce: internal invariant failure: unverifiable witness from via_matchings\n"


@pytest.mark.parametrize("method", ["matchings", "subset"])
def test_af_recheck_out_of_budget_exits_2_with_the_value(method, monkeypatch, capsys):
    # The solve fits in its budget exactly; re-verifying its witness, which
    # charges the same budget, does not.
    g = cycle(6)
    solve = af_via_matchings if method == "matchings" else af_subset_search
    full = Budget()
    value = solve(g, full).value
    argv = ["af", "--method", method, "--budget", f"{full.nodes}:60"]
    rc, out, err = run_cli(argv, to_json(g), monkeypatch, capsys)
    assert rc == 2 and out == ""
    assert err == f"antiforce: budget exhausted (value >= {value}, value <= {value})\n"
    argv[-1] = f"{full.nodes + 100}:60"
    rc, out, _ = run_cli(argv, to_json(g), monkeypatch, capsys)
    assert rc == 0 and json.loads(out)["value"] == value


def test_af_solver_assertion_exits_3(monkeypatch, capsys):
    def broken(g, budget):
        raise AssertionError("a true cover of size af(G, M) covers every family")

    monkeypatch.setattr("antiforce.cli.af_via_matchings", broken)
    rc, out, err = run_cli(["af"], to_json(cycle(6)), monkeypatch, capsys)
    assert rc == 3 and out == ""
    assert err.startswith("antiforce: internal invariant failure: a true cover")
    assert err.count("\n") == 1


def test_af_budget_exhaustion_exit_2(k8_subset_search, monkeypatch, capsys):
    g = complete(8)
    _, nodes = k8_subset_search
    rc, _, err = run_cli(
        ["af", "--method", "subset", "--budget", f"{nodes - 1}:60"],
        to_json(g),
        monkeypatch,
        capsys,
    )
    assert rc == 2
    assert "budget exhausted" in err and "value >= 12" in err


def test_af_budget_exhaustion_reports_upper_bound(monkeypatch, capsys):
    g = complete(6)
    full = Budget(max_seconds=60.0)
    value = af_via_matchings(g, full).value
    rc, _, err = run_cli(
        ["af", "--budget", f"{full.nodes - 1}:60"], to_json(g), monkeypatch, capsys
    )
    assert rc == 2
    assert f"value <= {value}" in err


C16_4 = (
    '{"value": 20, "witness": [[0, 1], [0, 2], [0, 3], [0, 4], [0, 12], [0, 13], [0, 14], '
    "[1, 2], [1, 3], [1, 4], [1, 5], [1, 13], [2, 3], [2, 4], [2, 5], [3, 4], [3, 5], [4, 5], "
    '[10, 11], [10, 12]], "method": "via_matchings"}'
)
ORTHO3_3 = (
    '{"value": 13, "witness": [[0, 1], [0, 3], [0, 4], [0, 5], [0, 6], [0, 7], [0, 8], '
    '[3, 5], [3, 6], [3, 7], [3, 9], [4, 5], [4, 7]], "method": "via_matchings"}'
)


@pytest.mark.parametrize(
    "g, budget, rc_want, line",
    [
        # A cap in phase 1, with both bounds.
        pytest.param(
            power(cycle(12), 4),
            "8000",
            2,
            "antiforce: budget exhausted (value >= 12, value <= 17)",
            id="C12^4-8000",
        ),
        # The PM listing charges 5,180 nodes and the first matching's seed
        # walk nodes 5,181 to 5,299, so node 5,241 falls inside that walk.
        pytest.param(
            power(cycle(12), 4),
            "5240",
            2,
            "antiforce: budget exhausted (value >= 12)",
            id="C12^4-5240",
        ),
        # The listing charges 280 nodes, the first seed walk nodes 281 to
        # 343 and the first read off the PM list nodes 493 to 581, so node
        # 541 falls inside that read.
        pytest.param(
            power(path(12), 3),
            "540",
            2,
            "antiforce: budget exhausted (value >= 5, value <= 7)",
            id="P12^3-540",
        ),
        # The solve charges 2,571 nodes.
        pytest.param(power(ortho_square_chain(3), 3), "2800", 0, ORTHO3_3, id="ortho-chain3^3-2800"),
        # Met only with the cover search's forced-element branch.
        pytest.param(power(cycle(16), 4), "240000:600", 0, C16_4, id="C16^4-240000"),
    ],
)
def test_af_node_caps_land_where_they_did(g, budget, rc_want, line, monkeypatch, capsys):
    # The node-cap steps of the CI workflow, in process: a change to how a
    # search charges its nodes must leave each cap where it lands. A solve
    # prints its one line on stdout, a cap on stderr.
    rc, out, err = run_cli(["af", "--budget", budget], to_json(g), monkeypatch, capsys)
    assert rc == rc_want
    assert (out, err) == ((line + "\n", "") if rc == 0 else ("", line + "\n"))


@pytest.mark.parametrize(
    "text",
    [
        '{"edges": []}',
        '{"n": "3"}',
        '{"n": 2.5}',
        '{"n": true}',
        '{"n": -1}',
        '{"n": 3, "edges": [[0, "1"]]}',
        '{"n": 3, "edges": [[0, 1, 2]]}',
        '{"n": 3, "edges": [[0, true]]}',
        '{"n": 3, "edges": {"0": 1}}',
        '{"n": 2, "labels": ["a", "b"]}',
        '{"n": 2, "edges": [[0, 1]], "labels": {"0": [1], "1": "b"}}',
        '{"n": 1, "labels": {"0": "a", "00": "b"}}',
        '{"n": 1, "labels": {"0": 5}}',
        '{"n": 3',
        '{"n": 2, "edges": [[0, 1], [0, 1]]}',
        '{"n": 2, "edges": [[0, 1], [1, 0]]}',
        pytest.param('{"n": ' + "[" * 16000 + "]" * 16000 + "}", id="n-nested-16000-deep"),
        pytest.param(
            '{"n": 2, "edges": ' + "[" * 16000 + "]" * 16000 + "}", id="edges-nested-16000-deep"
        ),
        pytest.param('{"n": 1' + "0" * 4000 + "}", id="n-of-4001-digits"),
    ],
)
def test_af_rejects_malformed_json(text, monkeypatch, capsys):
    # One short line, whatever the size of the input: no message echoes it.
    rc, out, err = run_cli(["af"], text, monkeypatch, capsys)
    assert rc == 1 and out == ""
    assert err.startswith("antiforce: ") and err.count("\n") == 1
    assert len(err.encode()) <= 200


_RECORD = dict.fromkeys(COLUMNS, "x") | {"k": 1, "m": 1, "n": 2, "status": "MATCH"}
# A file name past every system's limit, in a directory that is not there.
_MISSING = "missing/" + "x" * 3000


@pytest.mark.parametrize(
    "argv,text",
    [
        pytest.param(["gen", "path", "--k", "x" * 5000], "", id="gen-k"),
        pytest.param(["verify", "path", "--workers", "9" * 5000], "", id="verify-workers"),
        pytest.param(["af", "--budget", ":" + "1" * 3000], "2 1\n0 1\n", id="af-budget"),
        pytest.param(["af", "--budget", "5:" + "x" * 5000], "2 1\n0 1\n", id="af-budget-seconds"),
        pytest.param(["verify", "path", "--k-range", ":" + "1" * 3000], "", id="verify-k-range"),
        pytest.param(["verify", "path", "--m-range", "2:4:-" + "9" * 4000], "", id="range-step"),
        pytest.param(["verify", "path", "--k-range", "1:1000000000000"], "", id="range-length"),
        pytest.param(
            ["verify", "path", "--k-range", "2", "--m-range", "2", "--out", _MISSING],
            "",
            id="verify-out",
        ),
        pytest.param(["report", "--format", "csv", "--out", _MISSING], "[]", id="report-out"),
        pytest.param(["pm", "--c=" + "x" * 3000], "2 1\n0 1\n", id="pm-ambiguous-prefix"),
        pytest.param(["pm", "--count=" + "x" * 3000], "2 1\n0 1\n", id="pm-count-value"),
        pytest.param(["pm", "--unique=" + "x" * 3000], "2 1\n0 1\n", id="pm-unique-value"),
        pytest.param(["gen", "path", "--k", "3", "--help=" + "x" * 3000], "", id="help-value"),
        pytest.param(["formula", "path", "--k", "2", "--m", "9" * 4000], "", id="formula-m"),
        pytest.param(["gen", "x" * 5000, "--k", "4"], "", id="gen-family"),
        pytest.param(["x" * 5000], "", id="command"),
        pytest.param(["gen", "path", "--k", "4", "x" * 5000], "", id="stray-argument"),
        pytest.param(
            ["report", "--format", "csv"],
            json.dumps([_RECORD | {"status": "S" * 5000}]),
            id="report-status",
        ),
        pytest.param(
            ["report", "--format", "csv"],
            json.dumps([_RECORD | {"oracle_value": [1] * 3000}]),
            id="report-oracle-value",
        ),
    ],
)
def test_long_bad_argument_exits_1_with_a_short_line(argv, text, monkeypatch, capsys):
    # The message names the option or column and the fault, never the text.
    rc, out, err = run_cli(argv, text, monkeypatch, capsys)
    assert rc == 1 and out == ""
    assert err.startswith("antiforce: ") and err.count("\n") == 1
    assert len(err.encode()) <= 200


def test_value_given_to_a_flag_is_named_not_echoed(monkeypatch, capsys):
    rc, out, err = run_cli(["pm", "--co=3"], "2 1\n0 1\n", monkeypatch, capsys)
    assert rc == 1 and out == ""
    assert err == "antiforce: argument --count: takes no value\n"


def test_af_rejects_negative_edge_count(monkeypatch, capsys):
    rc, out, err = run_cli(["af"], "2 -1\n", monkeypatch, capsys)
    assert rc == 1 and out == ""
    assert err == "antiforce: edge count must be non-negative, got -1\n"


def test_af_bad_budget(monkeypatch, capsys):
    rc, _, _ = run_cli(["af", "--budget", "x"], to_json(path(4)), monkeypatch, capsys)
    assert rc == 1


def test_pm_bad_budget_reads_as_af(monkeypatch, capsys):
    g = to_json(path(4))
    rc, out, err = run_cli(["pm", "--budget", "x"], g, monkeypatch, capsys)
    assert rc == 1 and out == "" and err.count("\n") == 1
    assert run_cli(["af", "--budget", "x"], g, monkeypatch, capsys) == (rc, out, err)


@pytest.mark.parametrize(
    "argv, option",
    [
        (["af", "--budget", "x"], "--budget"),
        (["af", "--budget", "5:0"], "--budget"),
        (["pm", "--budget", "0"], "--budget"),
        (["verify", "path", "--budget", "100:nan"], "--budget"),
        (["verify", "path", "--k-range", "4:"], "--k-range"),
        (["verify", "path", "--m-range", "4:10:0"], "--m-range"),
    ],
)
def test_range_and_budget_errors_name_the_option(argv, option, monkeypatch, capsys):
    rc, out, err = run_cli(argv, to_json(path(4)), monkeypatch, capsys)
    assert rc == 1 and out == ""
    assert err.startswith(f"antiforce: argument {option}: ") and err.count("\n") == 1


def test_dense_graph_under_an_address_space_cap_exits_2():
    # One mask bit per edge of K_400 would take E^2/16 bytes, about 400 MB;
    # the search makes each bit as it uses it, so the budget stops it first.
    resource = pytest.importorskip("resource")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))

    proc = subprocess.run(
        [sys.executable, "-m", "antiforce.cli", "af", "--budget", "200:10"],
        input=to_json(complete(400)),
        capture_output=True,
        text=True,
        preexec_fn=cap,
        timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "antiforce: budget exhausted\n")


def test_cli_import_leaves_multiprocessing_out():
    code = "import sys, antiforce.cli; print('multiprocessing' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


@pytest.mark.parametrize("k", [4, 4096])
def test_a_reader_closing_the_pipe_early_exits_1_silently(k):
    # P_4 fits in stdout's buffer, so its write fails at the flush; P_4096
    # does not, so it fails inside print. Block buffering is the default
    # for a pipe, so PYTHONUNBUFFERED is dropped from the child's environment.
    env = {key: v for key, v in os.environ.items() if key != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen(
        [sys.executable, "-m", "antiforce.cli", "gen", "path", "--k", str(k)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=120), err) == (1, b"")


def test_sweep_gives_each_oracle_call_its_own_budget(monkeypatch, capsys):
    seen = []

    def recording(solver):
        def wrapper(g, budget):
            seen.append((solver.__name__, budget, budget.nodes))
            return solver(g, budget)

        return wrapper

    for name in ("af_via_matchings", "af_subset_search"):
        monkeypatch.setattr(harness, name, recording(getattr(harness, name)))
    argv = ["verify", "path", "--k-range", "4:8:2", "--m-range", "2", "--budget", "1000:5"]
    assert main(argv) == 0
    capsys.readouterr()
    assert {name for name, _, _ in seen} == {"af_via_matchings", "af_subset_search"}
    assert len({id(budget) for _, budget, _ in seen}) == len(seen)
    for _, budget, nodes in seen:
        assert (budget.max_nodes, budget.max_seconds, nodes) == (1000, 5.0, 0)


DEEP_JSON = '{"n": ' + "[" * 100_000 + "]" * 100_000 + "}"


@pytest.mark.parametrize("argv", [["af"], ["report", "--format", "csv"]])
def test_deeply_nested_json_exits_1(argv, monkeypatch, capsys):
    rc, out, err = run_cli(argv, DEEP_JSON, monkeypatch, capsys)
    assert rc == 1 and out == ""
    assert err.startswith("antiforce: input too deep") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, want",
    [
        (["pm", "--count"], {"count": 1}),
        (["af"], {"value": 0, "witness": [], "method": "via_matchings"}),
    ],
)
def test_long_even_graph_is_served(argv, want, monkeypatch, capsys):
    # The matching searches recurse once per matched edge, 1,200 deep here,
    # past the interpreter's default limit; main raises it while it runs.
    limit = sys.getrecursionlimit()
    rc, out, err = run_cli(argv, to_json(path(2400)), monkeypatch, capsys)
    assert rc == 0 and json.loads(out) == want and err == ""
    assert sys.getrecursionlimit() == limit


@pytest.mark.parametrize("argv", [["af"], ["power", "--m", "2"]])
@pytest.mark.parametrize("text", ["100000000 0", '{"n": 100000000}'])
def test_huge_declared_order_exits_1(argv, text, monkeypatch, capsys):
    # Rejected before anything is built per vertex.
    rc, out, err = run_cli(argv, text, monkeypatch, capsys)
    assert rc == 1 and out == ""
    assert err.startswith("antiforce: graph declares 100000000 vertices") and err.count("\n") == 1


@pytest.mark.parametrize(
    "family, n", [("path", 100000000), ("friendship", 200000001), ("para-chain", 300000001)]
)
def test_huge_family_order_exits_1(family, n, monkeypatch, capsys):
    # gen checks the order before building a single edge.
    rc, out, err = run_cli(["gen", family, "--k", "100000000"], "", monkeypatch, capsys)
    assert rc == 1 and out == ""
    assert err.startswith(f"antiforce: graph declares {n} vertices") and err.count("\n") == 1


def _run_in_process(argv, text):
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(argv)
    finally:
        sys.stdin = stdin
    return rc, out.getvalue(), err.getvalue()


_SMALL_INTS = st.integers(-1, 16)
_ATOMS = st.none() | st.booleans() | _SMALL_INTS | st.floats(-5, 70) | st.text(max_size=4)
_INT_PAIRS = st.lists(_SMALL_INTS, min_size=2, max_size=2)
_PAIRS = st.lists(_INT_PAIRS, max_size=12) | st.lists(
    _INT_PAIRS | st.lists(_ATOMS, min_size=1, max_size=3), max_size=6
)
_ORDERS = st.integers(0, 20) | st.integers(-1, 64) | st.integers(65, MAX_ORDER + 1)
_EDGE_LISTS = st.builds(
    lambda n, pairs, skew: f"{n} {len(pairs) + skew}\n"
    + "\n".join(" ".join(map(str, p)) for p in pairs),
    _ORDERS,
    _PAIRS,
    st.sampled_from([0, 0, 0, 1, -1]),
)
_JSON_VALUES = st.recursive(
    _ATOMS,
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.sampled_from(["n", "edges", "labels", "0", "1"]), inner, max_size=4),
    max_leaves=24,
)
_JSON_DOCS = st.one_of(
    _JSON_VALUES,
    st.fixed_dictionaries(
        {"n": _ORDERS | _ATOMS, "edges": _PAIRS}, optional={"labels": _JSON_VALUES}
    ),
).map(json.dumps)


@settings(max_examples=150, deadline=None)
@given(
    argv=st.sampled_from([["af", "--budget", "20000:1"], ["pm", "--count"], ["power", "--m", "2"]]),
    text=st.one_of(st.text(max_size=200), _EDGE_LISTS, _JSON_DOCS),
)
def test_cli_fuzz_exits_cleanly(argv, text):
    # Every command takes every order the parsers accept, up to MAX_ORDER.
    rc, _, err = _run_in_process(argv, text)
    assert rc in (0, 1, 2)
    assert "Traceback" not in err
    if rc == 1:
        assert err.startswith("antiforce: ") and err.count("\n") == 1


def test_formula_path(capsys):
    rc = main(["formula", "path", "--k", "6", "--m", "3"])
    out, _ = capsys.readouterr()
    assert rc == 0
    doc = json.loads(out)
    assert doc == {
        "value": 6,
        "kind": "exact",
        "case": "(i)",
        "applicability": "in_range",
    }


def test_formula_cycle_bounds(capsys):
    rc = main(["formula", "cycle", "--k", "6", "--m", "2"])
    out, _ = capsys.readouterr()
    doc = json.loads(out)
    assert rc == 0
    assert doc["kind"] == "bounds"
    assert doc["value"] is None
    assert doc["lower"] == "7/2" and doc["upper"] == "6"
    assert out == (
        '{"value": null, "kind": "bounds", "case": "bounds", "applicability": "in_range", '
        '"lower": "7/2", "upper": "6"}\n'
    )


def test_formula_complete_has_none(capsys):
    rc = main(["formula", "complete", "--k", "4", "--m", "2"])
    _, err = capsys.readouterr()
    assert rc == 1 and "no closed form" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["formula", "path", "--k", "2", "--m", "1000000000"],
        ["formula", "para-chain", "--k", "2", "--m", "4097"],
        ["verify", "ortho-chain", "--k-range", "2", "--m-range", "100000000"],
    ],
)
def test_huge_exponent_exits_1(argv, monkeypatch, capsys):
    # The recurrences step up to m; past MAX_ORDER = 4096 the power is
    # complete anyway, so m is refused before any stepping.
    rc, out, err = run_cli(argv, "", monkeypatch, capsys)
    assert rc == 1 and out == ""
    assert err.startswith("antiforce: m must be an integer from 1 to 4096") and err.count("\n") == 1


def test_formula_odd_k_chain(capsys):
    rc = main(["formula", "ortho-chain", "--k", "3", "--m", "2"])
    _, err = capsys.readouterr()
    assert rc == 1 and "even k" in err


def test_verify_row_count(capsys):
    rc = main(["verify", "cycle", "--k-range", "4:10:2", "--m-range", "2:3"])
    out, err = capsys.readouterr()
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 9  # header + 4 k-values x 2 m-values
    assert lines[0].startswith("family,k,m,n,")
    assert "records=8" in err


def test_verify_writes_file(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    rc = main(
        ["verify", "path", "--k-range", "2:4", "--m-range", "2", "--out", str(out_file)]
    )
    out, _ = capsys.readouterr()
    assert rc == 0 and out == ""
    lines = out_file.read_text().splitlines()
    assert len(lines) == 4


@pytest.mark.parametrize("command", ["verify", "report"])
def test_out_writes_the_file_then_one_status_line(command, tmp_path, monkeypatch, capsys):
    sweep = ["verify", "path", "--k-range", "2:4", "--m-range", "2", "--format", "json"]
    rc, rows, status = run_cli(sweep, "", monkeypatch, capsys)
    assert rc == 0 and status.count("\n") == 1
    argv = sweep if command == "verify" else ["report", "--format", "json"]
    out_file = tmp_path / "report.json"
    rc, out, err = run_cli([*argv, "--out", str(out_file)], rows, monkeypatch, capsys)
    assert (rc, out, err) == (0, "", status)
    assert out_file.read_text() == rows


def test_verify_json_format(capsys):
    rc = main(["verify", "path", "--k-range", "4", "--m-range", "2", "--format", "json"])
    out, _ = capsys.readouterr()
    docs = json.loads(out)
    assert rc == 0 and docs[0]["status"] == "MISMATCH"


def test_verify_default_ranges(capsys):
    rc = main(["verify", "friendship"])
    out, _ = capsys.readouterr()
    assert rc == 0
    # Defaults: k 1..4, m {2,3}.
    assert len(out.splitlines()) == 9


def test_verify_decides_large_even_rows(capsys):
    rc = main(["verify", "path", "--k-range", "16", "--m-range", "2", "--format", "json"])
    out, _ = capsys.readouterr()
    [doc] = json.loads(out)
    assert rc == 0 and doc["oracle_value"] == 4 and doc["status"] == "MISMATCH"
    assert main(["verify", "path", "--oracle-n-limit", "4"]) == 1
    assert main(["verify", "path", "--cross-check-n-limit", "4"]) == 1


def test_verify_sweep_without_points_exits_1(capsys):
    rc = main(["verify", "ortho-chain", "--k-range", "3:5:2"])
    out, err = capsys.readouterr()
    assert rc == 1 and out == ""
    assert "no points" in err and err.count("\n") == 1


def test_verify_workers_validation(capsys):
    rc = main(["verify", "path", "--workers", "0"])
    _, err = capsys.readouterr()
    assert rc == 1 and "--workers" in err


def test_verify_invariant_failure_exit_3(monkeypatch, capsys):
    def boom(spec, workers=1):
        raise InternalInvariantError("forced")

    monkeypatch.setattr("antiforce.cli.run_sweep", boom)
    rc = main(["verify", "path", "--k-range", "2", "--m-range", "2"])
    _, err = capsys.readouterr()
    assert rc == 3 and "internal invariant" in err


def test_report_roundtrip(monkeypatch, capsys):
    sweep = ["verify", "path", "--k-range", "2:4", "--m-range", "2"]
    rc = main([*sweep, "--format", "json"])
    json_text, json_err = capsys.readouterr()
    assert rc == 0 and "records=3" in json_err
    for fmt in ("csv", "json"):
        monkeypatch.setattr("sys.stdin", io.StringIO(json_text))
        rc = main(["report", "--format", fmt])
        report_text, err = capsys.readouterr()
        assert rc == 0
        rc = main([*sweep, "--format", fmt])
        direct_text, direct_err = capsys.readouterr()
        assert rc == 0 and report_text == direct_text, fmt
        assert err == direct_err == json_err, fmt


def test_report_json_writes_the_row_format(monkeypatch, capsys):
    rc = main(["verify", "path", "--k-range", "4", "--m-range", "2", "--format", "json"])
    verify_text, _ = capsys.readouterr()
    assert rc == 0
    [row] = json.loads(verify_text)
    foreign = dict(reversed([*row.items(), ("extra", 1)]))
    assert list(foreign)[:2] == ["extra", "status"]
    rc, out, _ = run_cli(
        ["report", "--format", "json"], json.dumps([foreign]), monkeypatch, capsys
    )
    assert rc == 0 and out == verify_text


def test_report_rejects_bad_stdin(monkeypatch, capsys):
    rc, _, err = run_cli(["report", "--format", "csv"], "not json", monkeypatch, capsys)
    assert rc == 1 and "JSON" in err
    rc, _, err = run_cli(["report", "--format", "csv"], '{"a": 1}', monkeypatch, capsys)
    assert rc == 1 and "array" in err
    rc, _, err = run_cli(["report", "--format", "csv"], '[{"a": 1}]', monkeypatch, capsys)
    assert rc == 1 and "missing" in err
    rc, out, err = run_cli(["report", "--format", "csv"], "[1]", monkeypatch, capsys)
    assert rc == 1 and out == "" and "array" in err and err.count("\n") == 1
    bogus = json.dumps([dict.fromkeys(COLUMNS, "x") | {"status": "BOGUS"}])
    rc, out, err = run_cli(["report", "--format", "csv"], bogus, monkeypatch, capsys)
    assert rc == 1 and out == "" and "status" in err and err.count("\n") == 1
    record = dict.fromkeys(COLUMNS, "x") | {"k": 1, "m": 1, "n": 2, "status": "MATCH"}
    for bad in ({"family": None}, {"k": [1]}, {"n": True}, {"oracle_value": 1.5}):
        doc = json.dumps([record | bad])
        rc, out, err = run_cli(["report", "--format", "csv"], doc, monkeypatch, capsys)
        assert rc == 1 and out == "" and next(iter(bad)) in err and err.count("\n") == 1
    doc = json.dumps([record])
    rc, out, _ = run_cli(["report", "--format", "csv"], doc, monkeypatch, capsys)
    assert rc == 0 and out.splitlines()[1] == "x,1,1,2,x,x,x,x,x,x,MATCH"


def test_no_command_prints_help(capsys):
    rc = main([])
    _, err = capsys.readouterr()
    assert rc == 1 and "usage:" in err


def test_pipeline_subprocess():
    shell = (
        f"{sys.executable} -m antiforce.cli gen path --k 4"
        f" | {sys.executable} -m antiforce.cli power --m 2"
        f" | {sys.executable} -m antiforce.cli af --method subset"
    )
    proc = subprocess.run(
        ["bash", "-c", shell], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["value"] == 1
    assert doc["witness"] == [[0, 1]]
