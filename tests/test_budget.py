import math
import time
from argparse import ArgumentTypeError

import pytest

from antiforce import (
    Budget,
    BudgetExceededError,
    af_of_matching,
    af_subset_search,
    af_via_matchings,
    alternating_cycles,
    build,
    count_pms_excluding,
    cycle,
    enumerate_perfect_matchings,
    has_perfect_matching,
    power,
)
import antiforce.antiforcing
from antiforce.cli import parse_budget
from antiforce.symmetry import automorphism_generators, pm_orbits


def test_node_cap_raises():
    b = Budget(max_nodes=5, max_seconds=60.0)
    for _ in range(5):
        b.tick()
    with pytest.raises(BudgetExceededError):
        b.tick()
    assert b.nodes == 6


def test_time_cap_raises():
    b = Budget(max_nodes=10**9, max_seconds=0.0001)
    with pytest.raises(BudgetExceededError):
        # Time is only polled every 256 ticks.
        for _ in range(10**6):
            b.tick()


def test_bulk_charge_checks_the_clock_when_it_crosses_a_multiple_of_256():
    # A charge that jumps from 255 past 256 lands on no multiple of 256,
    # but it crossed one, so the clock is read there.
    b = Budget(max_nodes=10**9, max_seconds=0.0001)
    b.tick(255)
    time.sleep(0.001)
    with pytest.raises(BudgetExceededError, match="time"):
        b.tick(300)
    assert b.nodes == 555


def test_bulk_charge_raises_past_the_node_cap():
    # A charge that reaches the cap passes; one that goes past it raises
    # on that tick, whether or not it also crosses a multiple of 256.
    cases = ((10, [10, 1]), (100, [50, 60]), (700, [600, 200]), (1_000, [255, 300, 600]))
    for cap, charges in cases:
        b = Budget(max_nodes=cap, max_seconds=60.0)
        for charge in charges[:-1]:
            b.tick(charge)
        with pytest.raises(BudgetExceededError, match="node"):
            b.tick(charges[-1])
        assert b.nodes == sum(charges)


def test_clock_is_read_only_where_the_count_crosses_a_multiple_of_256(monkeypatch):
    # One read per charge that crosses a multiple of 256, however many it
    # crosses: the charges whose remainder after it is below the charge.
    charges = [1] * 255 + [300] + [1] * 600 + [1_000]
    b = Budget(max_nodes=10**9, max_seconds=60.0)
    reads = []
    monotonic = time.monotonic

    def counted():
        reads.append(b.nodes)
        return monotonic()

    monkeypatch.setattr(time, "monotonic", counted)
    crossed = []
    for charge in charges:
        b.tick(charge)
        if b.nodes % 256 < charge:
            crossed.append(b.nodes)
    assert reads == crossed == [555, 768, 1024, 2155]


def test_until_check_is_the_charge_that_checks_as_a_tick_per_node(monkeypatch):
    # From any state, the count until_check returns, less one, charges
    # without a check; the last node then checks as a tick per node does:
    # it raises at node cap + 1 when that is the checkpoint, and else
    # reads the clock once. A spent budget raises on its next node.
    reads = []
    monotonic = time.monotonic

    def counted():
        reads.append(1)
        return monotonic()

    monkeypatch.setattr(time, "monotonic", counted)
    for cap in (1, 5, 255, 256, 300, 1_000, math.inf):
        for charged in (0, 1, 200, 255, 256, 300, 700, 1_000, 1_001):
            b = Budget(max_nodes=cap, max_seconds=60.0)
            try:
                b.tick(charged)
            except BudgetExceededError:
                pass
            spent = b.nodes > cap
            reads.clear()
            left = b.until_check()
            assert left >= 1 and (left == 1 or not spent)
            if left > 1:
                b.tick(left - 1)
            assert not reads, (cap, charged)
            if b.nodes == cap or spent:
                with pytest.raises(BudgetExceededError, match="node"):
                    b.tick()
                assert spent or b.nodes == cap + 1
            else:
                b.tick()
                assert len(reads) == 1 and b.nodes % 256 == 0, (cap, charged)


def test_invalid_caps():
    with pytest.raises(ValueError):
        Budget(max_nodes=0)
    with pytest.raises(ValueError):
        Budget(max_seconds=0)


def test_parse_budget_forms():
    assert parse_budget("1000") == (1000, 10.0)
    assert parse_budget("500:2.5") == (500, 2.5)


@pytest.mark.parametrize("text", ["", ":", "a", "1:2:3", "5:x", "100:nan"])
def test_parse_budget_rejects(text):
    with pytest.raises(ArgumentTypeError):
        parse_budget(text)


def test_exception_carries_bounds():
    # The solver a budget stops sets the bounds it knows on that error
    # alone; Budget.tick raises with neither.
    with pytest.raises(BudgetExceededError) as exc:
        af_subset_search(cycle(8), Budget(max_nodes=1))
    assert exc.value.lower == 0 and exc.value.upper is None
    b = Budget(max_nodes=1)
    b.tick()
    with pytest.raises(BudgetExceededError) as exc:
        b.tick()
    assert exc.value.lower is None and exc.value.upper is None


def _pass_charged(info) -> str:
    """The pass over the PMs whose own tick went past the cap, or '' for any other tick."""
    entry = info.traceback[-2]  # the frame that called Budget.tick
    if entry.name == "af_via_matchings":
        return "order by p(M)"
    if entry.name == "pm_orbits" and "first" not in entry.locals:
        return "index"
    return ""


def test_each_pass_over_the_pms_stops_at_the_node_cap():
    # C_10^2 has 22 PMs. The one with the fewest alternating 4-cycle
    # pairs, M0, has 2 and value B = 5, and the 20 PMs with fewer than 5
    # pairs are more than n, so their orbits are closed and their
    # representatives ordered. The listing takes each PM's pair count as
    # it goes, before any bound exists: a cap that lands in it raises
    # with neither bound. A cap that lands inside one of the two passes
    # over the PMs, the orbit search's index and the order by p(M),
    # stops it there; they run once M0 is solved, with af(G) >= p(M0)
    # and af(G) <= B. The orbit search's colouring reads no PM.
    g = power(cycle(10), 2)
    listing, whole = Budget(), Budget()
    enumerate_perfect_matchings(g, budget=listing)
    af_via_matchings(g, whole)
    for cap in range(1, listing.nodes):
        with pytest.raises(BudgetExceededError) as info:
            af_via_matchings(g, Budget(max_nodes=cap))
        assert info.traceback[-2].name == "_walk"
        assert (info.value.lower, info.value.upper) == (None, None), cap
    stopped = set()
    for cap in range(listing.nodes, whole.nodes):
        capped = Budget(max_nodes=cap)
        with pytest.raises(BudgetExceededError) as info:
            af_via_matchings(g, capped)
        where = _pass_charged(info)
        if where:
            stopped.add(where)
            assert capped.nodes == cap + 1
            assert (info.value.lower, info.value.upper) == (2, 5), where
    assert stopped == {"index", "order by p(M)"}


def test_a_cap_in_the_holding_build_stops_it_there(monkeypatch):
    # ortho-chain(3)^3 has 345 PMs and scans them more than n = 10 times,
    # so its solve builds the per-edge PM bitsets once, in phase 2, and
    # charges one node per PM. A cap that lands in the build raises there
    # at cap + 1, with the value phase 2 carries as both bounds.
    g = power(build("ortho-chain", 3), 3)
    starts = []
    inner = antiforce.antiforcing.holding_masks

    def recorded(pms, width, budget):
        starts.append(budget.nodes)
        return inner(pms, width, budget)

    monkeypatch.setattr(antiforce.antiforcing, "holding_masks", recorded)
    assert af_via_matchings(g).value == 13
    monkeypatch.undo()
    [start] = starts
    pms = len(enumerate_perfect_matchings(g))
    for cap in [*range(start, start + pms, 16), start + pms - 1]:
        capped = Budget(max_nodes=cap)
        with pytest.raises(BudgetExceededError) as info:
            af_via_matchings(g, capped)
        assert info.traceback[-2].name == "holding_masks"
        assert capped.nodes == cap + 1
        assert (info.value.lower, info.value.upper) == (13, 13)


def test_a_cap_in_the_subset_searchs_holding_build_stops_it_there(monkeypatch):
    # Route one builds the per-edge PM bitsets once the listing and the
    # packing bound are done, and charges one node per PM. A cap that
    # lands in the build raises there at cap + 1, with the packing bound
    # as the lower bound. C_10^3 has 144 PMs, a bound of 8 and af = 9.
    g = power(cycle(10), 3)
    starts = []
    inner = antiforce.antiforcing.holding_masks

    def recorded(pms, width, budget):
        starts.append(budget.nodes)
        return inner(pms, width, budget)

    monkeypatch.setattr(antiforce.antiforcing, "holding_masks", recorded)
    assert af_subset_search(g).value == 9
    monkeypatch.undo()
    [start] = starts
    pms = len(enumerate_perfect_matchings(g))
    for cap in [*range(start, start + pms, 16), start + pms - 1]:
        capped = Budget(max_nodes=cap)
        with pytest.raises(BudgetExceededError) as info:
            af_subset_search(g, capped)
        assert info.traceback[-2].name == "holding_masks"
        assert capped.nodes == cap + 1
        assert (info.value.lower, info.value.upper) == (8, None)


def test_budget_is_uncapped_by_default():
    b = Budget()
    assert b.max_nodes == math.inf and b.max_seconds == math.inf


def _entry_point_calls():
    g = power(cycle(8), 2)
    pms = enumerate_perfect_matchings(g)
    return [
        (has_perfect_matching, (g,)),
        (enumerate_perfect_matchings, (g,)),
        (count_pms_excluding, (g, frozenset(g.sorted_edges[:2]), 2)),
        (alternating_cycles, (g, pms[0])),
        (automorphism_generators, (g, [0] * g.n)),
        (pm_orbits, (g, pms)),
        (af_subset_search, (g,)),
        (af_of_matching, (g, pms[0])),
        (af_via_matchings, (g,)),
    ]


ENTRY_POINT_CALLS = _entry_point_calls()


@pytest.mark.parametrize(
    "fn, args", ENTRY_POINT_CALLS, ids=[f.__name__ for f, _ in ENTRY_POINT_CALLS]
)
def test_every_entry_point_runs_without_a_budget(fn, args):
    # No budget is a fresh uncapped one: the same result, the same search.
    budget = Budget()
    assert fn(*args, budget=budget) == fn(*args)
    assert budget.nodes >= 1
