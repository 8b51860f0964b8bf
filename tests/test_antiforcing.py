import gc
import random
from itertools import combinations, count, takewhile

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from antiforce import (
    AntiForcingResult,
    Budget,
    BudgetExceededError,
    Graph,
    af_of_matching,
    af_subset_search,
    af_via_matchings,
    build,
    complete,
    cycle,
    edge,
    enumerate_perfect_matchings,
    friendship,
    is_anti_forcing_set,
    para_square_chain,
    path,
    power,
)
import antiforce.antiforcing
import antiforce.budget
from antiforce.antiforcing import (
    SEED_LENGTH,
    _anti_forcing_sets,
    _cover_lazily,
    _exists_cover,
    _four_cycle_start,
    _grown,
    _least_packing,
    _lex_min_cover,
    _lex_min_lazily,
    _listed_cycles,
    _Matchings,
    _min_cover_size,
    _outside_exceeds,
    _packing_bound,
    _swaps,
)
from antiforce.matching import (
    alternating_cycles,
    count_pms_excluding,
    edge_indices,
    holding_masks,
)
from conftest import (
    benchmark_family_graphs,
    benchmark_random_graphs,
    graphs,
    mask_of,
    random_connected_graph,
)
from criterion1_witnesses import family_instances


def test_result_validation():
    with pytest.raises(ValueError):
        AntiForcingResult(-1, frozenset(), "subset_search")
    with pytest.raises(ValueError):
        AntiForcingResult(2, frozenset(), "subset_search")
    # The no-PM convention reports |E| with an empty witness.
    AntiForcingResult(5, frozenset(), "convention_no_pm")


def test_is_anti_forcing_set():
    g = power(path(4), 2)
    assert is_anti_forcing_set(g, {(0, 2)})
    assert is_anti_forcing_set(g, {(0, 1)})
    assert not is_anti_forcing_set(cycle(4), set())
    with pytest.raises(ValueError):
        is_anti_forcing_set(path(4), {(0, 2)})


def test_unique_pm_graph_needs_nothing():
    res = af_subset_search(path(6))
    assert res.value == 0 and res.witness == frozenset()
    assert res.method == "subset_search"
    assert af_via_matchings(path(6)).value == 0


@pytest.mark.parametrize(
    "g,value",
    [
        (cycle(6), 1),
        (cycle(8), 1),
        (complete(4), 2),
        (power(path(4), 2), 1),
        (power(path(6), 2), 1),
    ],
)
def test_spot_values_both_methods(g, value):
    a = af_subset_search(g)
    b = af_via_matchings(g)
    assert a.value == value and b.value == value
    assert is_anti_forcing_set(g, a.witness)
    assert is_anti_forcing_set(g, b.witness)


def test_witnesses_are_lexicographically_smallest():
    g = power(path(4), 2)
    assert sorted(af_subset_search(g).witness) == [(0, 1)]
    assert sorted(af_via_matchings(g).witness) == [(0, 1)]
    h = power(path(6), 2)
    assert sorted(af_subset_search(h).witness) == [(0, 1)]


def test_no_pm_convention():
    for g in (friendship(2), path(5), power(path(5), 2)):
        for res in (af_subset_search(g), af_via_matchings(g)):
            assert res.value == len(g.edges)
            assert res.witness == frozenset()
            assert res.method == "convention_no_pm"


def test_empty_and_degenerate_graphs():
    assert af_subset_search(Graph(0)).value == 0
    assert af_via_matchings(Graph(0)).value == 0
    # Even order but no edges: convention value is |E| = 0 despite no PM.
    res = af_subset_search(Graph(2))
    assert res.value == 0 and res.method == "convention_no_pm"
    assert af_subset_search(Graph(1)).method == "convention_no_pm"


def test_matching_level_numbers_k4():
    g = complete(4)
    for m in enumerate_perfect_matchings(g):
        analysis = af_of_matching(g, m)
        assert analysis.af_of_m == 2
        assert analysis.f_of_m == 1


def test_matching_level_numbers_hexagon():
    g = cycle(6)
    m = mask_of(g, {(0, 1), (2, 3), (4, 5)})
    analysis = af_of_matching(g, m)
    assert analysis.af_of_m == 1 and analysis.f_of_m == 1


def test_subset_search_budget_carries_lower_bound(k8_subset_search):
    g = complete(8)
    value, nodes = k8_subset_search
    assert value == 12
    # One node short: every size below 12 was exhausted.
    with pytest.raises(BudgetExceededError) as exc:
        af_subset_search(g, Budget(max_nodes=nodes - 1, max_seconds=60.0))
    assert exc.value.lower == 12
    # 100 nodes run out while the 105 perfect matchings are enumerated.
    with pytest.raises(BudgetExceededError) as exc:
        af_subset_search(g, Budget(max_nodes=100, max_seconds=60.0))
    assert exc.value.lower == 0


def subset_scan(g, budget=None):
    """The definition scanned literally: every edge subset, size by size.

    Subsets of one size come in lexicographic order over the sorted edge
    list, so the first anti-forcing set found is the smallest witness.
    """
    budget = budget or Budget()
    if g.n % 2 or (g.n > 0 and count_pms_excluding(g, frozenset(), cap=1) == 0):
        return AntiForcingResult(len(g.edges), frozenset(), "convention_no_pm")
    try:
        for size in range(len(g.edges) + 1):
            for subset in combinations(g.sorted_edges, size):
                budget.tick()
                if count_pms_excluding(g, frozenset(subset), cap=2) == 1:
                    return AntiForcingResult(size, frozenset(subset), "subset_search")
    except BudgetExceededError as exc:
        exc.lower = size
        raise
    raise AssertionError("a graph with a perfect matching has an anti-forcing set")


def test_subset_search_equals_scan_on_atlas(atlas):
    for g in atlas:
        assert af_subset_search(g) == subset_scan(g), sorted(g.edges)


def least_of(g):
    return _least_packing(g, enumerate_perfect_matchings(g), Budget())


def plain_least(pms):
    """The least greedy packing of the differences M' - M, every M scanned."""
    least = len(pms)
    for m in pms:
        taken = count_ = 0
        for rest in sorted((b & ~m for b in pms if b != m), key=int.bit_count):
            if not rest & taken:
                count_ += 1
                taken |= rest
        least = min(least, count_)
    return least


def test_least_packing_bounds_the_value_on_atlas(atlas):
    for g in (*atlas, *benchmark_random_graphs(0)):
        pms = enumerate_perfect_matchings(g)
        least = _least_packing(g, pms, Budget())
        # The swap shortcut skips no matching that would lower the least.
        assert least == plain_least(pms), sorted(g.edges)
        if g.n <= 7:  # the atlas: the random graphs are past the scan's reach
            assert least <= subset_scan(g).value, sorted(g.edges)


def lookup_swaps(g, m):
    """The swap count by edge lookups: ab, cd swap when ac, bd or ad, bc are edges."""
    matched = [g.sorted_edges[i] for i in edge_indices(m)]
    count_ = 0
    for j, (a, b) in enumerate(matched):
        for c, d in matched[j + 1 :]:
            count_ += (edge(a, c) in g.edges and edge(b, d) in g.edges) + (
                edge(a, d) in g.edges and edge(b, c) in g.edges
            )
    return count_


def test_swaps_equals_the_edge_lookup_count(atlas):
    family = [g for g in benchmark_family_graphs() if count_pms_excluding(g, cap=2_001) <= 2_000]
    for g in (*atlas, *benchmark_random_graphs(0), *family):
        for m in enumerate_perfect_matchings(g):
            assert _swaps(g, m) == lookup_swaps(g, m), (sorted(g.edges), m)


@settings(max_examples=100, deadline=None)
@given(graphs(min_n=0, max_n=8))
def test_least_packing_bounds_the_value_sampled_n8(g):
    try:
        ref = subset_scan(g, Budget(max_nodes=2_000, max_seconds=60.0))
    except BudgetExceededError:
        assume(False)
    assert least_of(g) <= ref.value


@pytest.mark.parametrize(
    "g,least", [(complete(8), 12), (power(cycle(8), 3), 9)], ids=["K8", "C8^3"]
)
def test_least_packing_dense_n8(g, least):
    assert least_of(g) == least


def test_subset_search_out_of_budget_in_the_packing_pass():
    g = complete(8)
    listing = Budget()
    pms = enumerate_perfect_matchings(g, budget=listing)
    # One node per matching: the pass runs out at its last matching.
    with pytest.raises(BudgetExceededError) as exc:
        af_subset_search(g, Budget(max_nodes=listing.nodes + len(pms) - 1, max_seconds=60.0))
    assert exc.value.lower == 0


def test_subset_search_deepens_from_the_least_packing():
    # K_10 has 945 perfect matchings and af = 20: one node past the
    # listing, the pass and the bitset build, the search is already at
    # size 20.
    g = complete(10)
    listing = Budget()
    pms = enumerate_perfect_matchings(g, budget=listing)
    with pytest.raises(BudgetExceededError) as exc:
        af_subset_search(g, Budget(max_nodes=listing.nodes + 2 * len(pms) + 1, max_seconds=60.0))
    assert exc.value.lower == 20


def test_subset_search_calls_nothing_of_route_two(atlas, monkeypatch):
    want = [af_subset_search(g) for g in atlas]

    def boom(*args, **kwargs):
        raise AssertionError("the subset search called route two")

    for name in (
        "alternating_cycles",
        "_exists_cover",
        "_packing_bound",
        "_four_cycle_start",
        "pm_orbits",
    ):
        monkeypatch.setattr(antiforce.antiforcing, name, boom)
    assert [af_subset_search(g) for g in atlas] == want


def holding_of(pms):
    """Bit j of entry i is set when the edge bitmask pms[j] holds edge i."""
    width = max(p.bit_length() for p in pms)
    return [sum(1 << j for j, p in enumerate(pms) if p >> i & 1) for i in range(width)]


def test_holding_build_is_the_bit_by_bit_build(atlas):
    # The transpose gives, bit for bit, what route one built inline, one
    # ``|= 1 << j`` per matching and edge, and charges one node per matching.
    checked = 0
    for g in (*atlas, *(g for *_, g in family_instances())):
        pms = enumerate_perfect_matchings(g)
        width = len(g.sorted_edges)
        want = [0] * width
        for j, m in enumerate(pms):
            for i in edge_indices(m):
                want[i] |= 1 << j
        budget = Budget()
        assert holding_masks(pms, width, budget) == want, sorted(g.edges)
        assert budget.nodes == len(pms)
        checked += 1
    assert checked == len(atlas) + 99


def test_probe_returns_the_scans_list(atlas, monkeypatch):
    # With holding built at the first call of every solve, whatever its
    # PM count, each probe returns the list a scan of every PM returns,
    # in the same order, and every solve its value and witness.
    graphs = [
        *atlas,
        *(g for *_, g in family_instances()),
        *benchmark_random_graphs(1),
        power(build("ortho-chain", 3), 3),
    ]
    want = [af_via_matchings(g) for g in graphs]
    probes = 0

    class Checked(_Matchings):
        def __init__(self, g, pms, budget):
            super().__init__(g, pms, budget)
            self.scans = 0

        def missed(self, m, cover):
            nonlocal probes
            probes += 1
            got = super().missed(m, cover)
            assert got == [b & ~m for b in self.pms if not b & cover and b != m]
            return got

    monkeypatch.setattr(antiforce.antiforcing, "_Matchings", Checked)
    assert [af_via_matchings(g) for g in graphs] == want
    assert probes > len(graphs)


def list_anti_forcing_sets(pms, removed, forbidden, left, tick, found):
    """The subset search over a list of surviving matchings, for reference.

    It rescans the list at every node; the search under test keeps the
    survivors as one bitset over matching indices instead.
    """
    tick()
    if len(pms) == 1:
        found.append(removed)
        return
    if not left:
        return
    branch = (pms[0] | pms[1]) & ~forbidden
    while branch:
        low = branch & -branch
        rest = [p for p in pms if not p & low]
        if rest:
            list_anti_forcing_sets(rest, removed | low, forbidden, left - 1, tick, found)
        forbidden |= low
        branch ^= low


def lex_min(masks):
    """The edge mask with the smallest sorted edge list among equal-sized ``masks``."""
    return min(masks, key=lambda s: [i for i in range(s.bit_length()) if s >> i & 1])


def test_subset_search_walks_the_list_search_tree(atlas):
    # Below the value: same sets in the same order, and one tick per node
    # of the same tree. At the value the bound prunes the tree: one set,
    # the smallest the list search finds, in no more ticks.
    for g in (*atlas, power(cycle(8), 3)):
        pms = enumerate_perfect_matchings(g)
        if not pms:
            continue
        holding, alive = holding_of(pms), (1 << len(pms)) - 1
        value = af_subset_search(g).value
        for size in range(value + 1):
            ref_ticks, ref_found = count(), []
            list_anti_forcing_sets(pms, 0, 0, size, lambda: next(ref_ticks), ref_found)
            ticks, found = count(), []
            _anti_forcing_sets(pms, holding, alive, 0, 0, size, lambda: next(ticks), found)
            where = (sorted(g.edges), size)
            if size < value:
                assert (found, next(ticks)) == (ref_found, next(ref_ticks)), where
            else:
                assert found == [lex_min(ref_found)], where
                assert next(ticks) <= next(ref_ticks), where


def test_subset_search_keeps_the_smallest_minimum_set(atlas):
    # The pruned search returns the lexicographically smallest of every
    # anti-forcing set of the value's size, as a scan of them all gives it.
    for g in atlas:
        edges = g.sorted_edges
        pms = enumerate_perfect_matchings(g)
        if not pms:
            continue
        value = af_subset_search(g).value
        found = []
        _anti_forcing_sets(
            pms, holding_of(pms), (1 << len(pms)) - 1, 0, 0, value, lambda: None, found
        )
        want = [
            sum(1 << edges.index(e) for e in s)
            for s in combinations(edges, value)
            if is_anti_forcing_set(g, set(s))
        ]
        assert found == [lex_min(want)], sorted(g.edges)


@settings(max_examples=200, deadline=None)
@given(graphs(min_n=0, max_n=8))
def test_subset_search_equals_scan_sampled_n8(g):
    # Dense graphs are out of the scan's reach; the next test covers them.
    try:
        ref = subset_scan(g, Budget(max_nodes=2_000, max_seconds=60.0))
    except BudgetExceededError:
        assume(False)
    assert af_subset_search(g) == ref


def test_subset_search_agrees_with_matchings_sampled_n8():
    # Dense n = 8 graphs, where the scan above cannot finish.
    rng = random.Random(880816)
    for _ in range(30):
        g = random_connected_graph(rng, 8)
        a, b = af_subset_search(g), af_via_matchings(g)
        assert (a.value, a.witness) == (b.value, b.witness), sorted(g.edges)


@pytest.mark.parametrize("g,value", [(power(cycle(8), 3), 9), (complete(8), 12)])
def test_subset_search_finishes_dense_n8(g, value):
    a = af_subset_search(g, Budget())
    assert a.value == value
    assert a.witness == af_via_matchings(g).witness


@pytest.mark.parametrize(
    "g,value",
    [
        (power(cycle(10), 3), 9),
        (power(para_square_chain(3), 3), 9),
        (power(path(12), 4), 8),
        (complete(10), 20),
        (power(cycle(10), 4), 16),
    ],
    ids=["C10^3", "para-chain3^3", "P12^4", "K10", "C10^4"],
)
def test_subset_search_agrees_with_matchings_n10_to_12(g, value):
    a = af_subset_search(g, Budget())
    b = af_via_matchings(g, Budget())
    assert a.value == value
    assert (a.value, a.witness) == (b.value, b.witness)


@pytest.mark.parametrize(
    "g,value",
    [(power(path(16), 4), 12), (power(cycle(14), 4), 18), (power(path(22), 3), 11)],
    ids=["P16^4", "C14^4", "P22^3"],
)
def test_via_matchings_reaches_past_n14(g, value):
    res = af_via_matchings(g, Budget())
    assert res.value == value
    assert is_anti_forcing_set(g, res.witness)


def test_via_matchings_budget():
    with pytest.raises(BudgetExceededError) as exc:
        af_via_matchings(complete(10), Budget(max_nodes=100, max_seconds=60.0))
    assert exc.value.upper is None  # no matching was solved


def test_via_matchings_budget_carries_upper_bound():
    g = complete(6)
    full = Budget(max_seconds=60.0)
    value = af_via_matchings(g, full).value
    # One node short: the budget runs out while the witness is refined,
    # after the value was proven on the one orbit of K_6's matchings, so
    # both bounds are exact.
    short = Budget(max_nodes=full.nodes - 1, max_seconds=60.0)
    with pytest.raises(BudgetExceededError) as exc:
        af_via_matchings(g, short)
    assert exc.value.upper == value
    assert exc.value.lower == value
    assert short.nodes == full.nodes


def test_via_matchings_budget_bounds_bracket_the_value():
    # Whichever layer the budget runs out in, the bounds it carries hold.
    # Phase 1 stops with af(G) >= min(best, p(M)) for the representative
    # M being solved, which is short of the value while best is unknown
    # or p(M) is below it.
    from_phase_1 = 0
    for g in (power(cycle(10), 3), power(path(10), 3), power(path(12), 4)):
        full = Budget(max_seconds=60.0)
        value = af_via_matchings(g, full).value
        for nodes in range(1, full.nodes, max(1, full.nodes // 60)):
            with pytest.raises(BudgetExceededError) as exc:
                af_via_matchings(g, Budget(max_nodes=nodes, max_seconds=60.0))
            lower, upper = exc.value.lower, exc.value.upper
            assert lower is None or lower <= value, (g.n, nodes)
            assert upper is None or value <= upper, (g.n, nodes)
            from_phase_1 += lower is not None and (upper is None or lower < value)
    assert from_phase_1


def full_family(g, m):
    """The free sides of every m-alternating cycle, as the engine expects them."""
    return sorted(alternating_cycles(g, m), key=int.bit_count)


def test_lazy_loop_equals_the_full_cycle_family(atlas):
    # Per PM, the family grown from the short cycles gives the value and
    # the lexicographically smallest cover that all cycles give. Started
    # instead from M's p(M) alternating 4-cycle pairs, with the smaller
    # edge of each pair as the first picks, the loop gives that same
    # cover when p(M) = af(G, M) and drops M (None) when p(M) < af(G, M).
    graphs = [g for g in (*atlas, *benchmark_random_graphs(0)) if g.n % 2 == 0]
    grown = checked = paired = dropped = 0
    for g in graphs:
        pms = enumerate_perfect_matchings(g)
        matchings = _Matchings(g, pms, Budget())
        matchings.scans = g.n // 2  # scans, then probes
        for m in pms:
            masks = full_family(g, m)
            value, found = _min_cover_size(masks, Budget())
            smallest = _lex_min_cover(masks, value, found, Budget())
            seed = alternating_cycles(g, m, longest=SEED_LENGTH)
            family, size, cover = _cover_lazily(m, matchings, seed)
            assert size == value, (sorted(g.edges), m)
            assert _cover_lazily(m, matchings, seed, below=value) is None
            first = _lex_min_cover(family, size, cover, Budget())
            picks = _lex_min_lazily(m, matchings, family, size, first, None)
            assert picks == smallest, (sorted(g.edges), m)
            grown += len(family) > len(seed)
            checked += 1
            smaller, sides = _four_cycle_start(g, m, 0, 0)
            p = len(sides)
            picks = _lex_min_lazily(m, matchings, sides, p, smaller, None)
            if p == value:
                assert picks == smallest, (sorted(g.edges), m)
                paired += 1
            else:
                assert picks is None, (sorted(g.edges), m)
                dropped += 1
    assert grown and checked > 5000
    assert paired and dropped


@pytest.mark.parametrize(
    "g",
    [power(cycle(12), 3), power(path(12), 3), power(build("ortho-chain", 3), 3)],
    ids=["C12^3", "P12^3", "ortho-chain3^3"],
)
def test_via_matchings_leaves_no_cyclic_garbage(g):
    # C_12^3 walks every seed family and only scans its 336 PMs, P_12^3
    # reads its later seed families off the PM list, and ortho-chain(3)^3
    # builds the per-edge PM bitsets. A solve's one _Matchings object
    # holds no bound method or closure, so none of them is left for the
    # cyclic collector.
    gc.collect()
    af_via_matchings(g)
    assert gc.collect() == 0


def test_lazy_family_keeps_the_walk_order(atlas):
    # A family that did not grow is the seed family as handed over, the
    # walk's cycles by size: ties keep the order the walk yields them in.
    kept = 0
    for g in atlas:
        pms = enumerate_perfect_matchings(g)
        matchings = _Matchings(g, pms, Budget())
        matchings.scans = g.n // 2
        for m in pms:
            seed = alternating_cycles(g, m, longest=SEED_LENGTH)
            family = _cover_lazily(m, matchings, seed)[0]
            if len(family) == len(seed):
                assert family == seed, (sorted(g.edges), m)
                kept += 1
    assert kept


def test_list_read_is_the_walks_seed_family(atlas):
    # Per PM, the seed family read off the PM list holds the walk's
    # cycles, size by size, with no 4-edge side that is two 4-cycle
    # pairs, and it charges one node per PM read.
    dropped = 0
    for g in (*atlas, *benchmark_random_graphs(1)):
        pms = enumerate_perfect_matchings(g)
        for m in pms:
            budget = Budget()
            read = _listed_cycles(m, pms, budget)
            assert budget.nodes == len(pms)
            walk = alternating_cycles(g, m, longest=SEED_LENGTH)
            assert [s.bit_count() for s in read] == [s.bit_count() for s in walk]
            assert set(read) == set(walk), (sorted(g.edges), m)
            pairs = _four_cycle_start(g, m, 0, 0)[1]
            fours = [s for s in read if s.bit_count() == 4]
            assert not [s for s in fours for p in pairs if p & s == p], (sorted(g.edges), m)
            dropped += sum((b & ~m).bit_count() == 4 for b in pms) - len(fours)
    assert dropped


@pytest.mark.parametrize("scan", [0, 10**9])
def test_each_seed_source_gives_the_default_result(monkeypatch, atlas, scan):
    # SCAN_PER_NODE 0 walks every seed family; 10**9 reads every one but
    # M0's off the PM list. Either way, af_via_matchings gives the
    # default run's value and witness on the atlas and on criterion 1.
    graphs = [*atlas, *benchmark_family_graphs()]
    want = [af_via_matchings(g) for g in graphs]
    calls = []

    def read(*args):
        calls.append(args)
        return _listed_cycles(*args)

    monkeypatch.setattr(antiforce.antiforcing, "_listed_cycles", read)
    monkeypatch.setattr(antiforce.antiforcing, "SCAN_PER_NODE", scan)
    assert [af_via_matchings(g) for g in graphs] == want
    assert bool(calls) == bool(scan)


def test_list_read_charges_as_a_tick_per_pm(monkeypatch):
    # The read charges its PMs in bulk, but a node cap inside it raises
    # at cap + 1, and it reads the clock at the node counts where a tick
    # per PM reads it. C_12^4 has 1,716 PMs, so one read crosses several
    # multiples of 256, from every offset the charges before it leave.
    g = power(cycle(12), 4)
    pms = enumerate_perfect_matchings(g)
    reads = []
    monotonic = antiforce.budget.time.monotonic
    budget = None

    def counted():
        if budget is not None:
            reads.append(budget.nodes)
        return monotonic()

    def per_pm(m, pms, budget):
        for _ in pms:
            budget.tick()

    monkeypatch.setattr(antiforce.budget.time, "monotonic", counted)
    for charged in (0, 1, 100, 255, 256, 700):
        for cap in (charged + 1, charged + 300, charged + len(pms) - 1, None):
            got = []
            for read in (per_pm, _listed_cycles):
                budget = None
                budget = Budget() if cap is None else Budget(max_nodes=cap)
                budget.tick(charged)
                reads.clear()
                try:
                    read(pms[0], pms, budget)
                except BudgetExceededError:
                    assert budget.nodes == cap + 1
                else:
                    assert cap is None and budget.nodes == charged + len(pms)
                got.append((list(reads), budget.nodes))
            assert got[0] == got[1], (charged, cap)
            assert len(got[1][0]) >= 5 or cap is not None


ELEMENTS = 10


def encode(sets):
    """Distinct bitmasks of the sets, sorted by size as the engine expects."""
    return sorted({sum(1 << x for x in s) for s in sets}, key=int.bit_count)


def bits(xs):
    return sum(1 << x for x in xs)


def cover(sets):
    """Value and lexicographically smallest minimum hitting set."""
    masks = encode(sets)
    value, found = _min_cover_size(masks, Budget())
    return value, _lex_min_cover(masks, value, found, Budget())


def test_min_hitting_set_disjoint():
    assert cover([{0}, {2}, {4}]) == (3, [0, 2, 4])


def test_min_hitting_set_lex():
    a, b, c = 0, 1, 2
    assert cover([{a, b}, {b, c}]) == (1, [b])
    # Two optimal singletons: the smaller element wins.
    assert cover([{a, c}, {a, b, c}]) == (1, [a])
    assert cover([]) == (0, [])


def test_cover_engine_early_exits():
    masks = encode([{0, 1}, {2, 3}, {4, 5}])
    assert _min_cover_size(masks, Budget(), below=3) is None
    assert _min_cover_size(masks, Budget(), below=4) == (3, bits([0, 2, 4]))
    # The smallest cover is [0, 2, 4]: it loses to [0, 2, 3] at its third
    # pick, and beats [0, 3, 4] at its second. Started from [1, 3, 5],
    # the refinement searches for its first pick.
    start = bits([1, 3, 5])
    assert _lex_min_cover(masks, 3, start, Budget(), beat=[0, 2, 3]) is None
    assert _lex_min_cover(masks, 3, start, Budget(), beat=[0, 3, 4]) == [0, 2, 4]
    assert _lex_min_cover(masks, 3, start, Budget(), beat=[1, 2, 3]) == [0, 2, 4]


def test_lex_refinement_from_smallest_cover_runs_no_search():
    # Each pick of [0, 2, 4] is the lowest element left, so started from
    # that cover every pick is the cover's lowest bit and nothing is
    # searched; started from [1, 3, 5], the first pick, 0, is searched.
    masks = encode([{0, 1}, {2, 3}, {4, 5}])
    budget = Budget()
    assert _lex_min_cover(masks, 3, bits([0, 2, 4]), budget) == [0, 2, 4]
    assert budget.nodes == 0
    assert _lex_min_cover(masks, 3, bits([1, 3, 5]), budget) == [0, 2, 4]
    assert budget.nodes > 0


def test_lex_refinement_searches_the_remaining_sets(monkeypatch):
    # Started from [0, 3, 5], the first pick, 0, is the cover's lowest
    # bit and is taken without a search. The second is searched: 1 has
    # no completion, and 2 is completed by 3. Each search gets the sets
    # its candidate leaves as they stand: 2 leaves {3, 4} and {1, 3}. A
    # search for one element settles in its own node, with no call.
    masks = encode([{0, 4}, {2, 5}, {3, 4}, {1, 3}])
    searched = []

    def recorded(sets, k, budget):
        searched.append((sorted(sets), k))
        return _exists_cover(sets, k, budget)

    monkeypatch.setattr(antiforce.antiforcing, "_exists_cover", recorded)
    assert _lex_min_cover(masks, 3, bits([0, 3, 5]), Budget()) == [0, 2, 3]
    assert searched == [
        (sorted([bits([2, 5]), bits([3, 4])]), 1),  # candidate 1
        (sorted([bits([1, 3]), bits([3, 4])]), 1),  # candidate 2
    ]


def lowest_outside(g, m, size):
    """L(M), the ``size`` smallest edge indices of g outside m, as a list, for reference."""
    free = rest = ~m & ((1 << len(g.sorted_edges)) - 1)
    for _ in range(size):
        rest &= rest - 1
    return edge_indices(free ^ rest)


def four_cycle_bound(g, m, size, sides=None):
    """L4(M) at af(G, m) = ``size``, built as two lists and sorted, for reference.

    The smaller edge of each alternating 4-cycle pair {uw, ab} (a and b
    the mates of u and w), with the ``size`` - #pairs smallest other
    edges outside m. ``sides`` gets each pair's free side, in order of
    its smaller edge.
    """
    edges = g.sorted_edges
    mate = [0] * g.n
    for i in edge_indices(m):
        u, v = edges[i]
        mate[u], mate[v] = v, u
    smaller, other = [], []
    for i, (u, w) in enumerate(edges):
        a, b = mate[u], mate[w]
        if a == w:  # uw is in m
            continue
        j = g.edge_index.get((a, b) if a < b else (b, a))
        if j is not None and j > i:
            smaller.append(i)
            if sides is not None:
                sides.append(1 << i | 1 << j)
        else:
            other.append(i)
    fill = size - len(smaller)
    assert fill >= 0, "more disjoint alternating 4-cycles than af(G, m)"
    return sorted(smaller + other[:fill])


def test_four_cycle_bound_lies_between_the_cheap_bound_and_the_cover(atlas):
    # L(M) <= L4(M) <= M's lexicographically smallest cover, elementwise,
    # and the pair count p(M) that orders phase 1 is at most af(G, M).
    # An empty witness never stops the scan, so it hands over all of L4(M).
    raised = 0
    for g in atlas:
        for m in enumerate_perfect_matchings(g):
            value = af_of_matching(g, m).af_of_m
            p = len(_four_cycle_start(g, m, 0, 0)[1])
            assert p <= value
            masks = full_family(g, m)
            smallest = _lex_min_cover(masks, value, _min_cover_size(masks, Budget())[1], Budget())
            cheap = lowest_outside(g, m, value)
            bound = _four_cycle_start(g, m, value - p, 0)[0]
            assert len(cheap) == len(bound) == len(smallest) == value
            assert all(a <= b <= c for a, b, c in zip(cheap, bound, smallest)), (
                sorted(g.edges),
                m,
            )
            raised += bound != cheap
    assert raised


def test_four_cycle_scan_agrees_with_the_walk(atlas):
    # _four_cycle_start reads M's alternating 4-cycles off the mates, with
    # no walk: one pair side per cycle the walk finds, in order of its
    # lowest edge, and with room for every other edge, L4(M) is every
    # edge outside M.
    graphs = [g for g in (*atlas, *benchmark_random_graphs(0)) if g.n % 2 == 0]
    pairs = 0
    for g in graphs:
        for m in enumerate_perfect_matchings(g):
            bound, sides = _four_cycle_start(g, m, len(g.edges), 0)
            squares = alternating_cycles(g, m, longest=4)
            assert sides == sorted(squares, key=lambda c: c & -c)
            assert bound == lowest_outside(g, m, len(g.edges))
            pairs += len(sides)
    assert pairs == 728 + 20848  # the atlas, then the random graphs


def witnesses_to_test(g, m, prev, size):
    """Sorted edge lists of ``size`` to test M's bounds against.

    L(M) and L4(M) themselves, the lowest and the highest edges of g,
    which hold edges of M unless M has none there, and L(M') of the
    matching M' listed before M, when there is one.
    """
    out = [
        lowest_outside(g, m, size),
        four_cycle_bound(g, m, size),
        list(range(size)),
        list(range(len(g.edges) - size, len(g.edges))),
    ]
    return out + ([lowest_outside(g, prev, size)] if prev is not None else [])


def assert_bounds_decide_as_the_lists_do(g, m, size, witness):
    """Checks the mask stop and the one-scan start against the lists; returns (stop, skip)."""
    mask = sum(1 << e for e in witness)
    stop = lowest_outside(g, m, size) > witness
    assert _outside_exceeds(m, mask) == stop, (sorted(g.edges), m, witness)
    sides: list[int] = []
    bound = four_cycle_bound(g, m, size, sides)
    p = len(sides)
    skip = bound > witness
    start = _four_cycle_start(g, m, size - p, mask)
    assert start == (None if skip else (bound, sides)), (sorted(g.edges), m, witness)
    return stop, skip


def test_mask_stop_and_one_scan_skip_decide_as_the_lists_do(atlas):
    # Phase 2 stops at a matching M when L(M) exceeds the witness, and
    # skips it when L4(M) does. The mask test and the one-scan start
    # decide exactly as the sorted lists compare, and a start that is not
    # skipped hands over the L4(M) and pair sides the lists give. Sizes
    # run from p(M), an empty witness when that is 0, to two above it.
    seen = set()
    empty = 0
    for g in (*atlas, *benchmark_random_graphs(0)):
        free = len(g.edges) - g.n // 2
        counts: list[int] = []
        pms = enumerate_perfect_matchings(g, four_cycles=counts)
        for prev, m, p in zip([None, *pms], pms, counts):
            for size in range(p, min(p + 2, free) + 1):
                for witness in witnesses_to_test(g, m, prev, size):
                    stop, skip = assert_bounds_decide_as_the_lists_do(g, m, size, witness)
                    seen.add((stop, skip, bool(sum(1 << e for e in witness) & m)))
                    empty += not witness
    # Stopped, skipped or neither, with witnesses that hold edges of M and
    # ones that do not; a witness of free edges alone never stops.
    kept = {(False, skip, held) for skip in (False, True) for held in (False, True)}
    assert seen == {(True, True, True)} | kept
    assert empty


def cover_first(family, value, budget, beat):
    """The refinement from a cover in hand, found by an unbounded cover search first."""
    cover = _exists_cover(family, value, budget)
    return None if cover is None else _lex_min_cover(family, value, cover, budget, beat)


def test_phase_two_decides_as_the_old_path_on_criterion_1(monkeypatch):
    # The same, at every mask stop, one-scan start and refinement with no
    # cover in hand that phase 2 makes on the 99 criterion-1 instances,
    # against the witness in hand: the stop and the skip decide as the
    # lists do, and the refinement returns what the cover-first one does.
    seen = []
    graph = {}
    stop_of, start_of, refine_of = _outside_exceeds, _four_cycle_start, _lex_min_cover

    def stop(m, witness):
        g = graph["g"]
        seen.append(("stop", lowest_outside(g, m, witness.bit_count()) > edge_indices(witness)))
        assert stop_of(m, witness) == seen[-1][1], (sorted(g.edges), m)
        return seen[-1][1]

    def start(g, m, fill, witness):
        size = witness.bit_count()
        decided = assert_bounds_decide_as_the_lists_do(g, m, size, edge_indices(witness))
        seen.append(("skip", decided[1]))
        return start_of(g, m, fill, witness)

    def refine(masks, value, cover, budget, beat=None):
        got = refine_of(masks, value, cover, budget, beat)
        if cover is None:
            assert got == cover_first(masks, value, Budget(), beat), sorted(graph["g"].edges)
            seen.append(("dropped", got is None))
        return got

    monkeypatch.setattr(antiforce.antiforcing, "_outside_exceeds", stop)
    monkeypatch.setattr(antiforce.antiforcing, "_four_cycle_start", start)
    monkeypatch.setattr(antiforce.antiforcing, "_lex_min_cover", refine)
    for g in benchmark_family_graphs():
        graph["g"] = g
        af_via_matchings(g, Budget(max_seconds=60.0))
    assert set(seen) == {(kind, b) for kind in ("stop", "skip", "dropped") for b in (False, True)}


def test_bounded_refinement_returns_what_the_cover_first_one_does(atlas):
    # After each probe, _lex_min_lazily refines the grown family with no
    # cover in hand and the witness as ``beat``. The family's minimum is
    # at least the size, so that returns the picks, or None, that an
    # unbounded cover search and the refinement from its cover give.
    # Each matching is refined from its seed family at af(G, M) and from
    # its 4-cycle pairs at p(M), against no witness, L(M), L4(M) and the
    # highest edges. On C_6, p(M) = 0 and no cover has that size.
    c6 = cycle(6)
    outcomes = set()
    no_room = []
    for g in (c6, *atlas, *benchmark_random_graphs(0)):
        if g.n % 2:
            continue
        pms = enumerate_perfect_matchings(g)
        matchings = _Matchings(g, pms, Budget())
        for m in pms:
            family, value, cover = _cover_lazily(m, matchings, matchings.seeds(m))
            smaller, sides = _four_cycle_start(g, m, 0, 0)
            first = _lex_min_cover(family, value, cover, Budget())
            starts = [(family, value, first), (sides, len(sides), smaller)]
            for family, size, picks in starts:
                cheap, bound, _, high = witnesses_to_test(g, m, None, size)
                beats = [None, cheap, bound, high]
                while picks is not None:
                    missed = matchings.missed(m, sum(1 << e for e in picks))
                    if not missed:
                        break
                    family = _grown(family, missed)
                    for beat in beats:
                        got = _lex_min_cover(family, size, None, Budget(), beat)
                        want = cover_first(family, size, Budget(), beat)
                        assert got == want, (sorted(g.edges), m)
                        outcomes.add((beat is None, got is None))
                    if size == 0:
                        no_room.append(g)
                    picks = cover_first(family, size, Budget(), None)
    assert outcomes == {(b, n) for b in (False, True) for n in (False, True)}
    assert c6 in no_room


def test_pair_table_counts_the_four_cycle_pairs(atlas):
    # p(M), summed by the listing walk from each matched edge's pair row,
    # is the scan's pair count and route one's swap count on every
    # matching. Asking for it leaves the list and the nodes charged as
    # they are without it.
    graphs = [g for g in (*atlas, *benchmark_random_graphs(0)) if g.n % 2 == 0]
    pairs = 0
    for g in graphs:
        plain, counted = Budget(), Budget()
        counts: list[int] = []
        pms = enumerate_perfect_matchings(g, budget=counted, four_cycles=counts)
        assert pms == enumerate_perfect_matchings(g, budget=plain)
        assert counted.nodes == plain.nodes
        assert counts == [len(_four_cycle_start(g, m, 0, 0)[1]) for m in pms]
        assert counts == [_swaps(g, m) for m in pms]
        pairs += sum(counts)
    assert pairs == 728 + 20848  # the atlas, then the random graphs


set_systems = st.lists(
    st.sets(st.integers(0, ELEMENTS - 1), min_size=1, max_size=ELEMENTS), max_size=8
)


@settings(max_examples=300, deadline=None)
@given(set_systems, st.integers(0, ELEMENTS + 1), st.data())
def test_cover_engine_matches_brute_force(sets, below, data):
    # Size by size, combinations come in lexicographic order, so the
    # first hitting set found is the lexicographically smallest minimum.
    covers = (
        list(c)
        for k in range(ELEMENTS + 1)
        for c in combinations(range(ELEMENTS), k)
        if all(s & set(c) for s in sets)
    )
    ref = next(covers)
    size = len(ref)
    assert cover(sets) == (size, ref)
    masks = encode(sets)
    value, found = _min_cover_size(masks, Budget())
    assert value == size and found.bit_count() == size
    assert all(s & found for s in masks)
    assert _min_cover_size(masks, Budget(), below) == (
        (size, found) if size < below else None
    )
    # Whichever minimum cover the refinement starts from, the answer is
    # the same.
    minimum = [ref, *takewhile(lambda c: len(c) == size, covers)]
    start = bits(data.draw(st.sampled_from(minimum)))
    assert _lex_min_cover(masks, size, start, Budget()) == ref
    beat = sorted(data.draw(st.sets(st.integers(0, ELEMENTS - 1), min_size=size, max_size=size)))
    assert _lex_min_cover(masks, size, start, Budget(), beat) == (None if ref > beat else ref)


def recursive_exists_cover(masks, k, budget):
    """``_exists_cover`` as plain recursion down to k = 0, for reference.

    It branches on every element of the first set at every node, with its
    own greedy packing count as the only prune. The search under test
    settles its last two levels without a call and branches on a forced
    element at a tight node: it must find a cover exactly when this does.
    """
    if not masks:
        return 0
    if k <= 0:
        return None
    budget.tick()
    taken = count = 0
    for s in masks:
        if not s & taken:
            count += 1
            taken |= s
    if count > k:
        return None
    t = masks[0]
    while t:
        low = t & -t
        found = recursive_exists_cover([s for s in masks if not s & low], k - 1, budget)
        if found is not None:
            return found | low
        t ^= low
    return None


def ticks_saved_on(masks, k, where):
    """Checks the search against the reference; returns the ticks it saves.

    The search returns None exactly when the reference does, and otherwise
    a cover of at most k elements. A forced element need not lie in the
    first set, so one search can charge more ticks than the reference.
    """
    ref, new = Budget(), Budget()
    want = recursive_exists_cover(masks, k, ref)
    found = _exists_cover(masks, k, new)
    assert (found is None) == (want is None), where
    if found is not None:
        assert found.bit_count() <= max(k, 0), where  # no sets give 0 at any k
        assert all(s & found for s in masks), where
    return ref.nodes - new.nodes


@settings(max_examples=300, deadline=None)
@given(set_systems)
def test_cover_search_agrees_with_the_recursion_on_set_systems(sets):
    masks = encode(sets)
    for k in range(ELEMENTS + 2):
        ticks_saved_on(masks, k, (sets, k))


def test_cover_search_branches_on_a_forced_element():
    # The pairs {0, 1}, {2, 3}, {4, 5} pack three sets at k = 3, so every
    # cover lies in their union and {1, 6} forces 1. The plain recursion
    # tries 0 first and fails below it; the search takes 1 at once.
    masks = [bits([0, 1]), bits([2, 3]), bits([4, 5]), bits([1, 6])]
    assert _packing_bound(masks) == (3, bits(range(6)))
    budget = Budget()
    assert _exists_cover(masks, 3, budget) == bits([1, 2, 4])
    assert budget.nodes == 3
    assert ticks_saved_on(masks, 3, "forced") == 1


def test_cover_search_agrees_with_the_recursion_on_seed_families(atlas):
    # Each PM's seed family at its minimum, where a cover is found, and
    # one below it, where the whole tree is walked and none is. Over the
    # corpus, the forced branch charges fewer ticks than the reference.
    settled = saved = 0
    for g in (*atlas, *benchmark_random_graphs(0)):
        for m in enumerate_perfect_matchings(g):
            family = sorted(alternating_cycles(g, m, longest=SEED_LENGTH), key=int.bit_count)
            value = _min_cover_size(family, Budget())[0]
            for k in (value, value - 1):
                saved += ticks_saved_on(family, k, (sorted(g.edges), m, k))
            settled += value >= 2
    assert settled and saved > 0


@settings(max_examples=40, deadline=None)
@given(graphs(min_n=2, max_n=6))
def test_methods_agree(g):
    a, b = af_subset_search(g), af_via_matchings(g)
    assert a.value == b.value
    # S of size af(G) is disjoint from the unique PM of G - S, so the
    # first subset found is also the smallest witness of the matchings.
    assert a.witness == b.witness


@settings(max_examples=40, deadline=None)
@given(graphs(min_n=2, max_n=6))
def test_witness_verifies(g):
    res = af_via_matchings(g)
    if res.method == "via_matchings":
        assert is_anti_forcing_set(g, res.witness)


@settings(max_examples=40, deadline=None)
@given(graphs(min_n=2, max_n=6))
def test_zero_iff_unique_pm(g):
    if g.n % 2 == 0 and g.edges:
        zero = af_subset_search(g).value == 0
        assert zero == (count_pms_excluding(g, cap=2) == 1)


@settings(max_examples=30, deadline=None)
@given(graphs(min_n=2, max_n=6))
def test_sandwich_per_matching(g):
    slack = max(map(len, g.incident_edges), default=0) - 1
    for m in enumerate_perfect_matchings(g):
        analysis = af_of_matching(g, m)
        assert analysis.f_of_m <= analysis.af_of_m <= slack * analysis.f_of_m
