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
    complete,
    cycle,
    enumerate_perfect_matchings,
    friendship,
    is_anti_forcing_set,
    max_degree,
    para_square_chain,
    path,
    power,
)
import antiforce.antiforcing
from antiforce.antiforcing import (
    SEED_LENGTH,
    _anti_forcing_sets,
    _cover_lazily,
    _exists_cover,
    _four_cycle_bound,
    _four_cycle_pairs,
    _least_packing,
    _lex_min_cover,
    _lex_min_lazily,
    _lowest_outside,
    _min_cover_size,
)
from antiforce.matching import alternating_cycles, count_pms_excluding
from conftest import benchmark_random_graphs, graphs, mask_of, random_connected_graph


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
    assert analysis.matching == m


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
    for g in atlas:
        pms = enumerate_perfect_matchings(g)
        least = _least_packing(g, pms, Budget())
        # The swap shortcut skips no matching that would lower the least.
        assert least == plain_least(pms), sorted(g.edges)
        assert least <= subset_scan(g).value, sorted(g.edges)


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
    # listing and the pass, the search is already at size 20.
    g = complete(10)
    listing = Budget()
    pms = enumerate_perfect_matchings(g, budget=listing)
    with pytest.raises(BudgetExceededError) as exc:
        af_subset_search(g, Budget(max_nodes=listing.nodes + len(pms) + 1, max_seconds=60.0))
    assert exc.value.lower == 20


def test_subset_search_calls_nothing_of_route_two(atlas, monkeypatch):
    want = [af_subset_search(g) for g in atlas]

    def boom(*args, **kwargs):
        raise AssertionError("the subset search called route two")

    for name in (
        "alternating_cycles",
        "_exists_cover",
        "_packing_bound",
        "_four_cycle_pairs",
        "pm_orbits",
    ):
        monkeypatch.setattr(antiforce.antiforcing, name, boom)
    assert [af_subset_search(g) for g in atlas] == want


def holding_of(pms):
    """Bit j of entry i is set when the edge bitmask pms[j] holds edge i."""
    width = max(p.bit_length() for p in pms)
    return [sum(1 << j for j, p in enumerate(pms) if p >> i & 1) for i in range(width)]


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


def test_subset_search_walks_the_list_search_tree(atlas):
    # Same sets in the same order, and one tick per node of the same
    # tree, at every deepening size up to the value.
    for g in (*atlas, power(cycle(8), 3)):
        pms = enumerate_perfect_matchings(g)
        if not pms:
            continue
        holding, alive = holding_of(pms), (1 << len(pms)) - 1
        for size in range(af_subset_search(g).value + 1):
            ref_ticks, ref_found = count(), []
            list_anti_forcing_sets(pms, 0, 0, size, lambda: next(ref_ticks), ref_found)
            ticks, found = count(), []
            _anti_forcing_sets(pms, holding, alive, 0, 0, size, lambda: next(ticks), found)
            assert (found, next(ticks)) == (ref_found, next(ref_ticks)), (sorted(g.edges), size)


def test_subset_search_reaches_each_minimum_set_once(atlas):
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
        assert sorted(found) == sorted(want), sorted(g.edges)


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
    ],
    ids=["C10^3", "para-chain3^3", "P12^4"],
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
    with pytest.raises(BudgetExceededError) as exc:
        af_via_matchings(g, Budget(max_nodes=full.nodes - 1, max_seconds=60.0))
    assert exc.value.upper == value
    assert exc.value.lower == value
    assert exc.value.nodes_used == full.nodes


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
    # the lexicographically smallest cover that all cycles give.
    graphs = [g for g in (*atlas, *benchmark_random_graphs(0)) if g.n % 2 == 0]
    grown = checked = 0
    for g in graphs:
        pms = enumerate_perfect_matchings(g)
        for m in pms:
            masks = full_family(g, m)
            value, found = _min_cover_size(masks, Budget())
            smallest = _lex_min_cover(masks, value, found, Budget())
            family, size, cover = _cover_lazily(g, m, pms, Budget())
            assert size == value, (sorted(g.edges), m)
            assert _cover_lazily(g, m, pms, Budget(), below=value) is None
            picks = _lex_min_lazily(m, pms, family, size, cover, Budget(), None)
            assert picks == smallest, (sorted(g.edges), m)
            seed = alternating_cycles(g, m, longest=SEED_LENGTH)
            grown += len(family) > len(seed)
            checked += 1
    assert grown and checked > 5000


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


def test_lex_refinement_searches_the_cut_sets(monkeypatch):
    # Started from [0, 3, 5], the first pick, 0, is the cover's lowest
    # bit and is taken without a search. The second is searched: 1 has
    # no completion, and 2 is completed by 3. The sets 2 leaves are
    # {3, 4} and {1, 3}; its search sees them cut to the bits above 2,
    # and never branches on 1, which no completion uses.
    masks = encode([{0, 4}, {2, 5}, {3, 4}, {1, 3}])
    searched = []

    def recorded(sets, k, budget):
        searched.append((sorted(sets), k))
        return _exists_cover(sets, k, budget)

    monkeypatch.setattr(antiforce.antiforcing, "_exists_cover", recorded)
    assert _lex_min_cover(masks, 3, bits([0, 3, 5]), Budget()) == [0, 2, 3]
    assert searched == [
        (sorted([bits([2, 5]), bits([3, 4])]), 1),  # candidate 1
        (sorted([bits([3]), bits([3, 4])]), 1),  # candidate 2
        ([], 0),  # the search's own branch on 3
    ]


def test_four_cycle_bound_lies_between_the_cheap_bound_and_the_cover(atlas):
    # L(M) <= L4(M) <= M's lexicographically smallest cover, elementwise,
    # and the pair count p(M) that orders phase 1 is at most af(G, M).
    raised = 0
    for g in atlas:
        for m in enumerate_perfect_matchings(g):
            value = af_of_matching(g, m).af_of_m
            assert len(_four_cycle_pairs(g, m)[0]) <= value
            masks = full_family(g, m)
            smallest = _lex_min_cover(masks, value, _min_cover_size(masks, Budget())[1], Budget())
            cheap = _lowest_outside(g, m, value)
            bound = _four_cycle_bound(g, m, value)
            assert len(cheap) == len(bound) == len(smallest) == value
            assert all(a <= b <= c for a, b, c in zip(cheap, bound, smallest)), (
                sorted(g.edges),
                m,
            )
            raised += bound != cheap
    assert raised


def test_four_cycle_scan_agrees_with_the_walk(atlas):
    # _four_cycle_pairs reads M's alternating 4-cycles off the mates, with
    # no walk: one pair per cycle the walk finds, its smaller edge the
    # lowest bit of that cycle's free side, and every other edge outside
    # M in the second list.
    graphs = [g for g in (*atlas, *benchmark_random_graphs(0)) if g.n % 2 == 0]
    pairs = 0
    for g in graphs:
        for m in enumerate_perfect_matchings(g):
            smaller, other = _four_cycle_pairs(g, m)
            squares = alternating_cycles(g, m, longest=4)
            assert len(smaller) == len(squares)
            assert smaller == sorted((c & -c).bit_length() - 1 for c in squares)
            assert sorted(smaller + other) == _lowest_outside(g, m, len(g.edges))
            pairs += len(smaller)
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
    slack = max_degree(g) - 1
    for m in enumerate_perfect_matchings(g):
        analysis = af_of_matching(g, m)
        assert analysis.f_of_m <= analysis.af_of_m <= slack * analysis.f_of_m
