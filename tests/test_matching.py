import gc
import random
import subprocess
import sys
from itertools import permutations

import networkx as nx
import pytest
from hypothesis import given, settings

from antiforce import (
    Budget,
    BudgetExceededError,
    Graph,
    af_via_matchings,
    alternating_cycles,
    complete,
    count_pms_excluding,
    cycle,
    enumerate_perfect_matchings,
    friendship,
    has_perfect_matching,
    path,
    power,
)
from conftest import (
    complete_joined_to_star,
    edges_of,
    graph_to_nx,
    graphs,
    is_perfect_matching,
    mask_of,
    random_connected_graph,
)


def bipartite_pm_count(left: int, right: int, edges: set[tuple[int, int]]) -> int:
    """Permanent of the biadjacency matrix, by brute force."""
    if left != right:
        return 0
    count = 0
    for perm in permutations(range(right)):
        if all((u, left + perm[u]) in edges for u in range(left)):
            count += 1
    return count


def test_is_perfect_matching():
    g = path(4)  # edges (0, 1), (1, 2), (2, 3) are bits 0, 1, 2
    assert is_perfect_matching(g, 0b101)
    assert not is_perfect_matching(g, 0b010)  # leaves 0 and 3 bare
    assert not is_perfect_matching(g, 0b011)  # two edges at 1
    assert not is_perfect_matching(g, 0b1001)  # bit 3 is no edge of g
    assert not is_perfect_matching(g, -1)
    assert is_perfect_matching(Graph(0), 0)


def symmetric_difference_cycles(m1: set, m2: set) -> list[set[int]]:
    """Vertex sets of the cycles formed by two distinct perfect matchings."""
    diff = (m1 - m2) | (m2 - m1)
    nbrs: dict[int, list[int]] = {}
    for u, v in diff:
        nbrs.setdefault(u, []).append(v)
        nbrs.setdefault(v, []).append(u)
    comps: list[set[int]] = []
    seen: set[int] = set()
    for s in nbrs:
        if s in seen:
            continue
        comp = {s}
        stack = [s]
        seen.add(s)
        while stack:
            u = stack.pop()
            for w in nbrs[u]:
                if w not in seen:
                    seen.add(w)
                    comp.add(w)
                    stack.append(w)
        comps.append(comp)
    return comps


def blossom_has_pm(g: Graph) -> bool:
    """Reference: networkx's maximum-cardinality matching covers every vertex."""
    return 2 * len(nx.max_weight_matching(graph_to_nx(g), maxcardinality=True)) == g.n


def test_has_perfect_matching():
    assert has_perfect_matching(path(4))
    assert not has_perfect_matching(path(5))
    assert not has_perfect_matching(friendship(2))
    assert has_perfect_matching(Graph(0))


def test_has_perfect_matching_matches_blossom_on_atlas(atlas):
    assert all(has_perfect_matching(g) == blossom_has_pm(g) for g in atlas)


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=10))
def test_has_perfect_matching_matches_blossom(g):
    assert has_perfect_matching(g) == blossom_has_pm(g)


def test_no_pm_behind_a_star():
    g = complete_joined_to_star(10)
    assert not has_perfect_matching(g)
    res = af_via_matchings(g)
    assert res.method == "convention_no_pm" and res.value == len(g.edges)


def test_no_pm_search_is_charged_to_budget():
    with pytest.raises(BudgetExceededError):
        enumerate_perfect_matchings(
            complete_joined_to_star(14), budget=Budget(max_nodes=100)
        )


def test_import_leaves_networkx_out():
    code = "import sys, antiforce; print('networkx' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_enumeration_known_counts():
    assert len(enumerate_perfect_matchings(path(6))) == 1
    assert len(enumerate_perfect_matchings(cycle(6))) == 2
    assert count_pms_excluding(complete(4)) == 3
    # (2t-1)!! for complete graphs.
    assert count_pms_excluding(complete(6)) == 15
    assert count_pms_excluding(complete(8)) == 105
    assert count_pms_excluding(path(5)) == 0
    assert count_pms_excluding(friendship(3)) == 0


def test_enumeration_is_lexicographic():
    g = complete(4)
    assert [sorted(edges_of(g, m)) for m in enumerate_perfect_matchings(g)] == [
        [(0, 1), (2, 3)],
        [(0, 2), (1, 3)],
        [(0, 3), (1, 2)],
    ]
    g = cycle(6)
    pms = enumerate_perfect_matchings(g)
    assert sorted(edges_of(g, pms[0])) == [(0, 1), (2, 3), (4, 5)]
    assert sorted(edges_of(g, pms[1])) == [(0, 5), (1, 2), (3, 4)]


def test_enumeration_cap():
    assert len(enumerate_perfect_matchings(complete(8), cap=5)) == 5
    with pytest.raises(ValueError):
        enumerate_perfect_matchings(complete(4), cap=0)


@pytest.mark.parametrize("cap", [0, 2.5, True, "2"])
def test_every_walk_rejects_a_cap_that_is_not_a_positive_integer(cap):
    # path(3) has no perfect matching: the cap is checked all the same.
    for walk in (count_pms_excluding, enumerate_perfect_matchings):
        for g in (complete(6), path(3)):
            with pytest.raises(ValueError, match="cap must be a positive integer or None"):
                walk(g, cap=cap)


def test_empty_graph_has_one_pm():
    assert enumerate_perfect_matchings(Graph(0)) == [0]
    assert count_pms_excluding(Graph(0), cap=2) == 1


def test_unique_pm():
    assert count_pms_excluding(path(4), cap=2) == 1
    assert count_pms_excluding(cycle(4), cap=2) == 2
    assert count_pms_excluding(path(3), cap=2) == 0


def test_count_excluding_reads_either_edge_order_and_rejects_non_edges():
    g = cycle(4)
    assert count_pms_excluding(g, frozenset({(1, 0)})) == 1
    assert count_pms_excluding(g, {(1, 0), (0, 1)}) == 1
    with pytest.raises(ValueError, match=r"edges not in graph: \[\(0, 2\)\]"):
        count_pms_excluding(g, frozenset({(2, 0)}))


def test_count_excluding_matches_subgraph():
    g = complete(6)
    removed = frozenset({(0, 1), (2, 3)})
    direct = count_pms_excluding(Graph(g.n, g.edges - removed))
    assert count_pms_excluding(g, removed) == direct
    assert count_pms_excluding(g, cap=4) == 4  # capped


def test_bipartite_counts_match_permanent():
    rng = random.Random(170681)
    for _ in range(40):
        t = rng.randint(1, 5)
        edges = {
            (u, t + v)
            for u in range(t)
            for v in range(t)
            if rng.random() < 0.6
        }
        g = Graph(2 * t, frozenset(edges))
        assert count_pms_excluding(g) == bipartite_pm_count(t, t, edges)


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=7))
def test_count_agrees_with_enumeration(g):
    pms = enumerate_perfect_matchings(g)
    assert count_pms_excluding(g) == len(pms)
    assert count_pms_excluding(g, cap=2) == min(len(pms), 2)
    for m in pms:
        assert is_perfect_matching(g, m)


def test_alternating_cycles_hexagon():
    g = cycle(6)
    m = mask_of(g, {(0, 1), (2, 3), (4, 5)})
    cycles = alternating_cycles(g, m)
    assert [edges_of(g, free) for free in cycles] == [{(1, 2), (3, 4), (0, 5)}]


def test_alternating_cycles_k4():
    g = complete(4)
    m = mask_of(g, {(0, 1), (2, 3)})
    cycles = alternating_cycles(g, m)
    assert [edges_of(g, free) for free in cycles] == [{(1, 2), (0, 3)}, {(1, 3), (0, 2)}]


def test_alternating_cycles_leave_no_cyclic_garbage():
    g = complete(8)
    m = enumerate_perfect_matchings(g)[0]
    gc.collect()
    alternating_cycles(g, m)
    assert gc.collect() == 0


def test_pm_enumeration_leaves_no_cyclic_garbage():
    g = power(cycle(8), 3)
    gc.collect()
    has_perfect_matching(g)
    enumerate_perfect_matchings(g)
    for _ in range(100):
        count_pms_excluding(g, frozenset(), cap=2)
    assert gc.collect() == 0


def test_alternating_cycles_are_single_cycle_differences_on_atlas(atlas):
    # Every m-alternating cycle's free side is m2 - m for a perfect
    # matching m2 whose difference from m is that one cycle, and each such
    # m2 gives a cycle. No two cycles share a free side.
    for g in atlas:
        pms = enumerate_perfect_matchings(g) if g.n % 2 == 0 else []
        for m in pms:
            expected = {
                m2 & ~m
                for m2 in pms
                if m2 != m
                and len(symmetric_difference_cycles(edges_of(g, m), edges_of(g, m2))) == 1
            }
            cycles = alternating_cycles(g, m)
            assert set(cycles) == expected
            assert len(set(cycles)) == len(cycles)


def test_capped_walk_is_the_uncapped_list_filtered_by_length(atlas):
    # The cap only stops paths that could close no cycle short enough, so
    # the capped list is the uncapped one, in order, without the longer
    # cycles. A cycle of length 2k has k free edges.
    # Every PM of the atlas (at most 15 per graph), and the first 40 of
    # two denser graphs, whose cycles run up to length 10 and 8.
    extra = (power(cycle(10), 3), complete(8))
    checked = 0
    for g in (*atlas, *extra):
        pms = enumerate_perfect_matchings(g) if g.n % 2 == 0 else []
        for m in pms[:40]:
            full = alternating_cycles(g, m)
            for longest in range(g.n + 2):
                want = [c for c in full if 2 * c.bit_count() <= longest]
                assert alternating_cycles(g, m, longest=longest) == want
                checked += bool(want) and want != full
    assert checked > 100


def test_alternating_cycles_requires_pm(atlas):
    c6 = cycle(6)
    with pytest.raises(ValueError):
        alternating_cycles(c6, 0b1)  # the edge (0, 1) alone
    with pytest.raises(ValueError):
        alternating_cycles(cycle(4), 1 << 4)  # a bit past the last edge
    with pytest.raises(ValueError):
        alternating_cycles(c6, -1)
    with pytest.raises(ValueError):
        alternating_cycles(c6, mask_of(c6, {(0, 1), (1, 2), (3, 4)}))  # 1 met twice
    with pytest.raises(ValueError):
        alternating_cycles(c6, mask_of(c6, {(0, 1), (2, 3), (4, 5), (1, 2)}))  # n/2 + 1
    # Sampled masks, from a negative one to bits past the last edge: any
    # int, any n/2 bits, or a PM with two bits flipped or none. ValueError
    # is raised exactly when the mask is not a PM.
    rng = random.Random(300)
    raised = passed = 0
    for g in atlas:
        if g.n > 6:
            continue
        width = len(g.sorted_edges) + 2
        pms = enumerate_perfect_matchings(g) or [0]
        for _ in range(30):
            kind = rng.randrange(3)
            if kind == 0:
                m = rng.randrange(-3, 1 << width)
            elif kind == 1:
                m = sum(1 << i for i in rng.sample(range(width), min(g.n // 2, width)))
            else:
                flips = 1 << rng.randrange(width) | 1 << rng.randrange(width)
                m = rng.choice(pms) ^ rng.choice((0, flips))
            try:
                alternating_cycles(g, m)
            except ValueError:
                raised += 1
                assert not is_perfect_matching(g, m), (sorted(g.edges), m)
            else:
                passed += 1
                assert is_perfect_matching(g, m), (sorted(g.edges), m)
    assert raised > 2000 and passed > 400


def test_unique_iff_no_alternating_cycle_on_atlas(atlas):
    checked = 0
    for g in atlas:
        if g.n % 2:
            continue
        pms = enumerate_perfect_matchings(g)
        for m in pms:
            has_cycle = bool(alternating_cycles(g, m))
            assert has_cycle == (len(pms) > 1)
            checked += 1
    assert checked > 200


def test_unique_iff_no_alternating_cycle_sampled_n8():
    rng = random.Random(880816)
    for _ in range(150):
        g = random_connected_graph(rng, 8)
        pms = enumerate_perfect_matchings(g)
        for m in pms:
            assert bool(alternating_cycles(g, m)) == (len(pms) > 1)


def test_symmetric_difference_cycles():
    m1 = frozenset({(0, 1), (2, 3), (4, 5)})
    m2 = frozenset({(0, 5), (1, 2), (3, 4)})
    comps = symmetric_difference_cycles(m1, m2)
    assert comps == [{0, 1, 2, 3, 4, 5}]
    assert symmetric_difference_cycles(m1, m1) == []
    # Two disjoint squares.
    a = frozenset({(0, 1), (2, 3), (4, 5), (6, 7)})
    b = frozenset({(0, 3), (1, 2), (4, 7), (5, 6)})
    comps = symmetric_difference_cycles(a, b)
    assert sorted(sorted(c) for c in comps) == [[0, 1, 2, 3], [4, 5, 6, 7]]


@settings(max_examples=40, deadline=None)
@given(graphs(max_n=6))
def test_two_pms_differ_by_alternating_cycles(g):
    pms = enumerate_perfect_matchings(g)
    for i in range(len(pms)):
        for j in range(i + 1, len(pms)):
            comps = symmetric_difference_cycles(edges_of(g, pms[i]), edges_of(g, pms[j]))
            assert comps
            for comp in comps:
                assert len(comp) % 2 == 0 and len(comp) >= 4


def test_enumeration_budget():
    with pytest.raises(BudgetExceededError):
        count_pms_excluding(complete(10), budget=Budget(max_nodes=50, max_seconds=60.0))
