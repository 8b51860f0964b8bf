"""The automorphism layer, and the orbit-reduced matching route built on it.

Group orders are checked against networkx's VF2 matcher, and the
perfect-matching orbits against a union-find reference written here. The
reduced route is checked against an unreduced reference written here:
every perfect matching solved, the lexicographically smallest witness
taken over every optimal one.
"""

import random
from collections import Counter

import networkx as nx
import pytest
from networkx.algorithms.isomorphism import GraphMatcher

import antiforce.antiforcing
from antiforce import (
    Budget,
    BudgetExceededError,
    Graph,
    af_of_matching,
    af_via_matchings,
    alternating_cycles,
    build,
    complete,
    cycle,
    edge,
    enumerate_perfect_matchings,
    para_square_chain,
    path,
    power,
)
from antiforce.antiforcing import _lex_min_cover, _min_cover_size
from antiforce.symmetry import _join, _root, automorphism_generators, pm_orbits
from conftest import benchmark_random_graphs, connected_atlas, graph_to_nx, random_connected_graph
from criterion1_witnesses import family_instances, instance_name, load_pin, pin_entry

MAX_ORDER = 10**5


def generators(g):
    return automorphism_generators(g, [0] * g.n)


def group_order(gens, n, cap=MAX_ORDER):
    """Order of the group the permutations generate, or None above cap."""
    identity = tuple(range(n))
    seen = {identity}
    frontier = [identity]
    while frontier:
        grown = []
        for p in frontier:
            for s in gens:
                q = tuple(s[i] for i in p)
                if q not in seen:
                    seen.add(q)
                    grown.append(q)
        if len(seen) > cap:
            return None
        frontier = grown
    return len(seen)


def vf2_count(g):
    """|Aut(g)|, every automorphism listed by VF2."""
    ng = graph_to_nx(g)
    return sum(1 for _ in GraphMatcher(ng, ng).isomorphisms_iter())


def vf2_order(g):
    """|Aut(g)| as the product of orbit sizes down a stabiliser chain.

    The orbit of vertex i under the automorphisms fixing 0..i-1 holds w
    when VF2 maps g onto itself with every vertex labelled by its
    distances to 0..i-1 and to i on one side, to w on the other. The
    distances keep the search small; every such map preserves them.
    """
    ng = graph_to_nx(g)
    dist = dict(nx.all_pairs_shortest_path_length(ng))

    def labelled(fixed):
        h = ng.copy()
        for v in h:
            h.nodes[v]["d"] = [dist[v].get(f) for f in fixed]
        return h

    order = 1
    for i in range(g.n):
        base = labelled([*range(i), i])
        orbit = {i}
        for w in range(i + 1, g.n):
            if w in orbit:
                continue
            gm = GraphMatcher(base, labelled([*range(i), w]), node_match=lambda a, b: a == b)
            if gm.is_isomorphic():
                orbit |= {gm.mapping[v] for v in orbit} | {w}
        order *= len(orbit)
    return order


def assert_automorphisms(g, gens):
    for perm in gens:
        assert sorted(perm) == list(range(g.n))
        assert {edge(perm[u], perm[v]) for u, v in g.edges} == g.edges


def test_generators_are_automorphisms(atlas):
    for g in atlas:
        assert_automorphisms(g, generators(g))
    for _, _, _, g in family_instances():
        assert_automorphisms(g, generators(g))


def test_group_order_matches_vf2_on_atlas(atlas):
    for g in atlas:
        assert group_order(generators(g), g.n) == vf2_count(g), sorted(g.edges)


def test_group_order_matches_vf2_on_criterion1_powers():
    checked = 0
    for fam, k, m, g in family_instances():
        want = vf2_order(g)
        if want <= MAX_ORDER:
            assert group_order(generators(g), g.n) == want, (fam, k, m)
            checked += 1
    assert checked >= 90


def test_trivial_graphs():
    assert automorphism_generators(Graph(0), []) == []
    assert automorphism_generators(Graph(1), [0]) == []
    # The swap of a single edge's ends is an automorphism, but it fixes
    # the edge, so the one perfect matching is its own orbit.
    k2 = Graph(2, frozenset({(0, 1)}))
    assert generators(k2) == [[1, 0]]
    assert pm_orbits(k2, enumerate_perfect_matchings(k2)) == [0]


@pytest.mark.parametrize(
    "g", [complete(6), power(cycle(8), 2), power(para_square_chain(3), 2)]
)
def test_pm_orbit_members_share_their_representatives_value(g):
    pms = enumerate_perfect_matchings(g)
    first = pm_orbits(g, pms)
    assert len(set(first)) < len(pms)
    for m, rep in zip(pms, first):
        assert af_of_matching(g, m).af_of_m == af_of_matching(g, pms[rep]).af_of_m


def pm_orbits_union_find(g, pms):
    """pm_orbits by joining every matching with its image under every generator."""
    edges = g.sorted_edges
    index = g.edge_index
    in_pm = [[i for i in range(len(edges)) if m >> i & 1] for m in pms]
    through = Counter(i for m in in_pm for i in m)
    colours = [sorted(through[i] for _, i in pairs) for pairs in g.incident_edges]
    at = {m: k for k, m in enumerate(pms)}
    first = list(range(len(pms)))
    for perm in automorphism_generators(g, colours):
        moved = [1 << index[edge(perm[u], perm[v])] for u, v in edges]
        for k, m in enumerate(in_pm):
            _join(first, k, at[sum(moved[i] for i in m)])
    return [_root(first, k) for k in range(len(pms))]


def test_orbit_closure_matches_union_find(atlas):
    # On every graph above the gate: more perfect matchings than vertices.
    checked = 0
    for g in [*atlas, *SHAPED, complete(10)]:
        pms = enumerate_perfect_matchings(g)
        if len(pms) > g.n:
            assert pm_orbits(g, pms) == pm_orbits_union_find(g, pms), sorted(g.edges)
            checked += 1
    assert checked > len(SHAPED)


def test_orbit_closure_charges_the_budget():
    # The two passes over the matchings, one node per matching each, and
    # the generator search fit in the budget; the closure's second
    # expanded matching does not.
    g = complete(8)
    pms = enumerate_perfect_matchings(g)
    search = Budget()
    automorphism_generators(g, [0] * g.n, search)  # pm_orbits' colouring of K_8 is uniform too
    before = 2 * len(pms) + search.nodes
    capped = Budget(max_nodes=before + 1)
    with pytest.raises(BudgetExceededError) as exc:
        pm_orbits(g, pms, capped)
    assert exc.traceback[-2].name == "pm_orbits" and "first" in exc.traceback[-2].locals
    assert capped.nodes == before + 2


def test_pm_count_colouring_spares_the_search_on_regular_graphs():
    # On a regular graph with no symmetry, refinement from one colour
    # stays uniform, so the search individualises a vertex per level;
    # the counts of matchings through each vertex's edges split the
    # vertices at once. Only the colouring's pass over the matchings is
    # charged: one node per matching.
    checked = 0
    for g in benchmark_random_graphs(1):
        if len(set(map(len, g.incident_edges))) != 1 or generators(g):
            continue
        pms = enumerate_perfect_matchings(g)
        coloured, uniform = Budget(), Budget()
        assert pm_orbits(g, pms, coloured) == list(range(len(pms)))
        automorphism_generators(g, [0] * g.n, uniform)
        assert (coloured.nodes, uniform.nodes) == (len(pms), g.n)
        checked += 1
    assert checked == 62  # of the 92 regular graphs, regular(n=14,d=4)#5 among them


def unreduced(g):
    """Value and witness from every PM: the route with no orbits and no bound."""
    solved = []
    for m in enumerate_perfect_matchings(g):
        masks = sorted(alternating_cycles(g, m), key=int.bit_count)
        value, cover = _min_cover_size(masks, Budget())
        solved.append((value, masks, cover))
    best = min(value for value, _, _ in solved)
    witness = min(
        _lex_min_cover(masks, value, cover, Budget())
        for value, masks, cover in solved
        if value == best
    )
    return best, frozenset(g.sorted_edges[i] for i in witness)


def complete_bipartite(a, b):
    return Graph(a + b, frozenset((u, a + v) for u in range(a) for v in range(b)))


def prism():
    triangles = {(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)}
    return Graph(6, frozenset(triangles | {(0, 3), (1, 4), (2, 5)}))


def cube():
    return Graph(8, frozenset((u, u ^ b) for u in range(8) for b in (1, 2, 4) if u < u ^ b))


def two_k4():
    return Graph(8, complete(4).edges | {(u + 4, v + 4) for u, v in complete(4).edges})


def random_above_gate():
    rng = random.Random(8)
    out = []
    while len(out) < 12:
        g = random_connected_graph(rng, rng.randint(8, 10))
        if g.n % 2 == 0 and g.n < len(enumerate_perfect_matchings(g, cap=301)) <= 300:
            out.append(g)
    return out


SHAPED = [
    power(cycle(8), 2),
    power(cycle(8), 3),
    power(cycle(10), 2),
    power(cycle(10), 3),
    power(path(8), 3),
    power(path(10), 3),
    power(path(10), 4),
    complete_bipartite(3, 3),
    complete_bipartite(4, 4),
    prism(),
    cube(),
    two_k4(),
    complete(8),
]


def atlas_above_gate():
    """The connected-atlas graphs with more PMs than vertices."""
    return [g for g in connected_atlas() if len(enumerate_perfect_matchings(g)) > g.n]


@pytest.mark.parametrize("g", SHAPED + random_above_gate() + atlas_above_gate())
def test_reduced_route_matches_unreduced(g):
    r = af_via_matchings(g)
    assert (r.value, r.witness) == unreduced(g)


def test_shaped_graphs_mostly_reach_the_search():
    # K_3,3 and the prism have no more PMs than vertices; the rest do.
    above = [g for g in SHAPED if len(enumerate_perfect_matchings(g)) > g.n]
    assert len(above) == len(SHAPED) - 2


def counting(monkeypatch, name):
    """Count the calls the matching route makes to one of its functions."""
    calls = []
    inner = getattr(antiforce.antiforcing, name)

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(antiforce.antiforcing, name, counted)
    return calls


def test_orbits_save_cycle_passes(monkeypatch):
    # K_8's 105 matchings form one orbit: phase 1 makes one cycle pass.
    # K_8 is tight, so phase 2 refines that member, the last matching,
    # from its 4-cycle pairs with no cycle pass; the two other members it
    # visits have a 4-cycle bound above that witness and are skipped.
    cycles = counting(monkeypatch, "alternating_cycles")
    assert af_via_matchings(complete(8)).value == 12
    assert len(cycles) == 1


def test_four_cycle_bound_skips_refinements(monkeypatch):
    # On K_10, phase 2 visits 15 of the 945 members of the one orbit, and
    # skips all but the first by their 4-cycle bound. K_10 is tight, so
    # that one is refined from its 4-cycle pairs, with no cycle pass.
    cycles = counting(monkeypatch, "alternating_cycles")
    refined = counting(monkeypatch, "_lex_min_lazily")
    assert af_via_matchings(complete(10)).value == 20
    assert (len(cycles), len(refined)) == (1, 1)


def test_phase_one_stops_at_pair_count(monkeypatch):
    # On P_10^4 the matching with the fewest alternating 4-cycle pairs
    # has 6 of them and the optimal value 6. No matching has fewer, so
    # no orbit is closed and phase 1 makes that one cycle pass, where in
    # index order it made 57; phase 2 refines from 4-cycle pairs and
    # makes none.
    cycles = counting(monkeypatch, "alternating_cycles")
    assert af_via_matchings(power(path(10), 4)).value == 6
    assert len(cycles) == 1


@pytest.mark.parametrize(
    "fam, k, m",
    [("cycle", 8, 4), ("complete", 10, 1), ("path", 10, 4), ("ortho-chain", 3, 4)],
)
def test_tight_graphs_close_no_orbit(monkeypatch, fam, k, m):
    # K_8 (pinned as C_8^4), K_10, P_10^4 and ortho-chain(3)^4. On each,
    # the matching with the fewest alternating 4-cycle pairs has a value
    # equal to its pair count. No matching has fewer pairs, so no orbit
    # can hold a better value or witness, and none is closed.
    def boom(*args):
        raise AssertionError("pm_orbits called on a tight graph")

    monkeypatch.setattr(antiforce.antiforcing, "pm_orbits", boom)
    r = af_via_matchings(power(build(fam, k), m))
    assert pin_entry(r.value, r.witness) == load_pin()[instance_name(fam, k, m)]


def test_orbits_are_closed_only_below_the_first_value(monkeypatch):
    # On C_12^4 the matching with the fewest pairs has value B = 17, one
    # above the optimum. pm_orbits gets the matchings with fewer than 17
    # pairs, a union of orbits, and no other: 1,522 of 1,716.
    g = power(cycle(12), 4)
    calls = counting(monkeypatch, "pm_orbits")
    assert af_via_matchings(g).value == 16
    pairs: list[int] = []
    pms = enumerate_perfect_matchings(g, four_cycles=pairs)
    [(_, below, _)] = calls
    assert (len(below), len(pms)) == (1522, 1716)
    assert below == [m for m, p in zip(pms, pairs) if p < 17]
