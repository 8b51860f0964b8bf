"""The alternating-cycle walk against the step-table walk it replaced.

The reference below is the walk as it stood when each call first built
``steps``, a table of (neighbour, neighbour's mate, edge index) for
every free edge at every vertex, and validated the mask on its own. The
walk in the package reads ``g.incident_edges`` through its mate array
instead, and hands its cycles over shortest first. Its cycles must be
the reference's, stably sorted by size, and both must charge the budget
the same nodes, checking the caps at the same ones: the search trees
are one.
"""

import pytest

import antiforce.budget
from antiforce import (
    Budget,
    BudgetExceededError,
    alternating_cycles,
    cycle,
    enumerate_perfect_matchings,
    power,
)
from antiforce.matching import edge_indices
from conftest import benchmark_random_graphs, is_perfect_matching

LONGEST = (None, 4, 6, 8)


def ref_extend(cur, free, room, steps, closing, blocked, tick, out):
    tick()
    if closing[cur]:
        out.append(free | closing[cur])
    if not room:
        return
    for w, mw, i in steps[cur]:
        if blocked[w]:
            continue
        if room == 1:
            if closing[mw]:
                out.append(free | 1 << i | closing[mw])
            continue
        blocked[w] = blocked[mw] = True
        ref_extend(mw, free | 1 << i, room - 1, steps, closing, blocked, tick, out)
        blocked[w] = blocked[mw] = False


def ref_alternating_cycles(g, m, budget, longest=None):
    if not is_perfect_matching(g, m):
        raise ValueError("alternating_cycles requires a perfect matching of g")
    edges = g.sorted_edges
    mate = [-1] * g.n
    for i in edge_indices(m):
        u, v = edges[i]
        mate[u], mate[v] = v, u
    steps = [
        [(w, mate[w], i) for w, i in nbrs if w != mate[u]]
        for u, nbrs in enumerate(g.incident_edges)
    ]
    room = max((g.n if longest is None else longest) // 2 - 1, 0)
    blocked = [False] * g.n
    closing = [0] * g.n
    out = []
    for s in range(g.n):
        if mate[s] > s:
            blocked[s] = blocked[mate[s]] = True
            for w, _, i in steps[s]:
                closing[w] = 1 << i
            ref_extend(mate[s], 0, room, steps, closing, blocked, budget.tick, out)
            for w, *_ in steps[s]:
                closing[w] = 0
    return out


def test_walk_is_the_step_table_walk(atlas):
    # Every PM of every even atlas graph and random benchmark graph (seed
    # 0): the reference's cycles stably sorted by size, and the same nodes; then,
    # under a node cap halfway through, both walks raise on the same tick.
    graphs = [g for g in (*atlas, *benchmark_random_graphs(0)) if g.n % 2 == 0]
    checked = 0
    for g in graphs:
        for m in enumerate_perfect_matchings(g):
            for longest in LONGEST:
                ref, new = Budget(), Budget()
                want = sorted(ref_alternating_cycles(g, m, ref, longest), key=int.bit_count)
                got = alternating_cycles(g, m, new, longest)
                assert got == want, (sorted(g.edges), m, longest)
                # So the walk hands its cycles over shortest first, with
                # ties in walk order: a stable sort by size leaves them be.
                assert got == sorted(got, key=int.bit_count), (sorted(g.edges), m, longest)
                assert new.nodes == ref.nodes, (sorted(g.edges), m, longest)
                cap = ref.nodes // 2
                if not cap:
                    continue
                ref, new = Budget(max_nodes=cap), Budget(max_nodes=cap)
                with pytest.raises(BudgetExceededError):
                    ref_alternating_cycles(g, m, ref, longest)
                with pytest.raises(BudgetExceededError):
                    alternating_cycles(g, m, new, longest)
                assert new.nodes == ref.nodes == cap + 1, (sorted(g.edges), m, longest)
                checked += 1
    assert checked > 10000


def test_walk_reads_the_clock_where_the_reference_does(monkeypatch):
    # A seed walk charges its nodes in bulk, but it reads the clock at
    # the node counts where a tick per node reads it. One budget runs the
    # walks of every PM of C_12^4, uncapped and at length 8, so the
    # multiples of 256 fall at every level of the loop nest.
    g = power(cycle(12), 4)
    pms = enumerate_perfect_matchings(g)
    reads = {}
    monotonic = antiforce.budget.time.monotonic

    def counted():
        if budget is not None:
            reads[walk].append(budget.nodes)
        return monotonic()

    monkeypatch.setattr(antiforce.budget.time, "monotonic", counted)
    for longest in (None, 8):
        for walk in (ref_alternating_cycles, alternating_cycles):
            budget = None
            reads[walk] = []
            budget = Budget()
            for m in pms:
                walk(g, m, budget, longest)
        want = reads[ref_alternating_cycles]
        assert reads[alternating_cycles] == want, longest
        assert len(want) == budget.nodes // 256 > 100, longest
