"""The memoised walk against the tree enumerator it replaced.

The reference below is the enumerator as it stood when perfect matchings
were frozensets of edge tuples found by a plain search tree: it pushes
and pops each chosen edge on a list, rebuilds the neighbour lists to
drop removed edges, and visits one residual vertex set once per path to
it. Encoded as edge masks, its matchings must be the walk's list, in the
same order, and its counts the walk's counts. The walk expands each
residual state once, so an uncapped count never charges more nodes than
the tree has.

A second reference is the memoised walk as it stood with the full parity
search at every state. The walk's local check must prune the same
states, so its lists, counts and nodes must be that walk's.
"""

import math
import random
import sys

from antiforce import (
    Budget,
    Graph,
    complete,
    count_pms_excluding,
    cycle,
    enumerate_perfect_matchings,
    has_perfect_matching,
    path,
    power,
)
from conftest import benchmark_family_graphs, benchmark_random_graphs, mask_of


def ref_components_all_even(n, adj, used):
    seen = [False] * n
    for s in range(n):
        if used[s] or seen[s]:
            continue
        size = 0
        stack = [s]
        seen[s] = True
        while stack:
            u = stack.pop()
            size += 1
            for w in adj[u]:
                if not used[w] and not seen[w]:
                    seen[w] = True
                    stack.append(w)
        if size % 2:
            return False
    return True


def ref_pms_from(lowest, n, adj, used, chosen, tick):
    tick()
    u = lowest
    while u < n and used[u]:
        u += 1
    if u == n:
        yield frozenset(chosen)
        return
    if not ref_components_all_even(n, adj, used):
        return
    used[u] = True
    for w in adj[u]:
        if used[w]:
            continue
        used[w] = True
        chosen.append((u, w) if u < w else (w, u))
        yield from ref_pms_from(u + 1, n, adj, used, chosen, tick)
        chosen.pop()
        used[w] = False
    used[u] = False


def ref_iter_pms(n, adj, budget):
    if n % 2:
        return iter(())
    if n == 0:
        return iter((frozenset(),))
    return ref_pms_from(0, n, adj, [False] * n, [], budget.tick)


def ref_adjacency(g):
    """Each vertex's neighbours, ascending, as the reference read them."""
    return [tuple(w for w, _ in pairs) for pairs in g.incident_edges]


def ref_adjacency_without(g, removed):
    return [
        tuple(w for w in nbrs if ((u, w) if u < w else (w, u)) not in removed)
        for u, nbrs in enumerate(ref_adjacency(g))
    ]


def ref_enumerate(g, budget):
    """The gate's first matching, then the full list, as the package runs them."""
    if next(ref_iter_pms(g.n, ref_adjacency(g), budget), None) is None:
        return []
    return list(ref_iter_pms(g.n, ref_adjacency(g), budget))


def ref_count_excluding(g, removed, cap, budget):
    count = 0
    for _ in ref_iter_pms(g.n, ref_adjacency_without(g, removed), budget):
        count += 1
        if count == cap:
            break
    return count


EXTRA = (Graph(0), complete(8), power(cycle(10), 3))


def test_mask_enumerator_is_the_frozenset_enumerator(atlas):
    assert len(atlas) == 996
    for g in (*atlas, *EXTRA, *benchmark_random_graphs(0)):
        ref = Budget()
        want = [mask_of(g, m) for m in ref_enumerate(g, ref)]
        assert enumerate_perfect_matchings(g) == want, sorted(g.edges)
        assert has_perfect_matching(g) == bool(want)
        ref, new = Budget(), Budget()
        assert count_pms_excluding(g, budget=new) == sum(
            1 for _ in ref_iter_pms(g.n, ref_adjacency(g), ref)
        )
        assert new.nodes <= ref.nodes, sorted(g.edges)


def test_count_excluding_is_the_reference_count(atlas):
    # Random removed sets, from none up to every edge, at caps 1, 2 and
    # unbounded: the same count. Uncapped, from no more nodes; under a
    # cap a state seeks cap completions of its own, though the tree may
    # need fewer there, so a capped walk can charge more.
    rng = random.Random(150415)
    graphs = [g for g in atlas if g.n % 2 == 0][::4] + list(EXTRA) + benchmark_random_graphs(0)
    for g in graphs:
        for _ in range(4):
            removed = frozenset(e for e in g.sorted_edges if rng.random() < rng.random())
            for cap in (1, 2, None):
                ref, new = Budget(), Budget()
                want = ref_count_excluding(g, removed, cap, ref)
                assert count_pms_excluding(g, removed, cap, new) == want
                if cap is None:
                    assert new.nodes <= ref.nodes, (sorted(g.edges), sorted(removed))


def test_capped_list_is_a_prefix_of_the_full_list():
    # A state keeps its first cap completions, so the capped walk lists
    # the first cap matchings of the full list, whatever cap cuts into,
    # and a cap cuts their 4-cycle counts with them.
    rng = random.Random(33)
    for g in (*benchmark_family_graphs(), *benchmark_random_graphs(0)):
        counts: list[int] = []
        full = enumerate_perfect_matchings(g, four_cycles=counts)
        caps = {1, 2, len(full) + 1, rng.randint(1, len(full) + 1)}
        for cap in caps:
            assert enumerate_perfect_matchings(g, cap=cap) == full[:cap], (sorted(g.edges), cap)
            capped: list[int] = []
            assert enumerate_perfect_matchings(g, cap=cap, four_cycles=capped) == full[:cap]
            assert capped == counts[:cap], (sorted(g.edges), cap)


def frozen_walk(key, n, pairs, adj, used, memo, cap, listing, tick):
    """The memoised walk with a full parity search at every state, for reference.

    The walk under test checks only the pieces that hold the free
    neighbours of the pair just matched; it must expand the same states,
    keep the same completions and charge the same ticks.
    """
    u = ((key + 1) & ~key).bit_length() - 1  # the lowest unused vertex
    if u == n:
        return [0] if listing else 1
    tick()
    out = [] if listing else 0
    if ref_components_all_even(n, adj, used):
        used[u] = True
        for w, i in pairs[u]:
            if used[w]:
                continue
            child = key | 1 << u | 1 << w
            sub = memo.get(child)
            if sub is None:
                used[w] = True
                sub = frozen_walk(child, n, pairs, adj, used, memo, cap, listing, tick)
                used[w] = False
            if listing:
                bit = 1 << i
                out += [bit | c for c in sub]
                if len(out) >= cap:
                    del out[cap:]
                    break
            else:
                out += sub
                if out >= cap:
                    out = cap
                    break
        used[u] = False
        if listing:
            tick(len(out))
    memo[key] = out
    return out


def frozen_completions(n, pairs, cap, listing, budget):
    if n % 2:
        return [] if listing else 0
    adj = [tuple(w for w, _ in nbrs) for nbrs in pairs]
    limit = math.inf if cap is None else cap
    return frozen_walk(0, n, pairs, adj, [False] * n, {}, limit, listing, budget.tick)


def frozen_enumerate(g, cap, budget):
    if not frozen_completions(g.n, g.incident_edges, 1, False, budget):
        return []
    return frozen_completions(g.n, g.incident_edges, cap, True, budget)


def frozen_count_excluding(g, removed, cap, budget):
    gone = {g.edge_index[e] for e in removed}
    pairs = [tuple(p for p in nbrs if p[1] not in gone) for nbrs in g.incident_edges]
    return frozen_completions(g.n, pairs, cap, False, budget)


def test_local_parity_check_walks_the_full_check_walk(atlas):
    # Removed edges split graphs into pieces, odd ones included, which
    # only the root's full check sees before the walk reaches them.
    rng = random.Random(39)
    for g in (*atlas, *EXTRA, *benchmark_random_graphs(0)):
        removed = frozenset(e for e in g.sorted_edges if rng.random() < rng.random())
        for cap in (None, 1, 2):
            ref, new = Budget(), Budget()
            want = frozen_enumerate(g, cap, ref)
            assert enumerate_perfect_matchings(g, cap, new) == want, (sorted(g.edges), cap)
            assert new.nodes == ref.nodes, (sorted(g.edges), cap)
            for gone in (frozenset(), removed):
                ref, new = Budget(), Budget()
                want = frozen_count_excluding(g, gone, cap, ref)
                assert count_pms_excluding(g, gone, cap, new) == want, (sorted(g.edges), cap)
                assert new.nodes == ref.nodes, (sorted(g.edges), sorted(gone), cap)


class CountingList(list):
    """A list that counts its item reads."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_listing_a_path_reads_a_few_masks_per_vertex():
    # On a path, the pair just matched leaves one free neighbour, so a
    # child state's fill reads no mask: only the root's full check walks
    # the path, n reads. Each of the n / 2 states then reads the masks
    # of the two vertices it matches. So each walk, the gate's and the
    # listing's, reads 2n masks, where a full search at every state
    # would read n^2 / 4.
    g = path(4096)
    near = g.__dict__["neighbour_masks"] = CountingList(g.neighbour_masks)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 4 * g.n))
    try:
        pms = enumerate_perfect_matchings(g)
    finally:
        sys.setrecursionlimit(limit)
    assert pms == [sum(1 << i for i in range(0, len(g.edges), 2))]
    assert g.n <= near.reads <= 4 * g.n
