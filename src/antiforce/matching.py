"""Perfect matching enumeration and alternating cycle extraction.

Desk-scale exact code: enumeration branches on the lowest-indexed
unsaturated vertex, which yields matchings in lexicographic order of
their sorted edge lists, so uniqueness checks and witness selection are
deterministic. Every perfect-matching question, existence included, is
answered by this one enumerator, charged to the caller's budget.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

from .budget import Budget
from .graph import Edge, Graph, edge

Matching = frozenset[Edge]


def is_matching(edges: Matching) -> bool:
    seen: set[int] = set()
    for u, v in edges:
        if u in seen or v in seen:
            return False
        seen.update((u, v))
    return True


def is_perfect_matching(g: Graph, m: Matching) -> bool:
    if not m <= g.edges:
        return False
    if not is_matching(m):
        return False
    return len(m) * 2 == g.n


def _components_all_even(n: int, adj: Sequence[Sequence[int]], used: list[bool]) -> bool:
    """Every residual component must have even order to extend to a PM."""
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


def _no_tick() -> None:
    pass


def _pms_from(
    lowest: int,
    n: int,
    adj: Sequence[Sequence[int]],
    used: list[bool],
    chosen: list[Edge],
    tick: Callable[[], None],
) -> Iterator[Matching]:
    # Module-level, not a closure: a generator that calls itself through
    # a closure is a reference cycle, left behind for the cyclic collector.
    tick()
    u = lowest
    while u < n and used[u]:
        u += 1
    if u == n:
        yield frozenset(chosen)
        return
    if not _components_all_even(n, adj, used):
        return
    used[u] = True
    for w in adj[u]:
        if used[w]:
            continue
        used[w] = True
        chosen.append((u, w) if u < w else (w, u))
        yield from _pms_from(u + 1, n, adj, used, chosen, tick)
        chosen.pop()
        used[w] = False
    used[u] = False


def _iter_pms(
    n: int, adj: Sequence[Sequence[int]], budget: Budget | None
) -> Iterator[Matching]:
    """Yield perfect matchings of the graph given by adjacency lists."""
    if n % 2:
        return iter(())
    if n == 0:
        return iter((frozenset(),))
    tick = budget.tick if budget is not None else _no_tick
    return _pms_from(0, n, adj, [False] * n, [], tick)


def _adjacency_without(g: Graph, removed: frozenset[Edge]) -> list[tuple[int, ...]]:
    if not removed:
        return list(g.adjacency)
    return [
        tuple(w for w in g.adjacency[u] if ((u, w) if u < w else (w, u)) not in removed)
        for u in range(g.n)
    ]


def has_perfect_matching(g: Graph, budget: Budget | None = None) -> bool:
    """Whether g has a perfect matching: the enumerator yields a first one.

    Exponential in the worst case: a graph without one whose odd
    components appear only deep in the search (K_2k joined to a star
    K_1,3 by one edge, say) is searched in full before the answer is
    no. Every search node is charged to ``budget``, so under one the
    question never runs unbounded.
    """
    return next(_iter_pms(g.n, g.adjacency, budget), None) is not None


def enumerate_perfect_matchings(
    g: Graph, cap: int | None = None, budget: Budget | None = None
) -> list[Matching]:
    """All perfect matchings, lexicographic by sorted edge list.

    ``cap`` stops the enumeration after that many matchings; None means
    unbounded.
    """
    if cap is not None and cap < 1:
        raise ValueError("cap must be a positive integer or None")
    out: list[Matching] = []
    if not has_perfect_matching(g, budget):
        return out
    for m in _iter_pms(g.n, g.adjacency, budget):
        out.append(m)
        if cap is not None and len(out) >= cap:
            break
    return out


def count_perfect_matchings(g: Graph, budget: Budget | None = None) -> int:
    return sum(1 for _ in _iter_pms(g.n, g.adjacency, budget))


def has_unique_perfect_matching(g: Graph, budget: Budget | None = None) -> bool:
    """Short-circuits at the second matching."""
    return count_pms_excluding(g, frozenset(), 2, budget) == 1


def count_pms_excluding(
    g: Graph, removed: frozenset[Edge], cap: int, budget: Budget | None = None
) -> int:
    """Count perfect matchings of g minus the given edges, up to cap.

    Avoids constructing the subgraph. With cap=2 it is the uniqueness
    probe behind ``is_anti_forcing_set``, which re-verifies witnesses.
    """
    adj = _adjacency_without(g, removed)
    count = 0
    for _ in _iter_pms(g.n, adj, budget):
        count += 1
        if count >= cap:
            break
    return count


def _extend(
    cur: int,
    start: int,
    matched: int,
    free: int,
    steps: Sequence[Sequence[tuple[int, int, int, int]]],
    blocked: list[bool],
    tick: Callable[[], None],
    out: list[tuple[int, int]],
) -> None:
    # cur was entered along a matched edge; the next edge is free. This is
    # a module-level function, not a closure: a closure that calls itself
    # is a reference cycle, which keeps each call's result list alive
    # until a full garbage collection.
    tick()
    for w, mw, free_bit, matched_bit in steps[cur]:
        if w == start:
            out.append((matched, free | free_bit))
        elif not blocked[w]:
            blocked[w] = blocked[mw] = True
            _extend(
                mw, start, matched | matched_bit, free | free_bit, steps, blocked, tick, out
            )
            blocked[w] = blocked[mw] = False


def alternating_cycles(
    g: Graph, m: Matching, budget: Budget | None = None
) -> list[tuple[int, int]]:
    """All simple m-alternating cycles, one copy each, as edge bitmasks.

    A cycle is a ``(matched, free)`` pair of masks in which bit i stands
    for ``g.sorted_edges[i]``. Each cycle is found once: traversal starts
    at its minimum vertex and leaves along the matched edge, which fixes
    both rotation and reflection.
    """
    if not is_perfect_matching(g, m):
        raise ValueError("alternating_cycles requires a perfect matching of g")
    index = g.edge_index
    mate = [-1] * g.n
    for u, v in m:
        mate[u] = v
        mate[v] = u
    # steps[u]: each free edge u-w, with w's mate and the bits of u-w and
    # w-mate[w]. Matched edges are left out, so a path that gets back to
    # its start has closed a cycle of length >= 4.
    steps = [
        [
            (w, mate[w], 1 << index[edge(u, w)], 1 << index[edge(w, mate[w])])
            for w in nbrs
            if w != mate[u]
        ]
        for u, nbrs in enumerate(g.adjacency)
    ]
    # blocked[v]: v is on the path, or v's matched edge was an earlier
    # start, all of whose cycles (those through a smaller vertex) are found.
    blocked = [False] * g.n
    tick = budget.tick if budget is not None else _no_tick
    out: list[tuple[int, int]] = []
    for s in range(g.n):
        if mate[s] > s:
            blocked[s] = blocked[mate[s]] = True
            _extend(mate[s], s, 1 << index[(s, mate[s])], 0, steps, blocked, tick, out)
    return out
