"""Perfect matching enumeration and alternating cycle extraction.

Desk-scale exact code: enumeration branches on the lowest-indexed
unsaturated vertex, which yields matchings in lexicographic order of
their sorted edge lists, so uniqueness checks and witness selection are
deterministic. Maximum-cardinality matching (used as a feasibility
gate and for no-PM detection) is delegated to networkx, whose
implementation handles odd cycles correctly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import networkx as nx

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


def maximum_matching(g: Graph) -> Matching:
    """A maximum-cardinality matching (not necessarily unique)."""
    if g.n == 0 or not g.edges:
        return frozenset()
    ng = nx.Graph()
    ng.add_nodes_from(range(g.n))
    ng.add_edges_from(g.sorted_edges)
    mm = nx.max_weight_matching(ng, maxcardinality=True)
    return frozenset(edge(u, v) for u, v in mm)


def has_perfect_matching(g: Graph) -> bool:
    if g.n % 2:
        return False
    return 2 * len(maximum_matching(g)) == g.n


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


def _iter_pms(
    n: int, adj: Sequence[Sequence[int]], budget: Budget | None
) -> Iterator[Matching]:
    """Yield perfect matchings of the graph given by adjacency lists."""
    if n % 2:
        return
    if n == 0:
        yield frozenset()
        return
    used = [False] * n
    chosen: list[Edge] = []

    def rec(lowest: int) -> Iterator[Matching]:
        if budget is not None:
            budget.tick()
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
            yield from rec(u + 1)
            chosen.pop()
            used[w] = False
        used[u] = False

    yield from rec(0)


def _adjacency_without(g: Graph, removed: frozenset[Edge]) -> list[tuple[int, ...]]:
    if not removed:
        return list(g.adjacency)
    return [
        tuple(w for w in g.adjacency[u] if ((u, w) if u < w else (w, u)) not in removed)
        for u in range(g.n)
    ]


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
    if g.n % 2:
        return out
    if g.n > 0 and not has_perfect_matching(g):
        return out
    for m in _iter_pms(g.n, g.adjacency, budget):
        out.append(m)
        if cap is not None and len(out) >= cap:
            break
    return out


def count_perfect_matchings(g: Graph, budget: Budget | None = None) -> int:
    if g.n % 2:
        return 0
    if g.n > 0 and not has_perfect_matching(g):
        return 0
    return sum(1 for _ in _iter_pms(g.n, g.adjacency, budget))


def has_unique_perfect_matching(g: Graph, budget: Budget | None = None) -> bool:
    """Short-circuits at the second matching."""
    count = 0
    for _ in _iter_pms(g.n, g.adjacency, budget):
        count += 1
        if count > 1:
            return False
    return count == 1


def count_pms_excluding(
    g: Graph, removed: frozenset[Edge], cap: int, budget: Budget | None = None
) -> int:
    """Count perfect matchings of g minus the given edges, up to cap.

    Avoids constructing the subgraph; used by the subset-search oracle
    where the same graph is probed many times.
    """
    adj = _adjacency_without(g, removed)
    count = 0
    for _ in _iter_pms(g.n, adj, budget):
        count += 1
        if count >= cap:
            break
    return count


@dataclass(frozen=True)
class AlternatingCycle:
    """Even cycle alternating between matched and free edges.

    ``vertices`` is the canonical traversal: starts at the cycle's
    minimum vertex, first step along its matched edge.
    """

    vertices: tuple[int, ...]
    matched: frozenset[Edge]
    free: frozenset[Edge]

    def __post_init__(self) -> None:
        if len(self.vertices) < 4 or len(self.vertices) % 2:
            raise ValueError("alternating cycles have even length >= 4")
        if len(self.matched) != len(self.free):
            raise ValueError("matched and free edge counts must agree")


def alternating_cycles(
    g: Graph, m: Matching, budget: Budget | None = None
) -> list[AlternatingCycle]:
    """All simple m-alternating cycles, one canonical copy each.

    Each cycle is reported once: traversal starts at its minimum vertex
    and leaves along the matched edge, which fixes both rotation and
    reflection.
    """
    if not is_perfect_matching(g, m):
        raise ValueError("alternating_cycles requires a perfect matching of g")
    mate = [-1] * g.n
    for u, v in m:
        mate[u] = v
        mate[v] = u
    adj = g.adjacency
    out: list[AlternatingCycle] = []
    path: list[int] = []
    on_path = [False] * g.n

    def emit() -> None:
        verts = tuple(path)
        # Normalized cycle edges in traversal order: matched, free, matched, ...
        steps = [(u, v) if u < v else (v, u) for u, v in zip(verts, verts[1:] + verts[:1])]
        out.append(AlternatingCycle(verts, frozenset(steps[::2]), frozenset(steps[1::2])))

    def extend(cur: int, start: int) -> None:
        # cur was entered along a matched edge; next edge must be free.
        if budget is not None:
            budget.tick()
        for w in adj[cur]:
            if mate[cur] == w:
                continue
            if w == start:
                if len(path) >= 4:
                    emit()
                continue
            if w < start or on_path[w] or on_path[mate[w]] or mate[w] < start:
                continue
            path.append(w)
            path.append(mate[w])
            on_path[w] = on_path[mate[w]] = True
            extend(mate[w], start)
            on_path[w] = on_path[mate[w]] = False
            path.pop()
            path.pop()

    for s in range(g.n):
        if mate[s] > s:
            path = [s, mate[s]]
            on_path[s] = on_path[mate[s]] = True
            extend(mate[s], s)
            on_path[s] = on_path[mate[s]] = False
    return out


def symmetric_difference_cycles(m1: Matching, m2: Matching) -> list[set[int]]:
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
