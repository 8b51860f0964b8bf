"""Perfect matching enumeration and alternating cycle extraction.

A perfect matching is an edge mask, the one format every consumer takes:
bit i stands for ``g.sorted_edges[i]``, and ``edge_indices`` lists a
mask's edges. An alternating cycle is the mask of its edges outside the
matching. Desk-scale exact code: every perfect-matching question,
existence, count and list, is answered by one walk, charged to the
caller's budget. It branches on the lowest-indexed unused vertex, which
yields matchings in lexicographic order of their sorted edge lists, so
uniqueness checks and witness selection are deterministic. A state of
the walk is its set of used vertices. Many partial matchings leave the
same set, and each set is expanded once: it keeps its completions, as a
list of masks or, for a count, their number.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from .budget import Budget
from .graph import Edge, Graph, _is_int, edge

# A perfect matching of a graph g, as an edge mask over g.sorted_edges.
# The empty matching is 0, so a search for one compares with None.
Matching = int

# Each vertex's (neighbour, edge index) pairs, as ``Graph.incident_edges``.
Pairs = Sequence[Sequence[tuple[int, int]]]


def edge_indices(mask: int) -> list[int]:
    """The set bits of an edge mask, ascending: its edges' indices in ``sorted_edges``."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _components_all_even(n: int, pairs: Pairs, used: list[bool]) -> bool:
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
            for w, _ in pairs[u]:
                if not used[w] and not seen[w]:
                    seen[w] = True
                    stack.append(w)
        if size % 2:
            return False
    return True


def _walk(
    key: int,
    n: int,
    pairs: Pairs,
    used: list[bool],
    memo: dict[int, list[Matching] | int],
    cap: float,
    listing: bool,
    tick: Callable[..., None],
) -> list[Matching] | int:
    # The first cap completions of the residual state whose used
    # vertices are the bits of key, mirrored in used: as edge masks, in
    # lexicographic order, when listing, else their number. A state is
    # expanded once: its result is kept in memo, which the caller looks
    # up before it calls. This is a module-level function, not a
    # closure: a closure that calls itself is a reference cycle, left
    # behind for the cyclic collector.
    u = ((key + 1) & ~key).bit_length() - 1  # the lowest unused vertex
    if u == n:
        return [0] if listing else 1
    tick()
    out: list[Matching] | int = [] if listing else 0
    if _components_all_even(n, pairs, used):
        used[u] = True
        for w, i in pairs[u]:
            if used[w]:
                continue
            child = key | 1 << u | 1 << w
            sub = memo.get(child)
            if sub is None:
                used[w] = True
                sub = _walk(child, n, pairs, used, memo, cap, listing, tick)
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
            # Each matching a list gains is one node, so a pass over the
            # matchings pays one node per matching, as every pass does.
            tick(len(out))
    memo[key] = out
    return out


def _check_cap(cap: int | None) -> None:
    if cap is not None and not (_is_int(cap) and cap >= 1):
        raise ValueError("cap must be a positive integer or None")


def _completions(n: int, pairs: Pairs, cap: int | None, listing: bool, budget: Budget):
    """The perfect matchings of the graph whose edges ``pairs`` lists, up to cap.

    A list of edge masks when ``listing``, else their number. The memo
    lives for one call, so it is dropped when the answer returns.
    """
    _check_cap(cap)
    if n % 2:
        return [] if listing else 0
    limit = math.inf if cap is None else cap
    return _walk(0, n, pairs, [False] * n, {}, limit, listing, budget.tick)


def has_perfect_matching(g: Graph, budget: Budget | None = None) -> bool:
    """Whether g has a perfect matching: the count walk, capped at one, finds one.

    The walk expands each residual vertex set once, so a graph without
    one whose odd components appear only deep in the search (K_2k joined
    to a star K_1,3 by one edge, say) costs one node per reachable set
    rather than one per path to it; that is still exponential in the
    worst case. Every expanded state is charged to ``budget``, so under a
    capped one the question never runs unbounded. Here and in every
    other solver entry point, no budget means a fresh uncapped ``Budget()``.
    """
    return _completions(g.n, g.incident_edges, 1, False, budget or Budget()) > 0


def enumerate_perfect_matchings(
    g: Graph, cap: int | None = None, budget: Budget | None = None
) -> list[Matching]:
    """All perfect matchings as edge masks, lexicographic by sorted edge list.

    ``cap`` stops the enumeration after that many matchings; None means
    unbounded. The list is the first ``cap`` of the full one.
    """
    _check_cap(cap)  # before the gate, which answers a graph without a PM itself
    budget = budget or Budget()
    if not has_perfect_matching(g, budget):
        return []
    return _completions(g.n, g.incident_edges, cap, True, budget)


def count_pms_excluding(
    g: Graph,
    removed: frozenset[Edge] | set[Edge] = frozenset(),
    cap: int | None = None,
    budget: Budget | None = None,
) -> int:
    """Count perfect matchings of g minus the removed edges, up to cap (None: no cap).

    The package's one PM counter; cap=2 asks whether exactly one is left,
    the uniqueness probe behind ``is_anti_forcing_set``. The count walk
    runs on ``g.incident_edges`` with the removed edges filtered out,
    without building that graph: each state keeps a number, not a list,
    so a count never holds the matchings it counts. ``removed`` may
    name an edge in either order; a pair that is not an edge of g
    raises ValueError.
    """
    norm = {edge(u, v) for u, v in removed}
    extra = norm - g.edges
    if extra:
        raise ValueError(f"edges not in graph: {sorted(extra)}")
    gone = {g.edge_index[e] for e in norm}
    pairs = g.incident_edges
    if gone:
        pairs = [tuple(p for p in nbrs if p[1] not in gone) for nbrs in pairs]
    return _completions(g.n, pairs, cap, False, budget or Budget())


def _extend(
    cur: int,
    free: int,
    room: int,
    pairs: Pairs,
    mate: list[int],
    closing: list[int],
    blocked: list[bool],
    tick: Callable[[], None],
    out: list[int],
) -> None:
    # cur was entered along a matched edge; the next edge is free (the
    # matched one leads back onto the path, so blocked skips it), and
    # closing[cur] is the one back to the start. room is how many more
    # matched edges the path may take; a path taking its last one can
    # only close at once, so that is checked here, not in a call. This
    # is a module-level function, not a closure: a closure that calls
    # itself is a reference cycle, which keeps each call's result list
    # alive until a full garbage collection.
    tick()
    if closing[cur]:
        out.append(free | closing[cur])
    if not room:
        return
    for w, i in pairs[cur]:
        if blocked[w]:
            continue
        mw = mate[w]
        if room == 1:
            if closing[mw]:
                out.append(free | 1 << i | closing[mw])
            continue
        blocked[w] = blocked[mw] = True
        _extend(mw, free | 1 << i, room - 1, pairs, mate, closing, blocked, tick, out)
        blocked[w] = blocked[mw] = False


def alternating_cycles(
    g: Graph, m: Matching, budget: Budget | None = None, longest: int | None = None
) -> list[int]:
    """All simple m-alternating cycles, one copy each, as their free sides.

    ``m`` is a perfect matching of g as the walk lists it; any
    other mask raises ValueError. A cycle is the mask of its edges
    outside m, and no two cycles share one. Each cycle is found once:
    traversal starts at its minimum vertex and leaves along the matched
    edge, which fixes both rotation and reflection. The walk reads each vertex's ``g.incident_edges``
    through one array of mates. ``longest`` caps the cycle length, in
    edges: the walk stops extending a path that could only close a
    longer cycle, so the result is the uncapped list, in the same order,
    without the cycles longer than ``longest``. None means no cap.
    """
    edges = g.sorted_edges
    mate = [-1] * g.n
    # n/2 edges of g are a perfect matching exactly when every vertex
    # gets a mate, a check made while mate is built.
    fits = m >= 0 and not m >> len(edges) and m.bit_count() * 2 == g.n
    if fits:
        for i in edge_indices(m):
            u, v = edges[i]
            mate[u], mate[v] = v, u
    if not fits or -1 in mate:
        raise ValueError("alternating_cycles requires a perfect matching of g")
    # A path holds one matched edge when the walk starts; it closes as a
    # cycle of twice as many edges as it holds matched ones.
    room = max((g.n if longest is None else longest) // 2 - 1, 0)
    # blocked[v]: v is on the path, or v's matched edge was an earlier
    # start, all of whose cycles (those through a smaller vertex) are found.
    # Every vertex below the start s is blocked, so s would come first
    # among the live neighbours of a vertex: closing a cycle before they
    # are tried keeps the order of a walk that reaches s.
    blocked = [False] * g.n
    # closing[v]: the bit of the free edge v-s back to the start s, or 0.
    # The matched edge s-mate[s] is left out, so a path that gets back to
    # s has closed a cycle of length >= 4.
    closing = [0] * g.n
    pairs = g.incident_edges
    tick = (budget or Budget()).tick
    out: list[int] = []
    for s in range(g.n):
        t = mate[s]
        if t > s:
            blocked[s] = blocked[t] = True
            for w, i in pairs[s]:
                if w != t:
                    closing[w] = 1 << i
            _extend(t, 0, room, pairs, mate, closing, blocked, tick, out)
            for w, _ in pairs[s]:
                closing[w] = 0
    return out
