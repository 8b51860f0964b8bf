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
list of masks or, for a count, their number. A state extends only when
every piece of the graph it leaves has even order. The root checks every
piece; a later state, by a flood fill over vertex masks, only the pieces
that hold the free neighbours of the pair just matched, since the other
pieces are its parent's. A listing can count each matching's
alternating 4-cycles as it goes, one term per matched edge. The
alternating-cycle walk hands its cycles over shortest first, in walk
order within a length. A walk of cycles of at most 8 edges charges
its nodes in bulk, yet the budget gets the same nodes and checks its
caps at the same ones as with a tick per node.
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


def _pieces_even(key: int, seeds: int, near: Sequence[int]) -> bool:
    """Whether every piece of the residual graph holding a seed has even order.

    The residual graph is the graph less the used vertices, the bits of
    ``key``; ``near[v]`` is v's neighbours as a vertex mask. The pieces
    holding the unused vertices ``seeds`` must have even order in total.
    A flood fill grows one piece at a time from its lowest seed, and
    stops once that piece holds every seed left: its order is then even,
    as the total is.
    """
    while seeds:
        front = seeds & -seeds
        seen = key | front
        while front and seeds & ~seen:
            v = front & -front
            front ^= v
            new = near[v.bit_length() - 1] & ~seen
            seen |= new
            front |= new
        if not seeds & ~seen:
            return True
        if (seen ^ key).bit_count() % 2:
            return False
        seeds &= ~seen
        key = seen
    return True


def _pair_row(a: int, u: int, pairs: Pairs, near: Sequence[int], width: int) -> int:
    """The edges above a that close alternating 4-cycles with au, both matched.

    For matched edges e = au and f = bw, the alternating 4-cycles through
    both number q(e, f): one when uw and ab are edges, one when ub and aw
    are. The row holds q1, the edges f with q(e, f) >= 1, in its low
    ``width`` bits and q2, those with q(e, f) = 2, above them, so one AND
    with M | M << width counts both. Only edges with both ends above a
    are read: the walk matches au where a is the lowest unused vertex.
    """
    once = twice = 0
    na = near[a]
    # Each f = bw with u ~ w and a ~ b, once per way to place it so.
    for w, _ in pairs[u]:
        if w > a:
            for b, f in pairs[w]:
                if b > a and b != u and na >> b & 1:
                    bit = 1 << f
                    twice |= once & bit
                    once |= bit
    return once | twice << width


def _counts_with(sub: list[Matching], known: list[int], row: int, width: int) -> list[int]:
    """The 4-cycle counts ``known`` of completions ``sub``, plus those through a new edge.

    ``row`` is the new edge's ``_pair_row``, ``width`` the edge count.
    """
    if row >> width:  # an edge closes two 4-cycles with the new one
        return [p + ((c | c << width) & row).bit_count() for c, p in zip(sub, known)]
    if row:
        return [p + (c & row).bit_count() for c, p in zip(sub, known)]
    return known


def _walk(
    key: int,
    seeds: int,
    n: int,
    pairs: Pairs,
    near: Sequence[int],
    memo: dict[int, list[Matching] | int],
    cap: float,
    listing: bool,
    tick: Callable[..., None],
    rows: list[int | None],
    fours: dict[int, list[int]] | None,
) -> list[Matching] | int:
    # The first cap completions of the residual state whose used
    # vertices are the bits of key: as edge masks, in lexicographic
    # order, when listing, else their number. A state is expanded once:
    # its result is kept in memo, which the caller looks up before it
    # calls. seeds are the free neighbours of the pair just matched, or
    # every vertex at the root. The parent's pieces all have even order,
    # and each piece it loses or splits holds one of them, so the state
    # extends only if the pieces holding seeds are even. When fours is
    # given, it keeps each state's completions' alternating 4-cycle
    # counts, in list order, and rows the lazily built ``_pair_row`` of
    # each edge. This is a module-level function, not a closure: a
    # closure that calls itself is a reference cycle, left behind for
    # the cyclic collector.
    a = ((key + 1) & ~key).bit_length() - 1  # the lowest unused vertex
    if a == n:
        return [0] if listing else 1
    tick()
    out: list[Matching] | int = [] if listing else 0
    counts: list[int] = []
    if _pieces_even(key, seeds, near):
        na = near[a]
        for u, i in pairs[a]:
            if key >> u & 1:
                continue
            child = key | 1 << a | 1 << u
            sub = memo.get(child)
            if sub is None:
                seeds = (na | near[u]) & ~child
                sub = _walk(child, seeds, n, pairs, near, memo, cap, listing, tick, rows, fours)
            if listing:
                if fours is not None:
                    row = rows[i]
                    if row is None:
                        row = rows[i] = _pair_row(a, u, pairs, near, len(rows))
                    counts += _counts_with(sub, fours[child], row, len(rows))
                bit = 1 << i
                out += [bit | c for c in sub]
                if len(out) >= cap:
                    del out[cap:], counts[cap:]
                    break
            else:
                out += sub
                if out >= cap:
                    out = cap
                    break
        if listing:
            # Each matching a list gains is one node, so a pass over the
            # matchings pays one node per matching, as every pass does.
            tick(len(out))
    memo[key] = out
    if fours is not None:
        fours[key] = counts
    return out


def _check_cap(cap: int | None) -> None:
    if cap is not None and not (_is_int(cap) and cap >= 1):
        raise ValueError("cap must be a positive integer or None")


def _completions(
    n: int,
    pairs: Pairs,
    near: Sequence[int],
    cap: int | None,
    listing: bool,
    budget: Budget,
    four_cycles: list[int] | None = None,
):
    """The perfect matchings of the graph whose edges ``pairs`` lists, up to cap.

    ``near`` holds each vertex's neighbours in ``pairs`` as a vertex
    mask. A list of edge masks when ``listing``, else their number. A
    listing given ``four_cycles`` appends each matching's alternating
    4-cycle count to it, in list order. The memo lives for one call, so
    it is dropped when the answer returns.
    """
    _check_cap(cap)
    if n % 2:
        return [] if listing else 0
    limit = math.inf if cap is None else cap
    everyone = (1 << n) - 1
    rows: list[int | None] = []
    fours: dict[int, list[int]] | None = None
    if four_cycles is not None:
        rows = [None] * (sum(map(len, pairs)) // 2)
        fours = {everyone: [0]}
    out = _walk(0, everyone, n, pairs, near, {}, limit, listing, budget.tick, rows, fours)
    if fours is not None:
        four_cycles += fours[0]
    return out


def has_perfect_matching(g: Graph, budget: Budget | None = None) -> bool:
    """Whether g has a perfect matching: the count walk, capped at one, finds one.

    The walk expands each residual vertex set once, so a graph without
    one whose odd components appear only deep in the search (K_2k joined
    to a star K_1,3 by one edge, say) costs one node per reachable set
    rather than one per path to it; that is still exponential in the
    worst case. A set's parity check fills only the pieces next to the
    pair just matched, and stops once one piece holds all its free
    neighbours, so on a path or a dense graph it reads a few vertex
    masks, not the whole graph. Every expanded state is charged to
    ``budget``, so under a capped one the question never runs unbounded.
    Here and in every other solver entry point, no budget means a fresh
    uncapped ``Budget()``.
    """
    return _completions(g.n, g.incident_edges, g.neighbour_masks, 1, False, budget or Budget()) > 0


def enumerate_perfect_matchings(
    g: Graph,
    cap: int | None = None,
    budget: Budget | None = None,
    four_cycles: list[int] | None = None,
) -> list[Matching]:
    """All perfect matchings as edge masks, lexicographic by sorted edge list.

    ``cap`` stops the enumeration after that many matchings; None means
    unbounded. The list is the first ``cap`` of the full one. Given a
    list ``four_cycles``, the walk appends to it each listed matching's
    number of alternating 4-cycles, in list order, so a cap cuts both.
    """
    _check_cap(cap)  # before the gate, which answers a graph without a PM itself
    budget = budget or Budget()
    if not has_perfect_matching(g, budget):
        return []
    return _completions(g.n, g.incident_edges, g.neighbour_masks, cap, True, budget, four_cycles)


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
    pairs, near = g.incident_edges, g.neighbour_masks
    if gone:
        pairs = [tuple(p for p in nbrs if p[1] not in gone) for nbrs in pairs]
        near = list(near)
        for u, w in norm:
            near[u] &= ~(1 << w)
            near[w] &= ~(1 << u)
    return _completions(g.n, pairs, near, cap, False, budget or Budget())


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
    """All simple m-alternating cycles, one copy each, as their free sides, shortest first.

    ``m`` is a perfect matching of g as the walk lists it; any
    other mask raises ValueError. A cycle is the mask of its edges
    outside m, and no two cycles share one. Each cycle is found once:
    traversal starts at its minimum vertex and leaves along the matched
    edge, which fixes both rotation and reflection. The walk reads each
    vertex's ``g.incident_edges`` through one array of mates. Cycles of
    the same length keep the walk's order, so the list is the walk's,
    stably sorted by size. ``longest`` caps the cycle length, in edges:
    the walk stops extending a path that could only close a longer
    cycle, so the result is the uncapped list, in the same order,
    without the cycles longer than ``longest``. None means no cap. A
    walk of cycles of at most 8 edges (a seed walk) is one loop nest,
    which charges the budget in bulk, as the module docstring says; any
    other walk recurses through ``_extend``.
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
    budget = budget or Budget()
    tick = budget.tick
    # The cycles with two free edges, with three, and with more.
    two: list[int] = []
    three: list[int] = []
    more: list[int] = []
    # The nest counts its nodes down in ``left`` to the budget's next
    # check, and charges the ``step`` nodes counted there, so the caps
    # are checked at the node where a tick per node would check them.
    step = left = budget.until_check()
    for s in range(g.n):
        t = mate[s]
        if t < s:
            continue
        blocked[s] = blocked[t] = True
        for w, i in pairs[s]:
            if w != t:
                closing[w] = 1 << i
        if room != 3:
            _extend(t, 0, room, pairs, mate, closing, blocked, tick, more)
        else:
            left -= 1  # the start t
            if not left:
                tick(step)
                step = left = budget.until_check()
            for w1, i1 in pairs[t]:
                if blocked[w1]:
                    continue
                m1 = mate[w1]
                left -= 1
                if not left:
                    tick(step)
                    step = left = budget.until_check()
                f1 = 1 << i1
                if closing[m1]:
                    two.append(f1 | closing[m1])
                blocked[w1] = blocked[m1] = True
                for w2, i2 in pairs[m1]:
                    if blocked[w2]:
                        continue
                    m2 = mate[w2]
                    left -= 1
                    if not left:
                        tick(step)
                        step = left = budget.until_check()
                    f2 = f1 | 1 << i2
                    if closing[m2]:
                        three.append(f2 | closing[m2])
                    blocked[w2] = blocked[m2] = True
                    # The last matched edge: a path can only close.
                    for w3, i3 in pairs[m2]:
                        if not blocked[w3] and closing[mate[w3]]:
                            more.append(f2 | 1 << i3 | closing[mate[w3]])
                    blocked[w2] = blocked[m2] = False
                blocked[w1] = blocked[m1] = False
        for w, _ in pairs[s]:
            closing[w] = 0
    if left < step:
        tick(step - left)
    if room != 3:
        more.sort(key=int.bit_count)
    return two + three + more
