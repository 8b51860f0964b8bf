"""Anti-forcing numbers via two independent exact routes.

Route one (af_subset_search) is the definition itself: iterative
deepening over edge subsets S, where S is anti-forcing exactly when one
perfect matching is disjoint from it. The matchings S leaves are one
bitset over their enumeration indices, and adding an edge to S clears
the bits of the matchings holding it, one precomputed mask per edge.
Below the value, the search tree is the one a rescan of the list of
surviving matchings walks, node for node. At the value, it is a
branch-and-bound search for the lexicographically smallest set: a
branch is cut once the least set it could hold does not come before the
set in hand. It deepens from a lower bound proven from the matchings
alone: the least, over the matchings M, of a greedy packing of the
differences M' - M, each of which an anti-forcing set leaving M must
meet. Route two (af_via_matchings) minimizes, over perfect
matchings M, the smallest set of non-M edges meeting every M-alternating
cycle; af_of_matching also gives the forcing number of M, from the
matched sides of the same cycles, which it alone derives.
The two routes share nothing past the enumeration of perfect matchings
and its per-edge bitsets, so their agreement is a meaningful cross-check.

Route two runs in two phases. Phase 1 proves the value. Each perfect
matching's count of alternating 4-cycles, a lower bound on its value,
is summed by the walk that lists the matchings, one term per matched
edge (see ``matching``). The matching with the fewest is solved
first, and its value bounds the rest: only the matchings with fewer
4-cycles can do better. They are a union of automorphism orbits (see
``symmetry``), since af(G, M) and the count are the same across an
orbit, so only their orbits are closed, and one matching per orbit is
solved in ascending order of its count. The pass stops once that count
reaches the best value found. Phase 2 refines the lexicographically
smallest witness over the members of the optimal orbits and the
matchings whose count equals the value, in order of a cheap lower bound
on each one's smallest cover, and stops once that bound passes the
witness in hand. The witness starts as a cover phase 1 solved. A
sharper bound, from the matching's alternating 4-cycles, skips a
matching before it is solved. In a tight graph, where the first
matching's value equals its count, no orbit is closed, and each other
matching's 4-cycles alone already need the value: its refinement starts
from them, with no cycle walk and no solve. The orbits are only
searched for when more matchings than vertices would be closed: the
search costs about one refinement per vertex, which fewer matchings
cannot pay back.

Neither phase lists all of a matching's alternating cycles. Both start
from the free sides of its short cycles (or of its 4-cycles alone, in a
tight graph's phase 2), cover them, and check the cover against the
enumerated perfect matchings. Each matching the cover misses adds its
difference from M, and the cover is sought again, until M is the only
matching left (constraint generation for implicit hitting sets;
Moreno-Centeno and Karp, Oper. Res. 61(2), 2013). A check first scans
the list. On a graph with many matchings, once a solve has made n
scans, it builds per-edge bitsets of the matchings once and probes
them from then on: the matchings a cover misses are those outside
every bitset of its edges, and only they are decoded (see ``_Probes``).

The short cycles, a matching's seed family, come from a walk from the
matching's mates (see ``matching``) or, where the list of perfect
matchings is shorter than the walk, from that list: each short cycle
is the matching's difference from a listed one. The first matching
solved is walked, and its walk's node count prices a walk on the graph.

Convention: a graph with no perfect matching gets af = |E| with an empty
witness, tagged method "convention_no_pm".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Literal, Sequence

from .budget import Budget, BudgetExceededError
from .graph import Edge, Graph
from .matching import (
    Matching,
    alternating_cycles,
    count_pms_excluding,
    edge_indices,
    enumerate_perfect_matchings,
    holding_masks,
)
from .symmetry import pm_orbits

Method = Literal["subset_search", "via_matchings", "convention_no_pm"]


@dataclass(frozen=True)
class AntiForcingResult:
    value: int
    witness: frozenset[Edge]
    method: Method

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError("anti-forcing number is non-negative")
        if self.method != "convention_no_pm" and len(self.witness) != self.value:
            raise ValueError("witness size must equal the reported value")


@dataclass(frozen=True)
class MatchingAnalysis:
    af_of_m: int
    f_of_m: int


def is_anti_forcing_set(
    g: Graph, s: frozenset[Edge] | set[Edge], budget: Budget | None = None
) -> bool:
    """True iff g minus s has exactly one perfect matching; the count is charged to budget.

    An edge of s may be named in either order; a non-edge raises ValueError.
    """
    return count_pms_excluding(g, s, cap=2, budget=budget) == 1


def _anti_forcing_sets(
    pms: list[Matching],
    holding: list[int],
    alive: int,
    removed: int,
    forbidden: int,
    left: int,
    tick: Callable[[], None],
    found: list[int],
) -> None:
    # alive: bit j set for each perfect matching pms[j] disjoint from
    # removed, at least one; holding[i]: bit j set when pms[j] holds
    # edge i; found: the lexicographically smallest set so far, if any.
    # Module-level, not a closure: a closure that calls itself is a
    # reference cycle, left behind for the cyclic collector.
    tick()
    rest = alive & (alive - 1)
    if not rest:
        found[:] = [removed]
        return
    if not left:
        return
    # An anti-forcing set containing removed must hit the first or second
    # surviving matching; branching on its smallest edge there, the edges
    # tried before it are forbidden below, so each set is reached once.
    first = (alive ^ rest).bit_length() - 1
    second = (rest & -rest).bit_length() - 1
    branch = (pms[first] | pms[second]) & ~forbidden
    while branch:
        low = branch & -branch
        child = alive & ~holding[low.bit_length() - 1]
        if child and (not found or _may_beat(removed | low, forbidden, left - 1, found[0])):
            if left > 1:
                _anti_forcing_sets(
                    pms, holding, child, removed | low, forbidden, left - 1, tick, found
                )
            else:  # a leaf: its node is settled here, without a call
                tick()
                if not child & (child - 1):
                    found[:] = [removed | low]
        forbidden |= low
        branch ^= low


def _may_beat(removed: int, forbidden: int, left: int, best: int) -> bool:
    """True iff the least set below a node comes before ``best``.

    Every set below the node is ``removed`` plus ``left`` edges outside
    ``forbidden`` and ``removed``, so none comes before the one holding
    the ``left`` lowest of them; the proof is in ``af_subset_search``.
    """
    free = rest = ~(forbidden | removed)
    for _ in range(left):
        rest &= rest - 1
    least = removed | (free ^ rest)
    diff = least ^ best
    return bool(diff & -diff & least)


def _swaps(g: Graph, m: Matching) -> int:
    """How many perfect matchings differ from m in exactly two edges.

    Each swaps matched edges ab, cd for ac, bd or for ad, bc. ``near[v]``
    is v's neighbours as a vertex mask, so each edge is one bit test.
    """
    near = g.neighbour_masks
    edges = g.sorted_edges
    matched = [edges[i] for i in edge_indices(m)]
    count = 0
    while matched:
        a, b = matched.pop()
        na, nb = near[a], near[b]
        for c, d in matched:
            count += (na >> c & nb >> d & 1) + (na >> d & nb >> c & 1)
    return count


def _least_packing(g: Graph, pms: list[Matching], budget: Budget) -> int:
    """A lower bound on af(g) from its perfect matchings ``pms``.

    The least, over the matchings M, of a greedy packing of the
    differences M' - M, taken smallest first in enumeration order; the
    proof is in ``af_subset_search``. One node is charged per M. The
    differences of two edges, M's swaps, are pairwise disjoint and come
    first, so M's packing is at least its swap count, and a matching with
    as many swaps as the least so far is skipped without a scan.
    """
    least = len(pms)
    for m in pms:
        budget.tick()
        if _swaps(g, m) >= least:
            continue
        taken = count = 0
        free = ~m
        for rest in sorted([b & free for b in pms if b != m], key=int.bit_count):
            if not rest & taken:
                count += 1
                taken |= rest
        least = min(least, count)
    return least


def af_subset_search(g: Graph, budget: Budget | None = None) -> AntiForcingResult:
    """Ground-truth oracle: the fewest edges disjoint from exactly one PM.

    A set S is anti-forcing exactly when one perfect matching of g avoids
    it. The matchings are enumerated once, as edge masks, and each
    edge gets the bitset of the matching indices that hold it, so the
    matchings S leaves are one int, cut by one mask per added edge. The
    search deepens over sizes 0, 1, 2, ..., reaching every set of at most
    that size that leaves one matching. It branches on the edges of the
    two lowest-indexed survivors, so below the value the tree and its
    node count are those of a rescan of the list of survivors. The
    witness is the smallest sorted edge list among the sets of the first
    size that has any, and at that size the search is a branch and bound
    for it:

    - Every set found there has exactly that many edges: a smaller one
      would have been found at an earlier size, and the deepening starts
      at a lower bound on af(g).
    - Of two edge masks with the same number of bits, the first has the
      smaller sorted edge list exactly when the lowest bit of their XOR
      is in it.
    - Every set below a node with ``removed`` R, ``forbidden`` F and
      ``left`` edges still to add is R plus ``left`` edges outside F and
      R. Element by element in ascending order, it is at least R plus
      the ``left`` lowest edges outside F and R, so it does not come
      before that set.
    - Once a set is in hand, a child, a leaf included, whose least
      possible set does not come before it is skipped: it holds no
      smaller set. The last set found is then the witness.

    The deepening starts at a lower bound, not at 0. Let S be an
    anti-forcing set and M the one matching of g - S. S avoids M and meets
    every other matching M', so it meets each difference M' - M, and
    pairwise disjoint differences need one edge of S each. Hence af(g) is
    at least the least, over M, of a greedy packing of those differences,
    and no size below it holds an anti-forcing set. A swap, a difference
    ac, bd or ad, bc of matched edges ab, cd, is fixed by either of its
    edges, so the swaps are pairwise disjoint.

    Raises BudgetExceededError carrying the verified lower bound (0 if
    the budget runs out while the matchings are listed or the bound is
    computed) when the search cannot finish.
    """
    budget = budget or Budget()
    try:
        pms = enumerate_perfect_matchings(g, budget=budget)
        least = _least_packing(g, pms, budget)
    except BudgetExceededError as exc:
        exc.lower = 0
        raise
    if not pms:
        return AntiForcingResult(len(g.edges), frozenset(), "convention_no_pm")
    edges = g.sorted_edges
    holding = holding_masks(pms, len(edges))
    alive = (1 << len(pms)) - 1
    found: list[int] = []
    try:
        for size in range(least, len(edges) + 1):
            _anti_forcing_sets(pms, holding, alive, 0, 0, size, budget.tick, found)
            if found:
                break
        else:
            raise AssertionError("a graph with a perfect matching has an anti-forcing set")
    except BudgetExceededError as exc:
        exc.lower = size
        raise
    picks = frozenset(edges[i] for i in edge_indices(found[0]))
    return AntiForcingResult(size, picks, "subset_search")


# Exact minimum hitting set over bitmask-encoded edge sets. Bit i stands
# for the i-th edge of the graph's sorted edge list, so ascending bit
# index is ascending edge order and bit lists compare like edge lists.
# It is the encoding of the whole package: the enumerator yields perfect
# matchings in it, alternating_cycles hands out each cycle's free side
# in it, and edge_indices turns a mask into its ascending bit list. A
# cover is returned as a bitmask too, so the search that proves a size
# also hands over a hitting set of that size, and the lexicographic
# refinement starts from it.
#
# Invariant: every mask list the engine handles is duplicate-free and
# sorted by size (bit count). alternating_cycles hands a matching's
# cycles over sorted, with ties in size in the walk's order, as
# _listed_cycles does in list order, and filtering keeps a list sorted,
# so lists are sorted only when a family grows. masks[0] is then a
# smallest set, which makes it the branching pivot, and the greedy
# packing takes sets smallest first. A matching's
# cycles have distinct free sides.
#
# Most search nodes sit at the last two levels, so _exists_cover settles
# them without a call or a filtered list. A k = 1 node's cover is the
# lowest bit of the AND of its sets. A k = 2 node ANDs, per branch, the
# sets the branch's element misses; when none is left, that element
# alone covers, and no child node is charged.
#
# A node is tight when its greedy packing holds exactly k sets. The
# packed sets are pairwise disjoint and each needs an element, so a
# cover of at most k elements takes exactly one element from each and
# none outside their union ``taken``. A set s whose ``s & taken`` is a
# single bit therefore forces that bit into every such cover, and a
# tight node with k > 2 branches on the first forced bit alone, in
# place of the bits of masks[0]; a k = 2 node settles each branch in
# one pass and is left as it is. The packing is maximal, so no
# ``s & taken`` is empty. The forced branch loses no cover, so the
# search finds one exactly when the plain recursion does, and the
# lexicographic refinement makes the witness independent of the cover
# found. The forced bit need not lie in masks[0], so one search can
# take more nodes than the plain recursion, though far fewer in sum.


def _packing_bound(masks: Sequence[int]) -> tuple[int, int]:
    """A greedy packing of pairwise disjoint sets: its size, a lower bound, and its union."""
    taken = 0
    count = 0
    for s in masks:
        if not s & taken:
            count += 1
            taken |= s
    return count, taken


def _exists_cover(
    masks: list[int], k: int, budget: Budget, packing: tuple[int, int] | None = None
) -> int | None:
    """A hitting set of at most k elements as a bitmask, or None if none exists.

    No sets give the empty cover 0, so test the result with ``is None``.
    The last two levels are settled in place, and a tight node branches
    on a forced element, as the comment above says. ``packing`` is the
    root's ``_packing_bound(masks)``, when the caller has it already.
    """
    if not masks:
        return 0
    if k <= 0:
        return None
    budget.tick()
    if k == 1:
        common = -1
        for s in masks:
            common &= s
        return common & -common or None
    count, taken = packing or _packing_bound(masks)
    if count > k:
        return None
    t = masks[0]
    if count == k > 2:
        for s in masks:
            s &= taken
            if not s & (s - 1):
                t = s
                break
    while t:
        low = t & -t
        if k > 2:
            cover = _exists_cover([s for s in masks if not s & low], k - 1, budget)
            if cover is not None:
                return cover | low
        else:  # the k = 1 child; common stays -1 while no set is left
            common = -1
            for s in masks:
                if not s & low:
                    common &= s
            if common == -1:
                return low
            budget.tick()
            if common:
                return common & -common | low
        t ^= low
    return None


def _min_cover_size(
    masks: list[int], budget: Budget, below: int | None = None
) -> tuple[int, int] | None:
    """Minimum hitting set size and a cover of that size, as a bitmask.

    Deepens from the packing bound. Returns None as soon as the minimum
    is known to be at least ``below``.
    """
    packing = _packing_bound(masks)
    k = packing[0]
    while below is None or k < below:
        cover = _exists_cover(masks, k, budget, packing)
        if cover is not None:
            return k, cover
        k += 1
    return None


def _lex_min_cover(
    masks: list[int],
    value: int,
    cover: int,
    budget: Budget,
    beat: Sequence[int] | None = None,
) -> list[int] | None:
    """Lexicographically smallest hitting set of size ``value``, the minimum.

    ``cover`` is some hitting set of that size, as a bitmask. Returns the
    bits in ascending order. With ``beat``, a bit list of the same size,
    gives up (returns None) once the chosen prefix exceeds it.

    The refinement keeps a cover that extends the chosen prefix, and
    drops the sets the prefix hits. Candidates lie above the last pick
    (the floor ``above``). A candidate that is the cover's lowest bit is
    taken without a search: the other bits lie above it and hit every
    set it misses. A candidate below that bit needs a search, and a
    found completion becomes the new cover. No completion uses a bit
    below its candidate outside the prefix: a minimum cover has no spare
    element, so that bit would have been an earlier pick.
    """
    chosen: list[int] = []
    tied = beat is not None
    above = -1
    while masks:
        union = 0
        for s in masks:
            union |= s
        union &= above
        while union:
            low = union & -union
            e = low.bit_length() - 1
            if tied and e > beat[len(chosen)]:
                return None
            rest = [s for s in masks if not s & low]
            if cover & -cover == low:
                found: int | None = cover ^ low
            else:
                found = _exists_cover(rest, value - len(chosen) - 1, budget)
            if found is not None:
                tied = tied and e == beat[len(chosen)]
                chosen.append(e)
                masks, cover, above = rest, found, -(low << 1)
                break
            union ^= low
        else:
            raise AssertionError("no completion at the proven optimum")
    if len(chosen) != value:
        raise AssertionError("optimum not attained by lexicographic refinement")
    return chosen


# A matching's seed family: the free sides of its alternating cycles of
# at most this many edges. Most representatives are rejected on it alone.
SEED_LENGTH = 8

# Route two reads a seed family off the PM list, in place of the walk,
# when the graph has fewer PMs than this many times the nodes of its
# first matching's walk (see ``af_via_matchings``). Timed over the 99
# criterion-1 instances on a 2-core Xeon, a read took at most 1.02 times
# as long as the walk below 4 PMs per walk node, 2.3 times on C_12^4
# (14 PMs per node) and 5.5 times on K_12 (53).
SCAN_PER_NODE = 4


# Route two probes ``holding`` in place of scanning the PM list only on a
# graph with at least this many PMs (see ``_Probes``). Timed on the covers
# that the criterion-1 and seed-0 ``random`` solves check, on a 2-core
# Xeon, a probe took 1.1 to 2.1 times as long as a scan below 100 PMs,
# 0.6 times at 100 to 200 and 0.03 times above 2,000.
PROBE_PMS = 128


class _Scans:
    """The matchings a cover misses, found by a scan of every one.

    ``missed(m, cover)`` gives the free sides of M Δ M' over the other
    matchings M' that avoid ``cover``, in list order. ``pms`` holds every
    perfect matching, ``m`` is M, and the list is empty exactly when M is
    the only perfect matching of G minus ``cover``.
    """

    def __init__(self, pms: Sequence[Matching]) -> None:
        self.pms = pms

    def missed(self, m: Matching, cover: int) -> list[int]:
        return [b & ~m for b in self.pms if not b & cover and b != m]


class _Probes(_Scans):
    """``_Scans.missed`` by ``left`` scans, then by probes of ``holding``.

    ``holding[i]`` has bit j set when ``pms[j]`` holds edge i, so the
    matchings that avoid S are the bits of ``full`` outside every
    ``holding[i]`` with i in S: |S| big-int ORs, and only they are
    decoded. The call after the first ``left`` builds ``holding``,
    charging one node per matching to ``budget``. A solve picks this
    class or ``_Scans`` once, by its PM count.
    """

    def __init__(
        self, pms: Sequence[Matching], width: int, budget: Budget, left: int
    ) -> None:
        super().__init__(pms)
        self.width = width  # the edge count of G
        self.budget = budget
        self.left = left
        self.holding: list[int] | None = None
        self.full = (1 << len(pms)) - 1

    def missed(self, m: Matching, cover: int) -> list[int]:
        if self.holding is None:
            if self.left:
                self.left -= 1
                return super().missed(m, cover)
            self.holding = holding_masks(self.pms, self.width, self.budget)
        hit = 0
        for i in edge_indices(cover):
            hit |= self.holding[i]
        # The survivors' bits as text, bit j at position j: one find per survivor.
        bits = bin(self.full ^ hit)[:1:-1]
        pms = self.pms
        free = ~m
        out = []
        j = bits.find("1")
        while j >= 0:
            if pms[j] != m:
                out.append(pms[j] & free)
            j = bits.find("1", j + 1)
        return out


def _grown(family: list[int], missed: list[int]) -> list[int]:
    # The missed sets are distinct, since M' - M fixes M', and the family
    # holds none of them: the cover that misses them hits all of it.
    return sorted(family + missed, key=int.bit_count)


def _listed_cycles(m: Matching, pms: Sequence[Matching], budget: Budget) -> list[int]:
    """M's seed family read off ``pms``: the walk's sets, by size, in list order.

    ``pms`` holds every perfect matching, ``m`` is M. Each M-alternating
    cycle C of at most ``SEED_LENGTH`` edges is M Δ M' for the listed PM
    M' = M Δ C, so its free side is M' - M, of 2, 3 or 4 edges.
    Conversely, M Δ M' is a union of disjoint alternating cycles of at
    least 4 edges each, so a side of 2 or 3 edges is one cycle, and one
    of 4 edges is an 8-cycle or two 4-cycles. The 2-edge sides are M's
    4-cycle pairs. No 8-cycle's side holds a pair, since a pair's edges
    and their mates close a 4-cycle, so a 4-edge side is two 4-cycles
    exactly when the pair of its lowest edge lies in it, and is dropped
    then. One node is charged per PM read, in bulk, at the counts where
    a tick per PM checks the caps.
    """
    free = ~m
    sides: list[list[int]] = [[], [], [], [], []]
    start = 0
    while start < len(pms):
        stop = start + budget.until_check()
        budget.tick(min(stop, len(pms)) - start)
        for b in pms[start:stop]:
            side = b & free
            size = side.bit_count()
            if size <= 4:
                sides[size].append(side)
        start = stop
    two, three, four = sides[2:]
    # Each pair, keyed by its lowest edge; -1 keeps a side with no such pair.
    pairs = {s & -s: s for s in two}
    return two + three + [s for s in four if pairs.get(s & -s, -1) & ~s]


def _cover_lazily(
    m: Matching,
    scans: _Scans,
    family: list[int],
    budget: Budget,
    below: int | None = None,
) -> tuple[list[int], int, int] | None:
    """af(G, M), proven from M's seed family and the matchings it misses.

    ``m`` is M, ``scans`` the solve's checks against every perfect
    matching, and ``family`` M's seed family, sorted by size. Returns the
    family the proof grew, its minimum and a cover of that size, or None
    as soon as af(G, M) is known to be at least ``below``; the proof is
    in ``af_via_matchings``.
    """
    while True:
        found = _min_cover_size(family, budget, below)
        if found is None:
            return None
        missed = scans.missed(m, found[1])
        if not missed:
            return family, *found
        family = _grown(family, missed)


def _lex_min_lazily(
    m: Matching,
    scans: _Scans,
    family: list[int],
    value: int,
    picks: list[int] | None,
    budget: Budget,
    beat: Sequence[int] | None,
) -> list[int] | None:
    """M's lexicographically smallest cover, as ``_lex_min_cover`` gives it.

    ``m`` is M, and ``scans`` the solve's checks. ``family`` has
    minimum ``value`` <= af(G, M), and ``picks`` is its lexicographically
    smallest cover, or None when ``_lex_min_cover`` gave up against
    ``beat``. The family is grown until its smallest cover
    leaves M unique. Returns None, dropping M, once the grown family has
    no cover of size ``value``: af(G, M) > value then. The proof is in
    ``af_via_matchings``.
    """
    while picks is not None:
        missed = scans.missed(m, sum(1 << i for i in picks))
        if not missed:
            return picks
        family = _grown(family, missed)
        cover = _exists_cover(family, value, budget)
        if cover is None:  # af(G, M) > value
            return None
        picks = _lex_min_cover(family, value, cover, budget, beat)
    return None


def af_of_matching(g: Graph, m: Matching, budget: Budget | None = None) -> MatchingAnalysis:
    """Anti-forcing and forcing numbers of one perfect matching m.

    ``af_of_m`` is the fewest non-m edges whose removal leaves m as the
    unique PM; ``f_of_m`` the smallest subset of m contained in no other
    perfect matching, a hitting set of the cycles' matched sides.
    """
    budget = budget or Budget()
    cycles = alternating_cycles(g, m, budget)
    edges = g.sorted_edges
    # Each vertex of an m-alternating cycle meets the cycle's m-edge there.
    # A cycle's two sides have the same size, so the matched sides come
    # sorted as the cycles do.
    ends = [{v for i in edge_indices(c) for v in edges[i]} for c in cycles]
    matched = dict.fromkeys(sum(1 << i for i in edge_indices(m) if edges[i][0] in e) for e in ends)
    af = _min_cover_size(cycles, budget)
    f = _min_cover_size(list(matched), budget)
    assert af is not None and f is not None
    return MatchingAnalysis(af[0], f[0])


def _lowest_outside(g: Graph, m: Matching, size: int) -> list[int]:
    """The ``size`` smallest edge indices of g outside m."""
    free = rest = ~m & ((1 << len(g.sorted_edges)) - 1)
    for _ in range(size):
        rest &= rest - 1
    return edge_indices(free ^ rest)


def _four_cycle_pairs(
    g: Graph, m: Matching, sides: list[int] | None = None
) -> tuple[list[int], list[int]]:
    """The edges outside m, split by m-alternating 4-cycles.

    A free edge uw closes the m-alternating 4-cycle u-w-b-a-u, with a and
    b the mates of u and w, when ab is an edge. Its free side {uw, ab} is
    then one of a family of disjoint pairs, and every cover holds an edge
    of each. Returns the smaller edge index of each pair, and the indices
    of every other edge outside m, both ascending. The pair count is at
    most af(G, m); the proof is in ``af_via_matchings``. Given ``sides``,
    appends each pair's free side to it as an edge mask, in the same order.
    """
    edges = g.sorted_edges
    index = g.edge_index
    mate = [0] * g.n
    for i in edge_indices(m):
        u, v = edges[i]
        mate[u], mate[v] = v, u
    smaller: list[int] = []
    other: list[int] = []
    for i, (u, w) in enumerate(edges):
        a, b = mate[u], mate[w]
        if a == w:  # uw is in m
            continue
        j = index.get((a, b) if a < b else (b, a))
        if j is not None and j > i:
            smaller.append(i)
            if sides is not None:
                sides.append(1 << i | 1 << j)
        else:
            other.append(i)
    return smaller, other


def _four_cycle_bound(
    g: Graph, m: Matching, size: int, sides: list[int] | None = None
) -> list[int]:
    """A lower bound on m's lexicographically smallest cover, of ``size`` = af(G, m).

    The smaller edge of each alternating 4-cycle pair, together with the
    ``size`` - #pairs smallest other edges outside m; the proof is in
    ``af_via_matchings``. ``sides`` gets the pairs' free sides, as in
    ``_four_cycle_pairs``.
    """
    smaller, other = _four_cycle_pairs(g, m, sides)
    fill = size - len(smaller)
    assert fill >= 0, "more disjoint alternating 4-cycles than af(G, m)"
    return sorted(smaller + other[:fill])


def af_via_matchings(g: Graph, budget: Budget | None = None) -> AntiForcingResult:
    """Minimum over perfect matchings of the free-edge hitting number.

    af(G, M) is the fewest edges outside M that meet every M-alternating
    cycle (Lei, Yeh and Zhang, Discrete Appl. Math. 202, 2016). It is
    proven from a family of edge sets that every such cover must meet,
    grown only as far as the proof needs:

    - The family starts as the free sides of M's alternating cycles of
      at most ``SEED_LENGTH`` edges, M's seed family. The walk
      (``alternating_cycles``) finds them from M's mates, and the list
      read (``_listed_cycles``) takes them from the PMs M' = M Δ C, one
      per such cycle C; both give the same sets, by size. A read charges
      one node per PM, a walk one per node of its tree, so M0 below is
      always walked, and its node count prices a walk on G: when G has
      fewer PMs than ``SCAN_PER_NODE`` times that count, every later
      seed family is read off the list. The two sources order a size's
      sets differently, so a cover search may find another cover, but
      neither the value nor the witness depends on the cover found.
    - A cover S of the family holds no edge of M, so M is the only PM of
      G - S exactly when every other PM meets S. The PMs are held as
      edge masks, so this is one scan. Each PM M' that misses S adds
      M' - M, the free side of M Δ M', and S is sought again.
    - M Δ M' is a union of M-alternating cycles, so every true cover
      meets each added set, and the family's minimum stays a lower bound
      on af(G, M). A family cover that leaves M unique is a true cover,
      so it reaches that bound.
    - For the same reason, every true cover of size af(G, M) is a family
      cover, so the family's lexicographically smallest cover is no
      larger than M's. When it leaves M unique the two are equal, and
      when it exceeds the witness in hand, so does M's.

    af(G, M) is the same for every PM M in one orbit of Aut(G). The
    solve runs in two phases:

    1. The value. A free edge uw lies on at most one M-alternating
       4-cycle, u-w-b-a-u with a and b the mates of u and w, so the free
       sides {uw, ab} of these cycles are disjoint pairs, and every cover
       holds an edge of each. Alternating cycles that share no free edge
       need one cover edge each, so M's pair count p(M) is at most
       af(G, M), and the same across an orbit. The walk that lists the
       PMs sums it for each one as it builds the list.

       The PM M0 least in (p(M), index) is solved first, without a
       bound, to the value B. Only the PMs with p(M) < B can have a
       smaller value. They are a union of orbits, and only their orbits
       are closed. Their representatives, the first PM of each orbit,
       are visited in ascending order of (p(M), index), M0 first, and
       each is dropped as soon as its family's minimum exceeds the best
       value so far. The pass stops at the first with p(M) >= best: it
       and every later one have af(G, M) >= p(M) >= best. The order is
       what makes the stop bite: the first PMs in enumeration order
       tend to have high values, and a low best comes early from the
       PMs with few pairs. When p(M0) = B, no orbit is closed at all.
       An optimal PM with p(M) < value lies in a closed orbit whose
       representative came before the stop, so it was solved to the
       value: those are the optimal orbits.
    2. The reported witness is the lexicographically smallest cover over
       every optimal PM, so repeated runs agree byte for byte. The
       candidates are the members of the optimal orbits and every PM with
       p(M) = value. A candidate phase 1 did not solve is solved from
       its own short cycles when visited, so that its family's minimum
       is ``value`` when the refinement starts. A PM with p(M) = value
       is dropped when that proves af(G, M) > value.

       A tight graph, one with p(M0) = B, closes no orbit, so every
       candidate other than M0 has p(M) = value. There the refinement
       starts from the pairs instead, with no walk and no solve. They
       are p(M) disjoint 2-sets, so every cover of them holds at least
       p(M) = value edges, and their smaller edges cover them with that
       many: the family's minimum is the value. Those edges are L4(M)
       below, which has no fill when p(M) = value. A cover of that size
       holds one edge of each pair, at least the pair's smaller edge, so
       L4(M) is its lexicographically smallest cover, so the refinement
       takes it as its first picks, with no search. The family then
       grows as above. Every true cover meets every family, so once the
       grown family has no cover of size value, af(G, M) > value and M
       is dropped; a PM with af(G, M) = value never is for that reason,
       since its true covers of that size cover every family. Each such
       start is charged one budget node.

       A non-tight graph keeps the seed family. There most candidates
       with p(M) = value are not optimal: 465 of C_20^4's 467 have
       af(G, M) > value. The seed family rejects each from its short
       cycles with no scan of the PMs. The pairs start rejects it only
       after scans that add about 3,200 missed sets from C_20^4's
       154,592 PMs; started so, C_20^4 took 10.01 s against the walk's
       5.42 s on a 2-core Xeon.

       Let L(M) be the ``value`` smallest edge indices not in M. A cover
       of M is a ``value``-subset of the edges outside M, and the i-th
       smallest element of a subset is at least the i-th smallest of the
       whole set, so M's smallest cover is at least L(M), element by
       element. The candidates are refined in order of L(M), each against
       the witness so far, and the pass stops at the first one whose L(M)
       exceeds it. That order is the enumeration order reversed. The PMs
       come in lexicographic order, so the least edge where a later PM
       differs from an earlier one is in the earlier one and free in the
       later one: L of the later PM is no larger.

       A candidate whose 4-cycle bound L4(M) exceeds the witness is
       skipped before it is solved. L4(M) is the smaller edge of each
       4-cycle pair, together with the ``value`` - p(M) smallest other
       edges outside M. From M's smallest cover C, pick one edge per
       pair, the smaller one whenever C holds it: each pick is at least
       its pair's smaller edge, and the rest of C are edges outside M
       that are no pair's smaller edge, so they are at least the fill.
       Hence C is at least L4(M) element by element, and L4(M) is at
       least L(M). L stays the stop: unlike L4, it only falls along the
       visit order.

       The witness starts as the smallest sorted edge list among the
       optimal covers phase 1 solved. Each leaves its PM the only one,
       so it is an anti-forcing set of size ``value``, no smaller than
       the reported witness. Both bounds so cut before any refinement.

    The orbits come from the automorphism search in ``symmetry`` only
    when more PMs than vertices have p(M) < B. The search costs about
    one refinement per vertex of its first target cell, so on fewer PMs
    it cannot pay back; each PM is then its own orbit.

    When the budget runs out, BudgetExceededError carries the best value
    so far as ``upper``. While the PMs and their pair counts are listed,
    both bounds stay None. While phase 1 solves a PM with pair
    count p, ``lower`` is min(best, p), or p for M0: every earlier
    representative has a value of at least best, and every PM not yet
    passed has af(G, M) >= p. While the orbits are closed or the
    representatives ordered, ``lower`` is p(M0) and ``upper`` is B.
    Once phase 2 has begun the value is proven, and ``lower`` carries it
    too.
    """
    budget = budget or Budget()
    pairs: list[int] = []  # p(M) of each PM, in list order
    pms = enumerate_perfect_matchings(g, budget=budget, four_cycles=pairs)
    if not pms:
        return AntiForcingResult(len(g.edges), frozenset(), "convention_no_pm")
    best: int | None = None
    p: int | None = None  # p(M) of the matching being solved
    try:
        p = min(pairs)
        first = pairs.index(p)
        start = budget.nodes
        family = alternating_cycles(g, pms[first], budget, SEED_LENGTH)
        listed = len(pms) < SCAN_PER_NODE * (budget.nodes - start)

        def seeds(m: Matching) -> list[int]:
            if listed:
                return _listed_cycles(m, pms, budget)
            return alternating_cycles(g, m, budget, SEED_LENGTH)

        # A build costs about n/2 scans (4 to 12 at order 10 to 20), and a
        # probe saves 0.4 of a scan at 100 to 200 PMs and nearly a whole
        # one above 2,000. So the build waits for n scans: a solve that
        # scans less could not win it back. Building after n/2 put 4% on
        # para-chain(3)^3's solve (191 PMs, 10 scans).
        scans = (
            _Probes(pms, len(g.sorted_edges), budget, g.n)
            if len(pms) >= PROBE_PMS
            else _Scans(pms)
        )
        solved = {first: _cover_lazily(pms[first], scans, family, budget)}  # optimal representatives
        best = solved[first][1]
        below = [i for i, c in enumerate(pairs) if c < best]
        orbit = list(range(len(pms)))
        if len(below) > g.n:
            for i, k in zip(below, pm_orbits(g, [pms[i] for i in below], budget)):
                orbit[i] = below[k]
        order = []
        for i in below:
            if orbit[i] == i and i != first:
                budget.tick()
                order.append((pairs[i], i))
        order.sort()
        for p, i in order:
            if p >= best:
                break
            found = _cover_lazily(pms[i], scans, seeds(pms[i]), budget, best + 1)
            if found is None:
                continue
            if found[1] != best:
                best, solved = found[1], {}
            solved[i] = found
    except BudgetExceededError as exc:
        exc.upper = best
        if p is not None:
            exc.lower = p if best is None else min(best, p)
        raise
    witness = min(edge_indices(cover) for _, _, cover in solved.values())
    try:
        for i in reversed(range(len(pms))):
            if orbit[i] not in solved and pairs[i] != best:
                continue
            if _lowest_outside(g, pms[i], best) > witness:
                break
            sides: list[int] = []
            bound = _four_cycle_bound(g, pms[i], best, sides)
            if bound > witness:
                continue
            if not below and i not in solved:  # tight: L4(M) is the pairs' smallest cover
                budget.tick()
                family, picks = sides, bound
            else:
                found = solved.get(i) or _cover_lazily(
                    pms[i], scans, seeds(pms[i]), budget, best + 1
                )
                if found is None:  # p(M) = best < af(G, M)
                    assert orbit[i] not in solved, "an orbit shares its representative's value"
                    continue
                family, _, cover = found
                picks = _lex_min_cover(family, best, cover, budget, witness)
            picks = _lex_min_lazily(pms[i], scans, family, best, picks, budget, witness)
            if picks is not None:
                witness = picks
    except BudgetExceededError as exc:
        exc.lower = exc.upper = best
        raise
    edges = g.sorted_edges
    return AntiForcingResult(best, frozenset(edges[i] for i in witness), "via_matchings")

