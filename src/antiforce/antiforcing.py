"""Anti-forcing numbers via two independent exact routes.

Route one (af_subset_search) is the definition itself: iterative
deepening over edge subsets S, where S is anti-forcing exactly when one
perfect matching is disjoint from it. The matchings S leaves are one
bitset over their enumeration indices, and adding an edge to S clears
the bits of the matchings holding it, one precomputed mask per edge.
The search tree is the one a rescan of the list of surviving matchings
walks, node for node. It deepens from a lower bound proven from the
matchings alone: the least, over the matchings M, of a greedy packing
of the differences M' - M, each of which an anti-forcing set leaving M
must meet. Route two (af_via_matchings) minimizes, over perfect
matchings M, the smallest set of non-M edges meeting every M-alternating
cycle; af_of_matching also gives the forcing number of M, from the
matched sides of the same cycles, which it alone derives.
The two routes share nothing past the enumeration of perfect matchings,
so their agreement is a meaningful cross-check.

Route two runs in two phases. Phase 1 proves the value on one perfect
matching per automorphism orbit (see ``symmetry``), since af(G, M) is
the same across an orbit. It visits them in ascending order of their
count of alternating 4-cycles, a lower bound on their value, and stops
once that count passes the best value found. Phase 2 refines the
lexicographically smallest witness over the members of the optimal
orbits, in order of a cheap lower bound on each member's smallest cover,
and stops once that bound passes the witness in hand. A sharper bound,
from the member's alternating 4-cycles, skips a member before it is
solved. The orbits are only searched for when there are more perfect
matchings than vertices: the search costs about one refinement per
vertex, which fewer matchings cannot pay back.

Neither phase lists all of a matching's alternating cycles. Both start
from the free sides of its short cycles, cover them, and check the
cover against the enumerated perfect matchings. Each matching the cover
misses adds its difference from M, and the cover is sought again, until
M is the only matching left (constraint generation for implicit hitting
sets; Moreno-Centeno and Karp, Oper. Res. 61(2), 2013).

Convention: a graph with no perfect matching gets af = |E| with an empty
witness, tagged method "convention_no_pm".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Literal, Sequence

from .budget import Budget, BudgetExceededError
from .graph import Edge, Graph, edge
from .matching import (
    Matching,
    alternating_cycles,
    count_pms_excluding,
    edge_indices,
    enumerate_perfect_matchings,
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
    matching: Matching
    af_of_m: int
    f_of_m: int


def is_anti_forcing_set(
    g: Graph, s: frozenset[Edge] | set[Edge], budget: Budget | None = None
) -> bool:
    """True iff g minus s has exactly one perfect matching; the count is charged to budget."""
    norm = frozenset(edge(u, v) for u, v in s)
    extra = norm - g.edges
    if extra:
        raise ValueError(f"edges not in graph: {sorted(extra)}")
    return count_pms_excluding(g, norm, cap=2, budget=budget) == 1


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
    # edge i. Module-level, not a closure: a closure that calls itself is
    # a reference cycle, left behind for the cyclic collector.
    tick()
    rest = alive & (alive - 1)
    if not rest:
        found.append(removed)
        return
    if not left:
        return
    # An anti-forcing set containing removed must hit the first or second
    # surviving matching; branching on its smallest edge there, the edges
    # tried before it are forbidden below, so each set is reached once.
    first = (alive ^ rest).bit_length() - 1
    second = (rest & -rest).bit_length() - 1
    branch = (pms[first] | pms[second]) & ~forbidden
    if left == 1:
        # The children are leaves: each one's node is settled here, without a call.
        while branch:
            low = branch & -branch
            child = alive & ~holding[low.bit_length() - 1]
            if child:
                tick()
                if not child & (child - 1):
                    found.append(removed | low)
            branch ^= low
        return
    while branch:
        low = branch & -branch
        child = alive & ~holding[low.bit_length() - 1]
        if child:
            _anti_forcing_sets(
                pms, holding, child, removed | low, forbidden, left - 1, tick, found
            )
        forbidden |= low
        branch ^= low


def _swaps(g: Graph, m: Matching) -> int:
    """How many perfect matchings differ from m in exactly two edges.

    Each swaps matched edges ab, cd for ac, bd or for ad, bc.
    """
    edges = g.sorted_edges
    matched = [edges[i] for i in edge_indices(m)]
    count = 0
    for j, (a, b) in enumerate(matched):
        for c, d in matched[j + 1 :]:
            count += (edge(a, c) in g.edges and edge(b, d) in g.edges) + (
                edge(a, d) in g.edges and edge(b, c) in g.edges
            )
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
        for rest in sorted((b & ~m for b in pms if b != m), key=int.bit_count):
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
    two lowest-indexed survivors, so the tree, its node count and the
    sets it finds are those of a rescan of the list of survivors. The
    witness is the smallest sorted edge list among those of the first
    size that has any.

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
    holding = [0] * len(edges)
    for j, m in enumerate(pms):
        for i in edge_indices(m):
            holding[i] |= 1 << j
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
    # Every set found has size edges, and of two such sets the smaller
    # sorted edge list holds the lowest edge where they differ.
    witness = found[0]
    for s in found:
        diff = s ^ witness
        if diff & -diff & s:
            witness = s
    picks = frozenset(edges[i] for i in edge_indices(witness))
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
# sorted by size (bit count). Filtering keeps a list sorted, so lists are
# sorted only where masks are gathered: from the cycles of a matching,
# when a family grows, and by the refinement step of _lex_min_cover.
# masks[0] is then a smallest set, which makes it the branching pivot,
# and the greedy packing takes sets smallest first. A matching's cycles
# have distinct free sides, which go through a set all the same: ties in
# size keep the set's order, and the search trees depend on it.


def _packing_bound(masks: Sequence[int]) -> int:
    """Size of a greedy packing of pairwise disjoint sets: a lower bound."""
    taken = 0
    count = 0
    for s in masks:
        if not s & taken:
            count += 1
            taken |= s
    return count


def _exists_cover(masks: list[int], k: int, budget: Budget) -> int | None:
    """A hitting set of at most k elements as a bitmask, or None if none exists.

    No sets give the empty cover 0, so test the result with ``is None``.
    """
    if not masks:
        return 0
    if k <= 0:
        return None
    budget.tick()
    if _packing_bound(masks) > k:
        return None
    t = masks[0]
    while t:
        low = t & -t
        cover = _exists_cover([s for s in masks if not s & low], k - 1, budget)
        if cover is not None:
            return cover | low
        t ^= low
    return None


def _min_cover_size(
    masks: list[int], budget: Budget, below: int | None = None
) -> tuple[int, int] | None:
    """Minimum hitting set size and a cover of that size, as a bitmask.

    Deepens from the packing bound. Returns None as soon as the minimum
    is known to be at least ``below``.
    """
    k = _packing_bound(masks)
    while below is None or k < below:
        cover = _exists_cover(masks, k, budget)
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
    found completion becomes the new cover. Only the search gets the
    sets cut to the bits above its candidate, deduplicated and re-sorted.
    The cut changes no result: a minimum cover has no spare element, so
    a completion using a lower bit outside the prefix would have made
    that bit an earlier pick. It only keeps the search off such bits.
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
                rest = sorted({s & -(low << 1) for s in rest}, key=int.bit_count)
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


def _missed(m: Matching, pms: Sequence[Matching], cover: int) -> list[int]:
    """The free sides of M Δ M' over the other matchings M' that avoid ``cover``.

    ``pms`` holds every perfect matching, ``m`` is M. Empty exactly when
    M is the only perfect matching of G minus ``cover``.
    """
    return [b & ~m for b in pms if not b & cover and b != m]


def _grown(family: list[int], missed: list[int]) -> list[int]:
    # The missed sets are distinct, since M' - M fixes M', and the family
    # holds none of them: the cover that misses them hits all of it.
    return sorted(family + missed, key=int.bit_count)


def _cover_lazily(
    g: Graph, m: Matching, pms: Sequence[Matching], budget: Budget, below: int | None = None
) -> tuple[list[int], int, int] | None:
    """af(G, M), proven from M's short cycles and the matchings they miss.

    ``m`` is M, and ``pms`` every perfect matching. Returns the family
    the proof grew, its minimum and a cover of that size, or None as soon
    as af(G, M) is known to be at least ``below``; the proof is in
    ``af_via_matchings``.
    """
    family = sorted(set(alternating_cycles(g, m, budget, SEED_LENGTH)), key=int.bit_count)
    while True:
        found = _min_cover_size(family, budget, below)
        if found is None:
            return None
        missed = _missed(m, pms, found[1])
        if not missed:
            return family, *found
        family = _grown(family, missed)


def _lex_min_lazily(
    m: Matching,
    pms: Sequence[Matching],
    family: list[int],
    value: int,
    cover: int,
    budget: Budget,
    beat: Sequence[int] | None,
) -> list[int] | None:
    """M's lexicographically smallest cover, as ``_lex_min_cover`` gives it.

    ``m`` is M, and ``pms`` every perfect matching. ``family`` has
    minimum ``value`` = af(G, M), and ``cover`` is a cover of it of that
    size. The family is grown until its smallest cover leaves M unique;
    the proof is in ``af_via_matchings``.
    """
    while True:
        picks = _lex_min_cover(family, value, cover, budget, beat)
        if picks is None:
            return None
        missed = _missed(m, pms, sum(1 << i for i in picks))
        if not missed:
            return picks
        family = _grown(family, missed)
        found = _exists_cover(family, value, budget)
        assert found is not None, "a true cover of size af(G, M) covers every family"
        cover = found


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
    ends = [{v for i in edge_indices(c) for v in edges[i]} for c in cycles]
    matched = {sum(1 << i for i in edge_indices(m) if edges[i][0] in e) for e in ends}
    af = _min_cover_size(sorted(set(cycles), key=int.bit_count), budget)
    f = _min_cover_size(sorted(matched, key=int.bit_count), budget)
    assert af is not None and f is not None
    return MatchingAnalysis(m, af[0], f[0])


def _lowest_outside(g: Graph, m: Matching, size: int) -> list[int]:
    """The ``size`` smallest edge indices of g outside m."""
    return edge_indices(~m & ((1 << len(g.sorted_edges)) - 1))[:size]


def _four_cycle_pairs(g: Graph, m: Matching) -> tuple[list[int], list[int]]:
    """The edges outside m, split by m-alternating 4-cycles.

    A free edge uw closes the m-alternating 4-cycle u-w-b-a-u, with a and
    b the mates of u and w, when ab is an edge. Its free side {uw, ab} is
    then one of a family of disjoint pairs, and every cover holds an edge
    of each. Returns the smaller edge index of each pair, and the indices
    of every other edge outside m, both ascending. The pair count is at
    most af(G, m); the proof is in ``af_via_matchings``.
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
        else:
            other.append(i)
    return smaller, other


def _four_cycle_bound(g: Graph, m: Matching, size: int) -> list[int]:
    """A lower bound on m's lexicographically smallest cover, of ``size`` = af(G, m).

    The smaller edge of each alternating 4-cycle pair, together with the
    ``size`` - #pairs smallest other edges outside m; the proof is in
    ``af_via_matchings``.
    """
    smaller, other = _four_cycle_pairs(g, m)
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
      at most ``SEED_LENGTH`` edges.
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

    af(G, M) is the same for every PM M in one orbit of Aut(G), so the
    solve runs in two phases:

    1. The value is the minimum over one representative per orbit, the
       first PM of each. A free edge uw lies on at most one M-alternating
       4-cycle, u-w-b-a-u with a and b the mates of u and w, so the free
       sides {uw, ab} of these cycles are disjoint pairs, and every cover
       holds an edge of each. Alternating cycles that share no free edge
       need one cover edge each, so M's pair count p(M) is at most
       af(G, M). The representatives are visited in ascending order of
       (p(M), index), keeping the best value so far; a PM is dropped as
       soon as its family's minimum exceeds it, and the pass stops at
       the first representative whose p(M) exceeds it, since it and
       every later one have af(G, M) >= p(M) > best. An optimal
       representative has p(M) <= value <= best, so each is still
       solved, to the same cover. The order is what makes the stop
       bite: the first PMs in enumeration order tend to have high
       values, and a low best comes early from the PMs with few pairs.
    2. The reported witness is the lexicographically smallest cover over
       every optimal PM, so repeated runs agree byte for byte. Only the
       members of optimal orbits can give it. Let L(M) be the ``value``
       smallest edge indices not in M. A cover of M is a ``value``-subset
       of the edges outside M, and the i-th smallest element of a subset
       is at least the i-th smallest of the whole set, so M's smallest
       cover is at least L(M), element by element. The members are
       refined in order of L(M), each against the witness so far, and
       the pass stops at the first one whose L(M) exceeds it. That order
       is the enumeration order reversed. The PMs come in lexicographic
       order, so the least edge where a later PM differs from an earlier
       one is in the earlier one and free in the later one: L of the
       later PM is no larger. A member that phase 1 did not solve is
       solved from its own short cycles first, so that its family's
       minimum is ``value`` when the refinement starts.

       A member whose 4-cycle bound L4(M) exceeds the witness is skipped
       before it is solved. L4(M) is the smaller edge of each 4-cycle
       pair, together with the ``value`` - p(M) smallest other edges
       outside M. From M's smallest cover C, pick one edge per pair, the
       smaller one whenever C holds it: each pick is at least its pair's
       smaller edge, and the rest of C are edges outside M that are no
       pair's smaller edge, so they are at least the fill. Hence C is at
       least L4(M) element by element, and L4(M) is at least L(M). L
       stays the stop: unlike L4, it only falls along the visit order.

    The orbits come from the automorphism search in ``symmetry`` only
    when there are more PMs than vertices. The search costs about one
    refinement per vertex of its first target cell, so on fewer PMs it
    cannot pay back; each PM is then its own orbit.

    When the budget runs out, BudgetExceededError carries the best value
    so far as ``upper``. While phase 1 solves the representative with
    pair count p, ``lower`` is min(best, p): every earlier representative
    has a value of at least best, and this one and every later one have
    af(G, M) >= p. Once phase 2 has begun the value is proven, and
    ``lower`` carries it too. While the PMs are listed or their orbits
    closed, ``lower`` stays None.
    """
    budget = budget or Budget()
    pms = enumerate_perfect_matchings(g, budget=budget)
    if not pms:
        return AntiForcingResult(len(g.edges), frozenset(), "convention_no_pm")
    best: int | None = None
    p: int | None = None  # p(M) of the representative being solved
    solved: dict[int, tuple[list[int], int]] = {}  # optimal representative: family, cover
    try:
        orbit = pm_orbits(g, pms, budget) if len(pms) > g.n else range(len(pms))
        order = sorted(
            (len(_four_cycle_pairs(g, m)[0]), i) for i, m in enumerate(pms) if orbit[i] == i
        )
        for p, i in order:
            if best is not None and p > best:
                break
            found = _cover_lazily(g, pms[i], pms, budget, None if best is None else best + 1)
            if found is None:
                continue
            family, value, cover = found
            if value != best:
                best, solved = value, {}
            solved[i] = (family, cover)
    except BudgetExceededError as exc:
        exc.upper = best
        if p is not None:
            exc.lower = p if best is None else min(best, p)
        raise
    assert best is not None
    witness: list[int] | None = None
    try:
        for i in reversed(range(len(pms))):
            if orbit[i] not in solved:
                continue
            if witness is not None:
                if _lowest_outside(g, pms[i], best) > witness:
                    break
                if _four_cycle_bound(g, pms[i], best) > witness:
                    continue
            if i in solved:
                family, cover = solved[i]
            else:
                found = _cover_lazily(g, pms[i], pms, budget)
                assert found is not None and found[1] == best
                family, _, cover = found
            picks = _lex_min_lazily(pms[i], pms, family, best, cover, budget, witness)
            if picks is not None:
                witness = picks
    except BudgetExceededError as exc:
        exc.lower = exc.upper = best
        raise
    assert witness is not None
    edges = g.sorted_edges
    return AntiForcingResult(best, frozenset(edges[i] for i in witness), "via_matchings")

