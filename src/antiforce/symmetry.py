"""Automorphisms of a graph, and the orbits they cut its perfect matchings into.

Generators come from an individualise-and-refine search in the manner of
McKay and Piperno (J. Symb. Comput. 60, 2014), cut down to what the
matching route needs. A colouring is a list of comparable vertex colours;
refinement renumbers it so that a vertex's colour is the number of
vertices in earlier cells. A singleton cell then keeps its colour under
every later refinement, so two leaves of the search that give a vertex
the same colour map each individualised vertex to its counterpart.

The search starts from each vertex's common-neighbour profile: the
sorted list of |N(v) ∩ N(w)| over every vertex w. An automorphism maps
N(v) ∩ N(w) onto N(π(v)) ∩ N(π(w)), and w over every vertex onto π(w)
over every vertex, so it keeps each profile: the colouring loses no
automorphism. On regular graphs, where refinement from one colour stays
uniform, the profiles split the vertices with n² popcounts and no pass
over the matchings.

Every permutation is checked against the edges before it is kept, so a
missed generator only splits an orbit: the orbits are never too coarse.
The perfect-matching orbits are closed from the generators by a search
over the matchings, which stops once every matching is placed.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .budget import Budget
from .graph import Graph, edge
from .matching import Matching, edge_indices

Adjacency = Sequence[Sequence[int]]


def _refine(adj: Adjacency, colours: Sequence) -> list[int]:
    """The coarsest equitable refinement of ``colours``.

    Each round gives every vertex the signature (its colour, the sorted
    colours of its neighbours) and numbers the signatures in sorted
    order. The rule names no vertex, so it commutes with every
    automorphism that keeps the starting colours.
    """
    n = len(adj)
    while True:
        sigs = [(colours[v], sorted(colours[w] for w in adj[v])) for v in range(n)]
        order = sorted(range(n), key=sigs.__getitem__)
        new = [0] * n
        for i in range(1, n):
            v, u = order[i], order[i - 1]
            new[v] = new[u] if sigs[v] == sigs[u] else i
        if new == colours:
            return new
        colours = new


def _individualise(adj: Adjacency, colours: list[int], v: int) -> list[int]:
    """Split v off the front of its cell, then refine."""
    c = colours[v]
    return _refine(adj, [c + 1 if x == c and u != v else x for u, x in enumerate(colours)])


def _target_cell(colours: list[int]) -> list[int]:
    """The vertices of the first cell of two or more, or [] when discrete."""
    first = min((c for c in set(colours) if colours.count(c) > 1), default=None)
    return [v for v, c in enumerate(colours) if c == first]


def _search(
    adj: Adjacency,
    colours: list[int],
    depth: int,
    shapes: list[list[int]],
    leaf: list[int],
    edges: frozenset,
    tick: Callable[[], None],
) -> list[int] | None:
    # The first automorphism found below this node, mapping the first
    # leaf onto one of its leaves. A node whose cell sizes differ from
    # the first path's at the same depth cannot hold such a leaf.
    tick()
    if sorted(colours) != shapes[depth]:
        return None
    cell = _target_cell(colours)
    if not cell:
        at = [0] * len(colours)
        for v, c in enumerate(colours):
            at[c] = v
        perm = [at[c] for c in leaf]
        return perm if all(edge(perm[u], perm[v]) in edges for u, v in edges) else None
    for v in cell:
        perm = _search(adj, _individualise(adj, colours, v), depth + 1, shapes, leaf, edges, tick)
        if perm is not None:
            return perm
    return None


def automorphism_generators(
    g: Graph, colours: Sequence, budget: Budget | None = None
) -> list[list[int]]:
    """Generators of the automorphisms of g that keep ``colours``.

    Individualises the first vertex of the first non-singleton cell down
    to a first leaf. Then, from the deepest level up, it searches below
    each other vertex of that level's cell that is not yet in the first
    vertex's orbit; an automorphism found there fixes the levels above.
    A permutation maps vertex v to ``perm[v]``.
    """
    adj = [[w for w, _ in pairs] for pairs in g.incident_edges]
    tick = (budget or Budget()).tick
    path = [_refine(adj, list(colours))]
    cells = []
    while cell := _target_cell(path[-1]):
        tick()
        cells.append(cell)
        path.append(_individualise(adj, path[-1], cell[0]))
    shapes = [sorted(c) for c in path]
    orbit = list(range(g.n))  # union-find over vertices, rooted at the least
    gens: list[list[int]] = []
    for depth in reversed(range(len(cells))):
        first = cells[depth][0]
        for w in cells[depth][1:]:
            if _root(orbit, w) == _root(orbit, first):
                continue
            child = _individualise(adj, path[depth], w)
            perm = _search(adj, child, depth + 1, shapes, path[-1], g.edges, tick)
            if perm is not None:
                gens.append(perm)
                for v in range(g.n):
                    _join(orbit, v, perm[v])
    return gens


def _root(parent: list[int], i: int) -> int:
    while parent[i] != i:
        parent[i] = i = parent[parent[i]]
    return i


def _join(parent: list[int], i: int, j: int) -> None:
    a, b = _root(parent, i), _root(parent, j)
    parent[max(a, b)] = min(a, b)


def _common_neighbour_profiles(g: Graph) -> list[list[int]]:
    """Each vertex's sorted counts of neighbours shared with every vertex, itself included."""
    near = g.neighbour_masks
    return [sorted((a & b).bit_count() for b in near) for a in near]


def pm_orbits(g: Graph, pms: Sequence[Matching], budget: Budget | None = None) -> list[int]:
    """For each perfect matching, the index of the first one in its orbit.

    The matchings are edge masks, as the enumerator yields them, and
    every automorphism must map the list onto itself: all of a graph's
    perfect matchings, or a union of their orbits. The search starts
    from the common-neighbour profiles, which every automorphism keeps
    (see the module docstring); they cost no pass over the matchings,
    and on regular graphs they spare the search most of the vertex
    after vertex individualising that one colour would need. The
    orbits are then closed one at a time: from each
    matching not yet placed, in index order, a stack search maps the
    matchings it reaches through every generator, edge by edge, and
    labels them with its index, which is the least of its orbit. It
    stops once every matching is placed. The budget is charged one node
    per matching in the index of the matchings, one per matching the
    search expands, and the generator search's nodes.
    """
    edges = g.sorted_edges
    index = g.edge_index
    budget = budget or Budget()
    gens = automorphism_generators(g, _common_neighbour_profiles(g), budget)
    if not gens:
        return list(range(len(pms)))
    moves = [[1 << index[edge(perm[u], perm[v])] for u, v in edges] for perm in gens]
    at: dict[int, int] = {}
    for k, m in enumerate(pms):
        budget.tick()
        at[m] = k
    first = [-1] * len(pms)
    unplaced = len(pms)
    for k in range(len(pms)):
        if first[k] >= 0:
            continue
        first[k] = k
        unplaced -= 1
        stack = [k]
        while stack and unplaced:
            budget.tick()
            m = edge_indices(pms[stack.pop()])
            for moved in moves:
                image = at[sum(map(moved.__getitem__, m))]
                if first[image] < 0:
                    first[image] = k
                    unplaced -= 1
                    stack.append(image)
    return first
