"""Core graph type and the distance power operation.

Graphs are simple and undirected, on vertices 0..n-1, with edges stored as
a frozenset of (u, v) pairs normalized to u < v. An optional label tuple
maps each index to a display name (position i labels vertex i).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

Edge = tuple[int, int]

# The largest vertex count the parsers accept. A power may hold n(n - 1)/2
# edges and the solvers cost at least n^2, so a short input must not
# declare a huge n.
MAX_ORDER = 4096


def edge(u: int, v: int) -> Edge:
    """Normalized edge: endpoints ordered ascending."""
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


def _is_int(x: object) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass(frozen=True)
class Graph:
    """The one validator: every graph is checked here, and a malformed one raises ValueError."""

    n: int
    edges: frozenset[Edge] = frozenset()
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        n = self.n
        _check_order(n)
        try:
            pairs = [(u, v) for u, v in self.edges]
        except (TypeError, ValueError):
            raise ValueError("edges must be a collection of vertex pairs") from None
        for u, v in pairs:
            if not (_is_int(u) and _is_int(v) and 0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge endpoints must be integers from 0 to n - 1, n = {n}")
        object.__setattr__(self, "edges", frozenset(edge(u, v) for u, v in pairs))
        if self.labels is not None:
            labels = tuple(self.labels)
            if len(labels) != n or not all(isinstance(lab, str) for lab in labels):
                raise ValueError("labels must be one string per vertex")
            if len(set(labels)) != n:
                raise ValueError("labels must be distinct")
            object.__setattr__(self, "labels", labels)

    @cached_property
    def sorted_edges(self) -> tuple[Edge, ...]:
        return tuple(sorted(self.edges))

    @cached_property
    def edge_index(self) -> dict[Edge, int]:
        """Position of each edge in ``sorted_edges``: bit i of an edge mask is edge i."""
        return {e: i for i, e in enumerate(self.sorted_edges)}

    @cached_property
    def incident_edges(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """For each vertex, its (neighbour, edge index) pairs, neighbours ascending.

        Edge (u, x) with u < x comes before every (x, v) in sorted order,
        so each vertex meets its neighbours in ascending order. An index,
        not its mask bit: one bit per edge would cost E^2/16 bytes.
        """
        pairs: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for i, (u, v) in enumerate(self.sorted_edges):
            pairs[u].append((v, i))
            pairs[v].append((u, i))
        return tuple(map(tuple, pairs))

    @cached_property
    def neighbour_masks(self) -> tuple[int, ...]:
        """For each vertex, its neighbours as a vertex mask: bit w for neighbour w."""
        return tuple(sum([1 << w for w, _ in nbrs]) for nbrs in self.incident_edges)


def _bfs_within(g: Graph, depth: int) -> Iterator[tuple[int, list[int], list[int]]]:
    """Each source with the vertices it reaches within ``depth`` steps, and their depths.

    One BFS per vertex, cut off past ``depth`` or when it has reached
    every vertex it can. It yields ``(src, reached, dist)``: ``reached``
    lists src and the vertices it reaches in BFS order, and
    ``dist[v]`` is d_g(src, v) for each of them (-1 for the rest).
    """
    incident = g.incident_edges
    for src in range(g.n):
        dist = [-1] * g.n
        dist[src] = 0
        reached = [src]
        for u in reached:  # the BFS queue: the loop visits what it appends
            d = dist[u] + 1
            if d > depth:
                break
            for w, _ in incident[u]:
                if dist[w] < 0:
                    dist[w] = d
                    reached.append(w)
        yield src, reached, dist


def power(g: Graph, m: int) -> Graph:
    """Distance power: same vertices, edge iff 1 <= d_g(u, v) <= m.

    One ``_bfs_within`` pass at depth m, so any m returns at once.
    Unreachable pairs never become edges, so powers of a disconnected
    graph stay disconnected.
    """
    if not _is_int(m) or m < 1:
        raise ValueError(f"power exponent must be an integer >= 1, got {_shown(m)}")
    edges = frozenset((src, v) for src, reached, _ in _bfs_within(g, m) for v in reached if v > src)
    return Graph(g.n, edges, g.labels)


# Serialization. JSON is the canonical form; a bare "n m" edge list is
# accepted as input for pipeline convenience.


def to_json(g: Graph) -> str:
    doc: dict = {"n": g.n, "edges": [list(e) for e in g.sorted_edges]}
    if g.labels is not None:
        doc["labels"] = {str(i): lab for i, lab in enumerate(g.labels)}
    return json.dumps(doc)


def _check_order(n: object) -> None:
    """The one vertex-count check: an int from 0 to MAX_ORDER, made before anything is built."""
    if not _is_int(n) or n < 0:
        raise ValueError(f"vertex count must be a non-negative integer, got {_shown(n)}")
    if n > MAX_ORDER:
        raise ValueError(f"graph declares {_shown(n)} vertices, more than the {MAX_ORDER} accepted")


def _shown(x: object) -> str:
    """x as an error message names it: never its full text, which may be unbounded."""
    if _is_int(x):
        return str(x) if abs(x) < 10**18 else ("at most -10^18" if x < 0 else "at least 10^18")
    return type(x).__name__


def from_json(text: str) -> Graph:
    """Parse the JSON form; malformed input raises ValueError."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("graph JSON must be an object")
    n = doc.get("n")
    _check_order(n)
    pairs = doc.get("edges", [])
    if not isinstance(pairs, list):
        raise ValueError("graph JSON 'edges' must be a list of [u, v] pairs")
    labels = doc.get("labels")
    if labels is not None:
        keys = [str(i) for i in range(n)]
        if not isinstance(labels, dict) or labels.keys() != set(keys):
            raise ValueError("graph JSON 'labels' must map each index '0' to 'n-1' to a name")
        labels = tuple(labels[key] for key in keys)
    g = Graph(n, pairs, labels)
    if len(g.edges) != len(pairs):
        raise ValueError("duplicate edges in graph JSON 'edges'")
    return g


def _ints(tokens: list[str]) -> list[int]:
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise ValueError("edge list tokens must be integers") from None


def from_edgelist(text: str) -> Graph:
    tokens = text.split()
    if len(tokens) < 2:
        raise ValueError("edge list needs a header line 'n m'")
    n, m = _ints(tokens[:2])
    if m < 0:
        raise ValueError(f"edge count must be non-negative, got {_shown(m)}")
    flat = tokens[2:]
    if len(flat) != 2 * m:
        raise ValueError(
            f"expected {_shown(m)} edges as {_shown(2 * m)} endpoint tokens, found {len(flat)}"
        )
    ends = _ints(flat)
    g = Graph(n, list(zip(ends[::2], ends[1::2])))
    if len(g.edges) != m:
        raise ValueError("duplicate edges in edge list")
    return g


def loads(text: str) -> Graph:
    """Parse either the JSON form or a plain edge list."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return from_json(stripped)
    return from_edgelist(stripped)
