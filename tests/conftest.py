"""Shared test corpora: the small-graph atlas and seeded random graphs."""

from __future__ import annotations

import importlib.util
import random
from functools import lru_cache
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import strategies as st

from antiforce import Budget, Graph, af_subset_search, complete, edge, from_json


def nx_to_graph(ng: nx.Graph) -> Graph:
    mapping = {v: i for i, v in enumerate(sorted(ng.nodes()))}
    return Graph(
        ng.number_of_nodes(),
        frozenset(edge(mapping[u], mapping[v]) for u, v in ng.edges()),
    )


def graph_to_nx(g: Graph) -> nx.Graph:
    ng = nx.Graph()
    ng.add_nodes_from(range(g.n))
    ng.add_edges_from(g.sorted_edges)
    return ng


@lru_cache(maxsize=1)
def connected_atlas() -> tuple[Graph, ...]:
    """One representative per isomorphism class of connected graphs on <= 7 vertices."""
    out = []
    for ng in nx.graph_atlas_g():
        if ng.number_of_nodes() > 0 and nx.is_connected(ng):
            out.append(nx_to_graph(ng))
    return tuple(out)


@lru_cache(maxsize=1)
def _bench_corpus():
    """The benchmark's corpus module, ``bench/corpus.py``."""
    where = Path(__file__).resolve().parents[1] / "bench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("bench_corpus", where)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    return corpus


def benchmark_random_graphs(seed: int) -> list[Graph]:
    """The benchmark's seeded random corpus, as graphs."""
    return [from_json(text) for _, text in _bench_corpus().random_graphs(seed)]


def benchmark_family_graphs() -> list[Graph]:
    """The benchmark's 99 criterion-1 family instances, as graphs."""
    return [from_json(text) for _, text in _bench_corpus().criterion1()]


def mask_of(g: Graph, edges) -> int:
    """The edge mask of some of g's edges: bit i stands for ``g.sorted_edges[i]``."""
    return sum(1 << g.edge_index[e] for e in edges)


def is_perfect_matching(g: Graph, m: int) -> bool:
    """Whether the mask holds edges of g only, and n/2 of them that cover every vertex."""
    if m < 0 or m >> len(g.edges) or m.bit_count() * 2 != g.n:
        return False
    return len({v for e in edges_of(g, m) for v in e}) == g.n


def edges_of(g: Graph, mask: int) -> set[tuple[int, int]]:
    """The edges of g whose bits are set in ``mask``."""
    return {e for i, e in enumerate(g.sorted_edges) if mask >> i & 1}


def random_connected_graph(rng: random.Random, n: int) -> Graph:
    """Random attachment tree plus a sprinkle of extra edges."""
    if n < 1:
        raise ValueError("need n >= 1")
    edges: set[tuple[int, int]] = set()
    for v in range(1, n):
        edges.add(edge(rng.randrange(v), v))
    pool = [
        (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges
    ]
    rng.shuffle(pool)
    extra = rng.randint(0, len(pool))
    edges.update(pool[:extra])
    return Graph(n, frozenset(edges))


def complete_joined_to_star(n: int) -> Graph:
    """K_n joined by one edge to the centre of a star K_1,3.

    It has no perfect matching, and the walk only finds that out after
    expanding every residual state of K_n it can reach, a number that
    still grows exponentially in n (92 at n = 10, 613 at n = 14).
    """
    edges = {(u, v) for u in range(n) for v in range(u + 1, n)}
    edges |= {(n - 1, n), (n, n + 1), (n, n + 2), (n, n + 3)}
    return Graph(n + 4, frozenset(edges))


@st.composite
def graphs(draw, min_n: int = 0, max_n: int = 7):
    """Arbitrary simple graph on 0..max_n vertices."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if not pairs:
        return Graph(n)
    chosen = draw(st.sets(st.sampled_from(pairs)))
    return Graph(n, frozenset(chosen))


@st.composite
def connected_graphs(draw, min_n: int = 1, max_n: int = 7):
    """Connected simple graph: random tree skeleton plus extra edges."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    tree = {
        edge(draw(st.integers(min_value=0, max_value=v - 1)), v)
        for v in range(1, n)
    }
    pairs = [
        (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in tree
    ]
    extra = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return Graph(n, frozenset(tree | extra))


@pytest.fixture(scope="session")
def atlas() -> tuple[Graph, ...]:
    return connected_atlas()


@pytest.fixture(scope="session")
def k8_subset_search() -> tuple[int, int]:
    """af_subset_search on K_8, once: its value and the budget nodes it used."""
    full = Budget(max_seconds=60.0)
    value = af_subset_search(complete(8), full).value
    return value, full.nodes
