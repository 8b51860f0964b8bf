import math

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antiforce import (
    Graph,
    edge,
    from_edgelist,
    from_json,
    loads,
    power,
    to_json,
)
from antiforce.families import FAMILIES, cycle, path
from conftest import connected_graphs, graph_to_nx, graphs, nx_to_graph


def test_edge_normalizes():
    assert edge(3, 1) == (1, 3)
    assert edge(1, 3) == (1, 3)
    with pytest.raises(ValueError):
        edge(2, 2)


def test_graph_normalizes_edges():
    g = Graph(3, frozenset({(2, 0), (1, 2)}))
    assert g.edges == {(0, 2), (1, 2)}
    assert g.sorted_edges == ((0, 2), (1, 2))


def test_graph_rejects_out_of_range():
    with pytest.raises(ValueError):
        Graph(2, frozenset({(0, 2)}))
    with pytest.raises(ValueError):
        Graph(-1)


@pytest.mark.parametrize(
    "n,edges",
    [
        (2.0, {(0, 1)}),
        (True, ()),
        ("2", ()),
        (None, ()),
        (2, {(0.0, 1)}),
        (2, {(0, True)}),
        (2, {("0", 1)}),
    ],
)
def test_graph_requires_integers(n, edges):
    with pytest.raises(ValueError):
        Graph(n, frozenset(edges))


@pytest.mark.parametrize("edges", [frozenset({1}), None, [(0, 1, 2)]])
def test_graph_requires_pairs(edges):
    with pytest.raises(ValueError, match="pair"):
        Graph(2, edges)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Graph(2, [1] * 100000),
        lambda: Graph([[0]] * 5000),
        lambda: Graph(2, [("x" * 100000, 1)]),
        lambda: Graph(2, [(0, 10**5000)]),
        lambda: Graph(10**5000),
        lambda: from_edgelist("x" * 100000 + " 0"),
        lambda: from_edgelist("2 -" + "9" * 4000),
        lambda: power(path(3), -(10**4000)),
    ],
    ids=[
        "edge-not-a-pair",
        "order-a-list",
        "long-str-endpoint",
        "huge-endpoint",
        "huge-order",
        "long-token",
        "huge-edge-count",
        "huge-exponent",
    ],
)
def test_error_messages_stay_short(build):
    # A message names what is wrong; it never repeats an unbounded input.
    with pytest.raises(ValueError) as info:
        build()
    assert len(str(info.value)) < 200


def test_edge_index_numbers_the_sorted_edges():
    g = Graph(3, frozenset({(2, 0), (1, 2), (0, 1)}))
    assert g.edge_index == {e: i for i, e in enumerate(g.sorted_edges)}
    assert g.edge_index == {(0, 1): 0, (0, 2): 1, (1, 2): 2}


def test_graph_label_validation():
    Graph(2, frozenset({(0, 1)}), ("a", "b"))
    with pytest.raises(ValueError):
        Graph(2, frozenset(), ("a",))
    with pytest.raises(ValueError):
        Graph(2, frozenset(), ("a", "a"))


def test_incident_edges_sorted():
    # Each vertex's neighbours ascending, each with its edge's position in sorted_edges.
    g = Graph(4, frozenset({(0, 3), (2, 3), (0, 1), (0, 2)}))
    assert g.sorted_edges == ((0, 1), (0, 2), (0, 3), (2, 3))
    assert g.incident_edges == (
        ((1, 0), (2, 1), (3, 2)),
        ((0, 0),),
        ((0, 1), (3, 3)),
        ((0, 2), (2, 3)),
    )
    assert edge(3, 0) in g.edges and edge(1, 2) not in g.edges


def test_power_of_path():
    g = power(path(4), 2)
    assert g.edges == {(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)}
    assert g.labels == path(4).labels


def test_power_validation():
    with pytest.raises(ValueError):
        power(path(3), 0)
    with pytest.raises(ValueError):
        power(path(3), 1.5)  # type: ignore[arg-type]
    with pytest.raises(ValueError):
        power(path(3), True)  # type: ignore[arg-type]


def test_power_one_is_identity():
    g = cycle(5)
    assert power(g, 1).edges == g.edges


def test_power_keeps_components():
    g = Graph(4, frozenset({(0, 1), (2, 3)}))
    h = power(g, 5)
    assert h.edges == g.edges


def test_power_stops_when_the_frontier_empties():
    # Each BFS ends when its queue runs out, so any m returns at once.
    assert power(path(5), 10**18).edges == {(u, v) for u in range(5) for v in range(u + 1, 5)}


def test_power_at_the_order_cap():
    assert len(power(cycle(4096), 4).edges) == 16384
    assert len(power(path(4096), 2).edges) == 8189


@settings(max_examples=60, deadline=None)
@given(connected_graphs(max_n=7), st.integers(min_value=1, max_value=8))
def test_power_at_diameter_is_complete(g, m):
    if m >= nx.diameter(graph_to_nx(g)):
        h = power(g, m)
        assert len(h.edges) == h.n * (h.n - 1) // 2


def _nx_power(g, m):
    return {edge(u, v) for u, v in nx.power(graph_to_nx(g), m).edges()}


def test_power_composes():
    """power agrees with networkx, which shares no code with it, and it composes.

    The check runs over every graph of the atlas, disconnected ones too,
    against networkx's power, and over every family for k <= 64 against
    the pairs networkx puts within distance m, each for m <= 6.
    """
    for g in map(nx_to_graph, nx.graph_atlas_g()):
        for m in range(1, 7):
            assert power(g, m).edges == _nx_power(g, m)
        for a in (2, 3):
            for b in (2, 3):
                assert power(power(g, a), b).edges == power(g, a * b).edges
    for factory in FAMILIES.values():
        for k in range(3 if factory is cycle else 1, 65):
            g = factory(k)
            at: list[set] = [set() for _ in range(7)]  # at[d]: the pairs at distance d
            for u, row in nx.all_pairs_shortest_path_length(graph_to_nx(g), cutoff=6):
                for v, d in row.items():
                    if u < v:
                        at[d].add((u, v))
            want: set = set()
            for m in range(1, 7):
                want |= at[m]
                assert power(g, m).edges == want


@settings(max_examples=60, deadline=None)
@given(connected_graphs(max_n=7), st.integers(1, 4))
def test_power_distance_is_ceil(g, j):
    base = dict(nx.all_pairs_shortest_path_length(graph_to_nx(g)))
    quot = dict(nx.all_pairs_shortest_path_length(graph_to_nx(power(g, j))))
    for u in range(g.n):
        for v in range(u + 1, g.n):
            assert quot[u][v] == math.ceil(base[u][v] / j)


def test_json_roundtrip():
    g = path(4)
    h = from_json(to_json(g))
    assert h == g
    bare = Graph(3, frozenset({(0, 2)}))
    assert from_json(to_json(bare)) == bare


@pytest.mark.parametrize("text", ["[]", "3", '"x"'])
def test_json_must_be_an_object(text):
    with pytest.raises(ValueError, match="^graph JSON must be an object$"):
        from_json(text)


def test_json_label_coverage():
    with pytest.raises(ValueError):
        from_json('{"n": 2, "edges": [], "labels": {"0": "a"}}')


def test_edgelist_roundtrip():
    g = Graph(4, frozenset({(0, 1), (2, 3)}))
    h = from_edgelist("\n".join(["4 2", "0 1", "2 3"]))
    assert h.n == g.n and h.edges == g.edges


def test_edgelist_rejects_bad_input():
    with pytest.raises(ValueError):
        from_edgelist("3")
    with pytest.raises(ValueError):
        from_edgelist("3 2\n0 1\n")
    with pytest.raises(ValueError):
        from_edgelist("3 2\n0 1\n1 0\n")
    with pytest.raises(ValueError, match="2 endpoint tokens, found 3"):
        from_edgelist("2 1\n0 1 extra\n")
    with pytest.raises(ValueError, match="edge count must be non-negative"):
        from_edgelist("2 -1\n")
    with pytest.raises(ValueError, match="vertex count"):
        from_edgelist("-2 0\n")


def test_loads_sniffs_format():
    g = path(3)
    assert loads(to_json(g)) == g
    h = loads("\n".join(["3 2", "0 1", "1 2"]))
    assert h.n == g.n and h.edges == g.edges
    assert loads("  \n" + to_json(g)) == g


@settings(max_examples=50, deadline=None)
@given(graphs(max_n=7))
def test_serialization_roundtrips(g):
    assert from_json(to_json(g)) == g
    h = from_edgelist("\n".join([f"{g.n} {len(g.edges)}", *(f"{u} {v}" for u, v in g.edges)]))
    assert h.n == g.n and h.edges == g.edges
