import networkx as nx
import pytest

from antiforce import (
    FAMILIES,
    build,
    complete,
    cycle,
    edge,
    friendship,
    ortho_square_chain,
    para_square_chain,
    path,
    triangular_chain,
)
from antiforce.graph import MAX_ORDER
from conftest import graph_to_nx


@pytest.mark.parametrize("k", [1, 2, 5, 9])
def test_path_shape(k):
    g = path(k)
    assert g.n == k and len(g.edges) == k - 1
    assert g.labels == tuple(f"v{i}" for i in range(1, k + 1))


@pytest.mark.parametrize("k", [3, 4, 7])
def test_cycle_shape(k):
    g = cycle(k)
    assert g.n == k and len(g.edges) == k
    assert all(len(nbrs) == 2 for nbrs in g.incident_edges)


@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_complete_shape(n):
    g = complete(n)
    assert g.n == n and len(g.edges) == n * (n - 1) // 2


@pytest.mark.parametrize("k", [1, 2, 4])
def test_friendship_shape(k):
    g = friendship(k)
    assert g.n == 2 * k + 1 and len(g.edges) == 3 * k
    assert len(g.incident_edges[0]) == 2 * k
    assert all(len(nbrs) == 2 for nbrs in g.incident_edges[1:])


@pytest.mark.parametrize("k", [1, 3, 6])
def test_triangular_chain_shape(k):
    g = triangular_chain(k)
    assert g.n == 2 * k + 1 and len(g.edges) == 3 * k
    at = g.labels.index
    for i in range(1, k + 1):
        assert edge(at(f"c{i - 1}"), at(f"c{i}")) in g.edges
        assert edge(at(f"c{i - 1}"), at(f"t{i}")) in g.edges
        assert edge(at(f"c{i}"), at(f"t{i}")) in g.edges


@pytest.mark.parametrize("factory", [ortho_square_chain, para_square_chain])
@pytest.mark.parametrize("k", [1, 2, 5])
def test_square_chain_shape(factory, k):
    g = factory(k)
    assert g.n == 3 * k + 1 and len(g.edges) == 4 * k
    labels = g.labels
    assert labels is not None
    assert labels[0] == "y1" and labels[k] == f"y{k + 1}"
    assert labels[k + 1] == "x1" and labels[2 * k + 1] == "z1"
    assert set(labels) == (
        {f"y{i}" for i in range(1, k + 2)}
        | {f"x{i}" for i in range(1, k + 1)}
        | {f"z{i}" for i in range(1, k + 1)}
    )


def test_ortho_square_structure():
    g = ortho_square_chain(3)
    at = g.labels.index
    for i in range(1, 4):
        y, y_next = at(f"y{i}"), at(f"y{i + 1}")
        x, z = at(f"x{i}"), at(f"z{i}")
        # Square i with the two cut vertices adjacent.
        assert edge(y, x) in g.edges and edge(x, z) in g.edges
        assert edge(z, y_next) in g.edges and edge(y, y_next) in g.edges


def test_para_square_structure():
    g = para_square_chain(3)
    at = g.labels.index
    for i in range(1, 4):
        y, y_next = at(f"y{i}"), at(f"y{i + 1}")
        x, z = at(f"x{i}"), at(f"z{i}")
        # Square i with the two cut vertices opposite.
        assert edge(y, x) in g.edges and edge(x, y_next) in g.edges
        assert edge(y, z) in g.edges and edge(z, y_next) in g.edges
        assert edge(y, y_next) not in g.edges


def test_spine_distances():
    g = ortho_square_chain(4)
    d = dict(nx.all_pairs_shortest_path_length(graph_to_nx(g)))
    at = g.labels.index
    for i in range(1, 5):
        for j in range(i + 1, 6):
            assert d[at(f"y{i}")][at(f"y{j}")] == j - i
    h = para_square_chain(4)
    d = dict(nx.all_pairs_shortest_path_length(graph_to_nx(h)))
    at = h.labels.index
    for i in range(1, 5):
        for j in range(i + 1, 6):
            assert d[at(f"y{i}")][at(f"y{j}")] == 2 * (j - i)


@pytest.mark.parametrize(
    "factory,block_size",
    [
        (friendship, 3),
        (triangular_chain, 3),
        (ortho_square_chain, 4),
        (para_square_chain, 4),
    ],
)
@pytest.mark.parametrize("k", [1, 2, 4])
def test_chains_are_uniform_cactuses(factory, block_size, k):
    """Every block is a single i-cycle: i vertices, i edges."""
    ng = graph_to_nx(factory(k))
    blocks = list(nx.biconnected_components(ng))
    assert len(blocks) == k
    for comp in blocks:
        assert len(comp) == block_size
        assert ng.subgraph(comp).number_of_edges() == block_size


def test_triangular_chain_two_is_friendship_two():
    a = graph_to_nx(triangular_chain(2))
    b = graph_to_nx(friendship(2))
    assert nx.is_isomorphic(a, b)


def test_single_square_is_four_cycle():
    a = graph_to_nx(ortho_square_chain(1))
    b = graph_to_nx(para_square_chain(1))
    c = graph_to_nx(cycle(4))
    assert nx.is_isomorphic(a, c) and nx.is_isomorphic(b, c)


def test_ortho_para_diverge_at_three():
    a = graph_to_nx(ortho_square_chain(3))
    b = graph_to_nx(para_square_chain(3))
    assert not nx.is_isomorphic(a, b)


def test_diameters():
    assert nx.diameter(graph_to_nx(friendship(3))) == 2
    assert nx.diameter(graph_to_nx(triangular_chain(4))) == 4
    # Extremes x_1 and z_k sit two hops beyond the spine ends.
    assert nx.diameter(graph_to_nx(ortho_square_chain(4))) == 6
    assert nx.diameter(graph_to_nx(para_square_chain(4))) == 8


@pytest.mark.parametrize(
    "factory,k",
    [
        (path, 0),
        (cycle, 2),
        (complete, 0),
        (friendship, 0),
        (triangular_chain, 0),
        (ortho_square_chain, 0),
        (para_square_chain, 0),
    ],
)
def test_factories_reject_small_k(factory, k):
    with pytest.raises(ValueError):
        factory(k)


@pytest.mark.parametrize("builder", list(FAMILIES.values()))
@pytest.mark.parametrize("k", ["5", None, 2.5])
def test_factories_reject_non_integer_k(builder, k):
    # Checked before anything uses k, so the message names its type.
    with pytest.raises(ValueError, match=f"needs [kn] >= [0-9]+, got {type(k).__name__}"):
        builder(k)


def test_build_caps_the_order():
    # Each builder refuses more than MAX_ORDER vertices before it builds
    # an edge, so a direct call at k = 10^8 returns at once, as build
    # does. The cap falls exactly at MAX_ORDER vertices.
    for builder in FAMILIES.values():
        with pytest.raises(ValueError, match=f"vertices, more than the {MAX_ORDER} accepted"):
            builder(10**8)
    assert build("path", MAX_ORDER).n == MAX_ORDER
    assert build("ortho-chain", 1365).n == MAX_ORDER
    for family, k in [("path", MAX_ORDER + 1), ("ortho-chain", 1366), ("friendship", 2048)]:
        with pytest.raises(ValueError, match=f"more than the {MAX_ORDER} accepted"):
            build(family, k)


def test_build_dispatch():
    assert build("path", 4) == path(4)
    assert build("tri-chain", 2) == triangular_chain(2)
    with pytest.raises(ValueError):
        build("nope", 3)
    assert set(FAMILIES) == {
        "path",
        "cycle",
        "complete",
        "friendship",
        "tri-chain",
        "ortho-chain",
        "para-chain",
    }
