"""Parameterized graph families.

Index conventions (fixed so distance-pattern tests can address vertices):

- path/cycle: vertex i-1 is labeled "vi".
- friendship(k): hub at index 0; triangle i uses indices 2i-1 and 2i.
- triangular_chain(k): spine c_0..c_k at 0..k, peak t_i at k+i; triangle i
  is {c_(i-1), c_i, t_i}.
- square chains on 3k+1 vertices: spine y_1..y_(k+1) at 0..k, then x_i at
  k+i, then z_i at 2k+i. Ortho squares are y_i-x_i-z_i-y_(i+1)-y_i (cut
  vertices adjacent); para squares are y_i-x_i-y_(i+1)-z_i-y_i (cut
  vertices opposite).
"""

from __future__ import annotations

from typing import Callable

from .graph import Edge, Graph, _check_order


def path(k: int) -> Graph:
    if k < 1:
        raise ValueError(f"path needs k >= 1, got {k}")
    _check_order(k)
    edges = frozenset((i, i + 1) for i in range(k - 1))
    return Graph(k, edges, tuple(f"v{i + 1}" for i in range(k)))


def cycle(k: int) -> Graph:
    if k < 3:
        raise ValueError(f"cycle needs k >= 3, got {k}")
    _check_order(k)
    edges = frozenset((i, (i + 1) % k) for i in range(k))
    return Graph(k, edges, tuple(f"v{i + 1}" for i in range(k)))


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"complete needs n >= 1, got {n}")
    _check_order(n)
    edges = frozenset((u, v) for u in range(n) for v in range(u + 1, n))
    return Graph(n, edges)


def friendship(k: int) -> Graph:
    if k < 1:
        raise ValueError(f"friendship needs k >= 1, got {k}")
    _check_order(2 * k + 1)
    edges: set[Edge] = set()
    for i in range(1, k + 1):
        a, b = 2 * i - 1, 2 * i
        edges.update({(0, a), (0, b), (a, b)})
    return Graph(2 * k + 1, frozenset(edges))


def triangular_chain(k: int) -> Graph:
    if k < 1:
        raise ValueError(f"triangular_chain needs k >= 1, got {k}")
    _check_order(2 * k + 1)
    edges: set[Edge] = set()
    for i in range(1, k + 1):
        c_prev, c_cur, t = i - 1, i, k + i
        edges.update({(c_prev, c_cur), (c_prev, t), (c_cur, t)})
    labels = tuple(f"c{i}" for i in range(k + 1)) + tuple(
        f"t{i}" for i in range(1, k + 1)
    )
    return Graph(2 * k + 1, frozenset(edges), labels)


def _square_chain_labels(k: int) -> tuple[str, ...]:
    return (
        tuple(f"y{i}" for i in range(1, k + 2))
        + tuple(f"x{i}" for i in range(1, k + 1))
        + tuple(f"z{i}" for i in range(1, k + 1))
    )


def ortho_square_chain(k: int) -> Graph:
    if k < 1:
        raise ValueError(f"ortho_square_chain needs k >= 1, got {k}")
    _check_order(3 * k + 1)
    edges: set[Edge] = set()
    for i in range(1, k + 1):
        y_i, y_next = i - 1, i
        x_i, z_i = k + i, 2 * k + i
        edges.update({(y_i, x_i), (x_i, z_i), (z_i, y_next), (y_i, y_next)})
    return Graph(3 * k + 1, frozenset(edges), _square_chain_labels(k))


def para_square_chain(k: int) -> Graph:
    if k < 1:
        raise ValueError(f"para_square_chain needs k >= 1, got {k}")
    _check_order(3 * k + 1)
    edges: set[Edge] = set()
    for i in range(1, k + 1):
        y_i, y_next = i - 1, i
        x_i, z_i = k + i, 2 * k + i
        edges.update({(y_i, x_i), (x_i, y_next), (y_i, z_i), (z_i, y_next)})
    return Graph(3 * k + 1, frozenset(edges), _square_chain_labels(k))


FAMILIES: dict[str, Callable[[int], Graph]] = {
    "path": path,
    "cycle": cycle,
    "complete": complete,
    "friendship": friendship,
    "tri-chain": triangular_chain,
    "ortho-chain": ortho_square_chain,
    "para-chain": para_square_chain,
}


def build(family: str, k: int) -> Graph:
    """The family's graph at k; its builder refuses more than ``graph.MAX_ORDER`` vertices."""
    try:
        builder = FAMILIES[family]
    except KeyError:
        raise ValueError(
            f"unknown family {family!r}, expected one of {sorted(FAMILIES)}"
        ) from None
    return builder(k)
