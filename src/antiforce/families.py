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

from .graph import Edge, Graph, _check_order, _is_int, _shown


def _order(builder: str, k: int, least: int, per_k: int = 1, extra: int = 0, arg: str = "k") -> int:
    """Check the integer k >= least, then n = per_k * k + extra against MAX_ORDER; give n."""
    if not _is_int(k) or k < least:
        raise ValueError(f"{builder} needs {arg} >= {least}, got {_shown(k)}")
    n = per_k * k + extra
    _check_order(n)
    return n


def path(k: int) -> Graph:
    n = _order("path", k, 1)
    edges = frozenset((i, i + 1) for i in range(n - 1))
    return Graph(n, edges, tuple(f"v{i + 1}" for i in range(n)))


def cycle(k: int) -> Graph:
    n = _order("cycle", k, 3)
    edges = frozenset((i, (i + 1) % n) for i in range(n))
    return Graph(n, edges, tuple(f"v{i + 1}" for i in range(n)))


def complete(n: int) -> Graph:
    _order("complete", n, 1, arg="n")
    return Graph(n, frozenset((u, v) for u in range(n) for v in range(u + 1, n)))


def friendship(k: int) -> Graph:
    n = _order("friendship", k, 1, 2, 1)
    edges: set[Edge] = set()
    for i in range(1, k + 1):
        a, b = 2 * i - 1, 2 * i
        edges.update({(0, a), (0, b), (a, b)})
    return Graph(n, frozenset(edges))


def triangular_chain(k: int) -> Graph:
    n = _order("triangular_chain", k, 1, 2, 1)
    edges: set[Edge] = set()
    for i in range(1, k + 1):
        c_prev, c_cur, t = i - 1, i, k + i
        edges.update({(c_prev, c_cur), (c_prev, t), (c_cur, t)})
    labels = tuple(f"c{i}" for i in range(k + 1)) + tuple(f"t{i}" for i in range(1, k + 1))
    return Graph(n, frozenset(edges), labels)


def _square_chain(
    builder: str, k: int, square: Callable[[int, int, int, int], tuple[int, ...]]
) -> Graph:
    """k squares on 3k+1 vertices: square i is the vertex cycle square(y_i, x_i, z_i, y_(i+1))."""
    n = _order(builder, k, 1, 3, 1)
    edges: set[Edge] = set()
    for i in range(1, k + 1):
        cyc = square(i - 1, k + i, 2 * k + i, i)
        edges.update(zip(cyc, cyc[1:] + cyc[:1]))
    runs = (("y", k + 1), ("x", k), ("z", k))
    labels = tuple(f"{s}{i}" for s, last in runs for i in range(1, last + 1))
    return Graph(n, frozenset(edges), labels)


def ortho_square_chain(k: int) -> Graph:
    return _square_chain("ortho_square_chain", k, lambda y, x, z, y_next: (y, x, z, y_next))


def para_square_chain(k: int) -> Graph:
    return _square_chain("para_square_chain", k, lambda y, x, z, y_next: (y, x, y_next, z))


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
