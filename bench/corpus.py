"""Inputs of the three workloads, built through the package's public API.

Every package function is looked up on the ``antiforce`` module at call
time, so the boundary wrappers installed by ``spans.Tracer`` see these
calls too.
"""

from __future__ import annotations

import hashlib
import random

import antiforce

# Acceptance criterion 1: every family instance with n <= 12 and m <= 4,
# deduplicated by power graph (99 graphs).
CRITERION1_KS = (
    ("path", range(2, 13)),
    ("cycle", range(3, 13)),
    ("complete", range(2, 13)),
    ("friendship", range(1, 6)),
    ("tri-chain", range(1, 6)),
    ("ortho-chain", range(1, 4)),
    ("para-chain", range(1, 4)),
)
CRITERION1_MS = range(1, 5)

# Random graphs. Sparse class: random attachment tree plus a few edges;
# some of these have no perfect matching and take the convention path.
RANDOM_SPARSE = ((10, 12, 8), (12, 15, 8), (14, 17, 8))  # (n, edges, count)
# Moderate class: connected d-regular graphs. Their solve times spread
# far less than those of uniformly random graphs of the same density,
# so the workload's figures move little from seed to seed. The counts
# put the median solve inside the (12, 4) class and the tail percentile
# near the middle of the (12, 5) class; the slowest of these solves in
# under 1 s, a tenth of the budget.
RANDOM_REGULAR = ((10, 4, 24), (12, 4, 32), (14, 4, 16), (12, 5, 20))  # (n, d, count)


def graph_key(g) -> tuple:
    return (g.n, g.edges)


def graph_digest(g) -> str:
    """Seed-independent identity of a random graph, for pinned values."""
    return hashlib.sha256(antiforce.to_json(g).encode()).hexdigest()[:16]


def criterion1() -> list[tuple[str, str]]:
    """(name, JSON text) of the 99 criterion-1 instances, in spec order."""
    seen: dict[tuple, tuple[str, str]] = {}
    for family, ks in CRITERION1_KS:
        for k in ks:
            base = antiforce.build(family, k)
            for m in CRITERION1_MS:
                g = antiforce.power(base, m)
                seen.setdefault(
                    graph_key(g), (f"{family}({k})^{m}", antiforce.to_json(g))
                )
    return list(seen.values())


def load(named_json: list[tuple[str, str]]) -> list[tuple[str, object]]:
    return [(name, antiforce.from_json(text)) for name, text in named_json]


def _is_connected(n: int, edges: set) -> bool:
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in nbrs[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def _sparse(rng: random.Random, n: int, m: int) -> set:
    edges = {antiforce.edge(rng.randrange(v), v) for v in range(1, n)}
    pool = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    rng.shuffle(pool)
    edges.update(pool[: m - len(edges)])
    return edges


def _regular(rng: random.Random, n: int, d: int) -> set:
    """Connected d-regular graph: pair random stubs, restart when stuck."""
    while True:
        stubs = [v for v in range(n) for _ in range(d)]
        edges: set = set()
        while stubs:
            for _ in range(100):
                i, j = rng.sample(range(len(stubs)), 2)
                u, v = stubs[i], stubs[j]
                if u != v and antiforce.edge(u, v) not in edges:
                    break
            else:
                break
            edges.add(antiforce.edge(u, v))
            for idx in sorted((i, j), reverse=True):
                stubs.pop(idx)
        if not stubs and _is_connected(n, edges):
            return edges


def random_graphs(seed: int) -> list[tuple[str, str]]:
    """(name, JSON text) of the seeded random corpus."""
    rng = random.Random(seed)
    out = []
    for n, m, count in RANDOM_SPARSE:
        for i in range(count):
            g = antiforce.Graph(n, frozenset(_sparse(rng, n, m)))
            out.append((f"sparse(n={n},e={m})#{i}", antiforce.to_json(g)))
    for n, d, count in RANDOM_REGULAR:
        for i in range(count):
            g = antiforce.Graph(n, frozenset(_regular(rng, n, d)))
            out.append((f"regular(n={n},d={d})#{i}", antiforce.to_json(g)))
    # Mixed order: the solves that set the median and the tail percentile
    # are spread over the whole run, so a slow spell of the machine does
    # not fall on one class.
    rng.shuffle(out)
    return out


def sweep_names() -> dict[tuple, str]:
    """Names of the default sweep points, keyed by power graph."""
    names: dict[tuple, str] = {}
    for family in antiforce.harness.DEFAULT_RANGES:
        for k, m in antiforce.default_sweep_spec(family).points():
            g = antiforce.power(antiforce.build(family, k), m)
            names.setdefault(graph_key(g), f"{family}({k})^{m}")
    return names


def unswept_small(
    instances: list[tuple[str, str]], swept: dict[tuple, str]
) -> list[tuple[str, str]]:
    """Criterion-1 instances the default sweeps do not cross-check."""
    out = []
    for name, text in instances:
        g = antiforce.from_json(text)
        if g.n <= antiforce.harness.DEFAULT_CROSS_CHECK_N_LIMIT and graph_key(g) not in swept:
            out.append((name, text))
    return out
