"""af_of_matching against scipy's mixed-integer solver, per perfect matching.

Both numbers of a perfect matching M are minimum hitting sets over the
other perfect matchings M', stated here as 0-1 programs that share no
code with the package's search: af(G, M) meets every M' - M with edges
outside M, and f(G, M) meets every M - M' with edges of M.
"""

import random

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from antiforce import af_of_matching, complete, cycle, enumerate_perfect_matchings, path, power
from conftest import random_connected_graph


def milp_min_cover(rows: list[int], width: int) -> int:
    """The fewest of ``width`` 0-1 variables that meet every row's bits."""
    if not rows:
        return 0
    a = np.array([[row >> i & 1 for i in range(width)] for row in rows])
    res = milp(
        np.ones(width),
        constraints=LinearConstraint(a, lb=1),
        integrality=np.ones(width),
        bounds=Bounds(0, 1),
    )
    assert res.status == 0, res.message
    return round(res.fun)


def test_af_of_matching_agrees_with_milp():
    rng = random.Random(170915)
    graphs = [power(cycle(10), 3), power(path(10), 3), complete(8)]
    graphs += [power(cycle(12), 3), power(cycle(12), 4), power(path(12), 3)]
    graphs += [random_connected_graph(rng, rng.choice((4, 6, 8, 10, 12))) for _ in range(40)]
    checked = 0
    for g in graphs:
        pms = enumerate_perfect_matchings(g)
        width = len(g.sorted_edges)
        for m in rng.sample(pms, min(2, len(pms))):
            analysis = af_of_matching(g, m)
            others = [b for b in pms if b != m]
            assert analysis.af_of_m == milp_min_cover([b & ~m for b in others], width)
            assert analysis.f_of_m == milp_min_cover([m & ~b for b in others], width)
            checked += len(others) > 0
    assert checked > 40
