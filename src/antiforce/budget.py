"""Search budgets shared by the exact solvers and the sweep harness."""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, field

# The default allowance of one exact computation, as the CLI and sweeps
# grant it. A Budget built without caps has none.
DEFAULT_MAX_NODES = 50_000_000
DEFAULT_MAX_SECONDS = 10.0


class BudgetExceededError(Exception):
    """Raised when an exact search runs out of nodes or wall-clock time.

    A solver sets the best bounds it established before the search
    stopped, so a caller can still report a partial result; a bound
    stays None when none is known.
    """

    lower: int | None = None
    upper: int | None = None


@dataclass
class Budget:
    """Node-count plus wall-clock cap for one exact computation.

    ``max_nodes`` counts search nodes, of whichever searches the solver
    runs: the perfect-matching walk (a node per state, and per matching
    a state's list gains), alternating cycles, the hitting set, the
    subset search. ``max_seconds`` is a soft deadline
    checked alongside the node counter; the clock starts when the budget
    is made. Both caps default to ``math.inf``: a solver called without
    a budget charges a fresh uncapped one.
    """

    max_nodes: float = math.inf
    max_seconds: float = math.inf
    nodes: int = field(default=0, init=False)
    _deadline: float = field(default=0.0, init=False, compare=False)
    # max_nodes as an int: the count passes both on the same tick.
    _node_cap: int = field(default=0, init=False, compare=False)
    # The count at which tick next looks past its one comparison: the next
    # multiple of 256, where the clock is read, or one past the node cap,
    # whichever comes first. Every tick below it can raise nothing.
    _check_at: int = field(default=0, init=False, compare=False)

    def __post_init__(self) -> None:
        if not (self.max_nodes > 0 and self.max_seconds > 0):  # rejects NaN too
            raise ValueError("budget caps must be positive")
        self._deadline = time.monotonic() + self.max_seconds
        self._node_cap = sys.maxsize if self.max_nodes == math.inf else int(self.max_nodes)
        self._check_at = min(256, self._node_cap + 1)

    def until_check(self) -> int:
        """The charge that reaches the next check, at least 1.

        A smaller one checks nothing; this one checks as ticks per node would.
        """
        return max(self._check_at - self.nodes, 1)

    def tick(self, nodes: int = 1) -> None:
        """Charge ``nodes`` nodes; raise once either cap is exhausted."""
        self.nodes += nodes
        if self.nodes < self._check_at:
            return
        if self.nodes > self._node_cap:
            raise BudgetExceededError(f"node budget exhausted ({self.max_nodes})")
        # Time checks are comparatively expensive; amortize them to one
        # each time the count crosses a multiple of 256. Below the cap,
        # reaching _check_at means it crossed one.
        self._check_at = min(self.nodes // 256 * 256 + 256, self._node_cap + 1)
        if time.monotonic() > self._deadline:
            raise BudgetExceededError(f"time budget exhausted ({self.max_seconds}s)")

