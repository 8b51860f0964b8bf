"""Search budgets shared by the exact solvers and the sweep harness."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

# The default allowance of one exact computation, as the CLI and sweeps
# grant it. A Budget built without caps has none.
DEFAULT_MAX_NODES = 50_000_000
DEFAULT_MAX_SECONDS = 10.0


class BudgetExceededError(Exception):
    """Raised when an exact search runs out of nodes or wall-clock time.

    Carries the best bounds established before the search stopped, so a
    caller can still report a partial result.
    """

    def __init__(
        self,
        message: str,
        *,
        lower: int | None = None,
        upper: int | None = None,
        nodes_used: int = 0,
    ) -> None:
        super().__init__(message)
        self.lower = lower
        self.upper = upper
        self.nodes_used = nodes_used


@dataclass
class Budget:
    """Node-count plus wall-clock cap for one exact computation.

    ``max_nodes`` counts search-tree nodes, of whichever searches the
    solver runs: perfect-matching enumeration, alternating cycles, the
    hitting set, the subset search. ``max_seconds`` is a soft deadline
    checked alongside the node counter; the clock starts when the budget
    is made. Both caps default to ``math.inf``: a solver called without
    a budget charges a fresh uncapped one.
    """

    max_nodes: float = math.inf
    max_seconds: float = math.inf
    nodes: int = field(default=0, init=False)
    _deadline: float = field(default=0.0, init=False, compare=False)

    def __post_init__(self) -> None:
        if not (self.max_nodes > 0 and self.max_seconds > 0):  # rejects NaN too
            raise ValueError("budget caps must be positive")
        self._deadline = time.monotonic() + self.max_seconds

    def tick(self) -> None:
        """Charge one node; raise once either cap is exhausted."""
        self.nodes += 1
        if self.nodes > self.max_nodes:
            raise BudgetExceededError(
                f"node budget exhausted ({self.max_nodes})", nodes_used=self.nodes
            )
        # Time checks are comparatively expensive; amortize them.
        if self.nodes % 256 == 0 and time.monotonic() > self._deadline:
            raise BudgetExceededError(
                f"time budget exhausted ({self.max_seconds}s)", nodes_used=self.nodes
            )


def parse_budget(text: str) -> Budget:
    """Parse ``NODES`` or ``NODES:SECONDS`` into a Budget."""
    nodes, colon, seconds = text.partition(":")
    try:
        caps = int(nodes), float(seconds) if colon else DEFAULT_MAX_SECONDS
    except ValueError:
        raise ValueError("bad --budget, expected NODES[:SECONDS], an integer and a number") from None
    return Budget(*caps)

