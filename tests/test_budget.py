import pytest

from antiforce import Budget, BudgetExceededError
from antiforce.budget import default_budget, parse_budget


def test_node_cap_raises():
    b = Budget(max_nodes=5, max_seconds=60.0)
    for _ in range(5):
        b.tick()
    with pytest.raises(BudgetExceededError) as exc:
        b.tick()
    assert exc.value.nodes_used == 6


def test_time_cap_raises():
    b = Budget(max_nodes=10**9, max_seconds=0.0001)
    with pytest.raises(BudgetExceededError):
        # Time is only polled every 256 ticks.
        for _ in range(10**6):
            b.tick()


def test_start_resets():
    b = Budget(max_nodes=3, max_seconds=60.0)
    for _ in range(3):
        b.tick()
    b.start()
    for _ in range(3):
        b.tick()  # does not raise after reset
    assert b.nodes == 3


def test_invalid_caps():
    with pytest.raises(ValueError):
        Budget(max_nodes=0)
    with pytest.raises(ValueError):
        Budget(max_seconds=0)


def test_parse_budget_forms():
    b = parse_budget("1000")
    assert b.max_nodes == 1000 and b.max_seconds == 10.0
    b = parse_budget("500:2.5")
    assert b.max_nodes == 500 and b.max_seconds == 2.5


@pytest.mark.parametrize("text", ["", ":", "a", "1:2:3", "5:x", "100:nan"])
def test_parse_budget_rejects(text):
    with pytest.raises(ValueError):
        parse_budget(text)


def test_default_budget_env_override(monkeypatch):
    monkeypatch.setenv("ANTIFORCE_BUDGET", "1234:3.5")
    b = default_budget()
    assert b.max_nodes == 1234 and b.max_seconds == 3.5
    monkeypatch.delenv("ANTIFORCE_BUDGET")
    b = default_budget()
    assert b.max_nodes == 50_000_000 and b.max_seconds == 10.0


def test_exception_carries_bounds():
    exc = BudgetExceededError("stop", lower=3, upper=7, nodes_used=42)
    assert exc.lower == 3 and exc.upper == 7 and exc.nodes_used == 42
