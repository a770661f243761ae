"""Budget configuration and environment overrides."""

import pytest

from postlab.config import Budgets, _from_env, budgets
from postlab.errors import BudgetConfigError


def test_defaults():
    b = Budgets()
    assert b.a_max == 4
    assert b.brute_force_vars == 22


def test_env_override(monkeypatch):
    monkeypatch.setenv("POSTLAB_BUDGET", "brute_force_vars=18, oracle_edges=20")
    b = _from_env(Budgets())
    assert b.brute_force_vars == 18 and b.oracle_edges == 20
    assert b.a_max == 4


def test_env_rejects_unknown_field(monkeypatch):
    monkeypatch.setenv("POSTLAB_BUDGET", "nope=3")
    with pytest.raises(ValueError):
        _from_env(Budgets())


def test_budgets_passthrough(monkeypatch):
    monkeypatch.delenv("POSTLAB_BUDGET", raising=False)
    assert budgets().a_max == 4


@pytest.mark.parametrize("raw,field", [("bogus=1", "'bogus'"), ("cq_states=x", "'cq_states'")])
def test_malformed_env_raises_on_use_not_import(monkeypatch, raw, field):
    monkeypatch.setenv("POSTLAB_BUDGET", raw)
    with pytest.raises(BudgetConfigError, match=field):
        budgets()
    monkeypatch.setenv("POSTLAB_BUDGET", "cq_states=5")
    assert budgets().cq_states == 5
