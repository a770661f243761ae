"""Enumeration budgets, overridable through the POSTLAB_BUDGET environment variable.

POSTLAB_BUDGET holds comma-separated ``field=value`` pairs, e.g.
``POSTLAB_BUDGET="brute_force_vars=18,oracle_edges=20"``.
"""

from __future__ import annotations

import os

from .errors import BudgetConfigError
from .record import Frozen


class Budgets(Frozen):
    """Enumeration limits; POSTLAB_BUDGET may set any field by name."""

    __slots__ = (
        "a_max", "preserves_combos", "closure_steps", "brute_force_vars", "oracle_edges",
        "flat_threshold_terms", "cq_aux_vars", "cq_max_atoms", "cq_states",
    )

    a_max: int                 # max function arity in enumeration ops
    preserves_combos: int      # |R|**arity tuple choices per preservation check
    closure_steps: int         # composition attempts in clone closure
    brute_force_vars: int      # csp_sat_value enumerates 2**n assignments
    oracle_edges: int          # odd-factor subset oracle and bip-oddfactor reduction: edge and vertex limit
    flat_threshold_terms: int  # term limit of every flat counter: UNBOUNDED threshold, extraction and padding
    cq_aux_vars: int           # existential variables in conjunctive-query search
    cq_max_atoms: int          # atoms per conjunctive query
    cq_states: int             # CQ intersections tried, a pass over every atom per state, before UNKNOWN

    def __init__(
        self,
        a_max=4,
        preserves_combos=1 << 22,
        closure_steps=1 << 24,
        brute_force_vars=22,
        oracle_edges=24,
        flat_threshold_terms=1 << 18,
        cq_aux_vars=2,
        cq_max_atoms=4,
        cq_states=200_000,
    ):
        values = (a_max, preserves_combos, closure_steps, brute_force_vars, oracle_edges,
                  flat_threshold_terms, cq_aux_vars, cq_max_atoms, cq_states)
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)


def _from_env(base: Budgets) -> Budgets:
    raw = os.environ.get("POSTLAB_BUDGET", "").strip()
    if not raw:
        return base
    known = Budgets.__slots__
    overrides = {}
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        key, _, value = part.partition("=")
        key = key.strip()
        if key not in known:
            raise BudgetConfigError(f"POSTLAB_BUDGET: unknown budget field {key!r}")
        try:
            overrides[key] = int(value)
        except ValueError:
            raise BudgetConfigError(
                f"POSTLAB_BUDGET: field {key!r} needs an integer, got {value.strip()!r}"
            ) from None
    return Budgets(**{name: overrides.get(name, getattr(base, name)) for name in known})


_env_default: tuple[str, Budgets] | None = None  # (POSTLAB_BUDGET, parsed)


def budgets() -> Budgets:
    """Return the effective budget set: the defaults with POSTLAB_BUDGET applied.

    The variable is parsed on first use and again whenever it changes, so a
    malformed value raises BudgetConfigError here, never at import.
    """
    global _env_default
    raw = os.environ.get("POSTLAB_BUDGET", "")
    if _env_default is None or _env_default[0] != raw:
        _env_default = (raw, _from_env(Budgets()))
    return _env_default[1]
