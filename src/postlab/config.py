"""Enumeration budgets, overridable through the POSTLAB_BUDGET environment variable.

POSTLAB_BUDGET holds comma-separated ``field=value`` pairs, e.g.
``POSTLAB_BUDGET="brute_force_vars=18,oracle_edges=20"``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace

from .errors import BudgetConfigError


@dataclass(frozen=True)
class Budgets:
    a_max: int = 4                  # max function arity in enumeration ops
    preserves_combos: int = 1 << 22  # |R|**arity tuple choices per preservation check
    closure_steps: int = 1 << 24     # composition attempts in clone closure
    brute_force_vars: int = 22       # csp_sat_value enumerates 2**n assignments
    oracle_edges: int = 24           # odd-factor subset oracle and bip-oddfactor reduction: edge and vertex limit
    flat_threshold_terms: int = 1 << 18  # term limit of every flat counter: UNBOUNDED threshold, extraction and padding
    cq_aux_vars: int = 2             # existential variables in conjunctive-query search
    cq_max_atoms: int = 4            # atoms per conjunctive query
    cq_states: int = 200_000         # CQ intersections tried, a pass over every atom per state, before UNKNOWN


def _from_env(base: Budgets) -> Budgets:
    raw = os.environ.get("POSTLAB_BUDGET", "").strip()
    if not raw:
        return base
    known = {f.name for f in fields(Budgets)}
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
    return replace(base, **overrides)


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
