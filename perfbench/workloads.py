"""The benchmark's workloads: each runs acceptance sweeps through the public
`verify.suite_*` entry points and knows what a correct, full-size report of
those sweeps looks like.

`check` is the correctness gate.  Every `Check` of every returned
`SuiteReport` must pass, the checks must be exactly the expected ones, and
the item counts a report states must equal the counts computed here from the
sweep parameters, so that a sweep that shrinks fails instead of looking fast.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

# Criterion 2 as `postlab verify dichotomy-consistency --quick` runs it.
DICHOTOMY_STEP = 7
INSTANCES_PER_SET = 20
DICHOTOMY_SETS = len(range(0, 1 << 16, DICHOTOMY_STEP))

# Criterion 7 with its acceptance parameters.
REDUCTION_INSTANCES = 500
AUX_INSTANCES = min(REDUCTION_INSTANCES, 120)
BIP_MATRICES = 1 << 16
RUN_OP_CHECKS = ("eliminate-equality", "cq-rewrite", "pol-reduce", "l2-to-l3", "negate-relations")

# Criteria 4, 5, 6 and 8 through suite_constructions and suite_quine.
BP_COUNT = 200
CHECKPOINT_CIRCUITS = BP_COUNT * 3 * 2  # depths 1-3, parity and reach
CALIBRATION_CIRCUITS = 4
THRESHOLD_CIRCUITS = 2 * sum(n + 2 for n in range(1, 9))
INDUCED_CIRCUITS = 2
PADDED_CIRCUITS = 4
EMITTER_MASKS = 1000
EMITTER_MODES = {
    "hornt-n2": "exhaustive 2^18",
    "ahornt-n2": "exhaustive 2^18",
    "twosat-n2": "exhaustive 2^12",
    "or-fragment-n2": "exhaustive 2^16",
    "nand-fragment-n2": "exhaustive 2^16",
    "hornt-n3": f"{EMITTER_MASKS} random masks",
    "twosat-n3": f"{EMITTER_MASKS} random masks",
    "or-fragment-n3": f"{EMITTER_MASKS} random masks",
}
MONOTONE_4VAR = 168
PADDING_CHECKS = {
    f"padding/{prop}-N{n}-{kind}": "exhaustive over 2^15 inputs" if kind == "monotone-chain" else ""
    for prop in ("edge-existence", "oddfactor4")
    for n, kinds in ((6, ("embedding", "monotone-chain", "isomorphism")), (7, ("embedding", "isomorphism")))
    for kind in kinds
}


@dataclass(frozen=True)
class Workload:
    name: str
    run: Callable  # (verify module, seed) -> list[SuiteReport]
    expected: dict[str, dict[str, str | None]]  # suite -> check name -> detail or None
    items: int
    item_unit: str


def _dichotomy(verify, seed):
    return [verify.suite_dichotomy(instances_per_set=INSTANCES_PER_SET, seed=seed, quick=True)]


def _reductions(verify, seed):
    return [verify.suite_reductions(seed=seed, instances=REDUCTION_INSTANCES)]


def _constructions(verify, seed):
    return [verify.suite_constructions(seed=seed), verify.suite_quine()]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dichotomy",
            _dichotomy,
            {
                "dichotomy-consistency": {
                    "catalog": None,
                    "all-binary-sets-size-easy": f"{DICHOTOMY_SETS} relation sets",
                    "designated-solver-exists": "",
                    "solver-matches-oracle": f"{INSTANCES_PER_SET} instances per set",
                }
            },
            DICHOTOMY_SETS * INSTANCES_PER_SET,
            "instances",
        ),
        Workload(
            "reductions",
            _reductions,
            {
                "reductions": {
                    **{name: f"{REDUCTION_INSTANCES} instances" for name in RUN_OP_CHECKS},
                    "cq-rewrite-aux-vars": "",
                    "bip-oddfactor-duality": "all 2^16 matrices",
                }
            },
            len(RUN_OP_CHECKS) * REDUCTION_INSTANCES + AUX_INSTANCES + BIP_MATRICES,
            "instances+matrices",
        ),
        Workload(
            "constructions",
            _constructions,
            {
                "constructions": {
                    "checkpoint/oracle-equality": "",
                    "checkpoint/depth-exactly-2d": "",
                    "checkpoint/size-shrinks-with-depth": None,
                    "thresholds/weight-oracle": "",
                    "induced-subgraph/extraction-oracle": "",
                    **PADDING_CHECKS,
                    **{f"csp-emitters/{name}": mode for name, mode in EMITTER_MODES.items()},
                },
                "quine": {
                    "monotone-4var-count": f"found {MONOTONE_4VAR}",
                    "quine-strip": "",
                    "dt-pipeline": "",
                    "majority-minterms": "maj3=3 maj5=10",
                    "non-monotone-rejected": None,
                },
            },
            CHECKPOINT_CIRCUITS
            + CALIBRATION_CIRCUITS
            + THRESHOLD_CIRCUITS
            + INDUCED_CIRCUITS
            + PADDED_CIRCUITS
            + len(EMITTER_MODES)
            + MONOTONE_4VAR,
            "circuits",
        ),
    )
}


def check(workload: Workload, reports) -> tuple[int, list[str]]:
    """(checks attempted, problems) for the reports of one sweep run.

    Attempted counts every expected or reported check.  Each problem is one
    of them: a failed check, a missing or unexpected check, or a stated item
    count that differs from the one the sweep parameters give."""
    problems: list[str] = []
    attempted = 0
    got = {r.suite: {c.name: c for c in r.checks} for r in reports}
    for suite in sorted(set(got) | set(workload.expected)):
        checks = got.get(suite, {})
        expected = workload.expected.get(suite, {})
        attempted += len(set(checks) | set(expected))
        for name in sorted(set(checks) - set(expected)):
            problems.append(f"{suite}/{name}: unexpected check")
        for name, detail in expected.items():
            c = checks.get(name)
            if c is None:
                problems.append(f"{suite}/{name}: missing")
            elif not c.passed:
                problems.append(f"{suite}/{name}: FAIL {c.detail}")
            elif detail is not None and c.detail != detail:
                problems.append(f"{suite}/{name}: reported {c.detail!r}, expected {detail!r}")
    return attempted, problems
