"""Acceptance criteria: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see per-criterion lines.
The stated wall-clock budgets are asserted alongside correctness.
"""

import os
import time

import pytest

from postlab import clone_lattice
from postlab.clone_lattice import _missing, classify, validate_catalog
from postlab.csp import ahornt_set, hornt_set, xor3_set
from postlab.boolfun import RelationSet, nand_relation, or_relation
from postlab.verify import (
    suite_dichotomy,
    suite_oddfactor,
    suite_quine,
    suite_reductions,
    verify_checkpoint,
    verify_emitters,
    verify_padding,
)


@pytest.fixture(scope="module", autouse=True)
def warm_catalog():
    # catalog validation is process-wide setup; criterion 9 times it afresh
    clone_lattice.ensure_catalog_valid()
    yield


def report(num: int, label: str, ok: bool, elapsed: float, budget: float, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num} [{status}] {label}: {elapsed:.1f}s (budget {budget:.0f}s) {detail}")
    assert ok, f"criterion {num} failed: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded its {budget:.0f}s budget"


def test_criterion_1_classification_goldens():
    t0 = time.perf_counter()
    cases = [
        (xor3_set(), "HARD", "HARD", False),
        (hornt_set(), "EASY", "HARD", False),
        (ahornt_set(), "EASY", "HARD", False),
        (RelationSet((or_relation(2),), "or2"), "EASY", "EASY", True),
        (RelationSet((nand_relation(2),), "nand2"), "EASY", "EASY", True),
    ]
    problems = []
    for sset, size, depth, trivial in cases:
        v = classify(sset)
        if (v.size_side, v.depth_side, v.trivial) != (size, depth, trivial):
            problems.append(f"{sset.name}: got {v.size_side}/{v.depth_side}/{v.trivial}")
    report(1, "classification goldens", not problems, time.perf_counter() - t0, 1.0, "; ".join(problems))


def test_criterion_2_dichotomy_consistency_sweep():
    t0 = time.perf_counter()
    rep = suite_dichotomy(instances_per_set=20, seed=0)
    bad = [c.name + ": " + c.detail for c in rep.checks if not c.passed]
    report(
        2,
        "all 2^16 binary relation sets size-EASY with matching solvers",
        rep.ok,
        time.perf_counter() - t0,
        300.0,
        "; ".join(bad),
    )


def test_criterion_3_oddfactor_claim():
    t0 = time.perf_counter()
    jobs = min(4, os.cpu_count() or 1)
    rep = suite_oddfactor(max_vertices=7, jobs=jobs)
    bad = [c.name + ": " + c.detail for c in rep.checks if not c.passed]
    report(
        3,
        "odd-factor claim on all graphs up to 7 vertices",
        rep.ok,
        time.perf_counter() - t0,
        600.0,
        "; ".join(bad),
    )


def test_criterion_4_checkpoint_construction():
    t0 = time.perf_counter()
    rep = verify_checkpoint(seed=0, bp_count=200)
    bad = [c.name + ": " + c.detail for c in rep.checks if not c.passed]
    report(
        4,
        "checkpoint circuits equal path oracles at depth exactly 2d",
        rep.ok,
        time.perf_counter() - t0,
        120.0,
        "; ".join(bad),
    )


def test_criterion_5_padding():
    t0 = time.perf_counter()
    rep = verify_padding(seed=0)
    bad = [c.name + ": " + c.detail for c in rep.checks if not c.passed]
    report(
        5,
        "graph-property padding: embedding, monotonicity, isomorphism",
        rep.ok,
        time.perf_counter() - t0,
        300.0,
        "; ".join(bad),
    )


def test_criterion_6_quine_dt_pipeline():
    t0 = time.perf_counter()
    rep = suite_quine()
    bad = [c.name + ": " + c.detail for c in rep.checks if not c.passed]
    report(
        6,
        "Quine stripping and decision-tree pipeline over all 168 monotone 4-var functions",
        rep.ok,
        time.perf_counter() - t0,
        60.0,
        "; ".join(bad),
    )


def test_criterion_7_reductions():
    t0 = time.perf_counter()
    rep = suite_reductions(seed=0, instances=500)
    bad = [c.name + ": " + c.detail for c in rep.checks if not c.passed]
    report(
        7,
        "reductions preserve CSP-SAT; bipartite odd-factor duality on all 2^16 matrices",
        rep.ok,
        time.perf_counter() - t0,
        600.0,
        "; ".join(bad),
    )


def test_criterion_8_monotone_emitters():
    t0 = time.perf_counter()
    rep = verify_emitters(seed=0, random_masks=1000)
    bad = [c.name + ": " + c.detail for c in rep.checks if not c.passed]
    report(
        8,
        "monotone CSP circuits NOT/XOR-free and equal to brute force",
        rep.ok,
        time.perf_counter() - t0,
        300.0,
        "; ".join(bad),
    )


def test_criterion_9_catalog_validation():
    _missing.cache_clear()
    t0 = time.perf_counter()
    rep = validate_catalog()
    recorded = {(c.sub, c.sup) for c in rep.checks}
    required = {("V2", "S00"), ("E2", "S10"), ("L2", "L3"), ("N2", "L3")}
    required |= {("I2", name) for name in clone_lattice.CATALOG if name != "I2"}
    missing = required - recorded
    ok = rep.ok and not missing
    detail = "; ".join(
        [f"{c.sub}<={c.sup}" for c in rep.failures()] + [f"missing {m}" for m in missing]
    )
    report(9, "clone catalog inclusion checks by closure at arity 3", ok, time.perf_counter() - t0, 10.0, detail)
