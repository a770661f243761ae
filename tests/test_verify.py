"""A wrong circuit makes the bit-parallel checks of `verify` report the same
witness as a per-mask loop over `evaluate_ref` does, and a planted fault gives
FAIL lines instead of ending the run."""

import hashlib
import itertools
import random

import pytest

from postlab import boolfun, cli, clone_lattice, construct, csp, graphlab, reductions, verify
from postlab.circuit import AND, INPUT, OR, Circuit, evaluate_ref
from postlab.csp import CspInstance, twosat_set, violation_masks
from postlab.errors import BudgetExceededError
from postlab.graphlab import Graph


def _with_output(c: Circuit, kind: str, a: int, b: int) -> Circuit:
    """c with its output replaced by kind(output, x_a AND x_b): still monotone."""
    k = len(c.gates)
    gates = c.gates + ((INPUT, (a,)), (INPUT, (b,)), (AND, (k, k + 1)), (kind, (c.outputs[0], k + 2)))
    return Circuit(c.n, gates, (k + 3,), c.fanin_mode)


def _first_bad_mask(circuit, viol, masks):
    for w in masks:
        if (evaluate_ref(circuit, w) & 1) != (not any(w & v == 0 for v in viol)):
            return f"mask={w:#x}"
    return ""


def test_emitter_witness_matches_the_per_mask_loop(monkeypatch):
    real = construct.emit_monotone_csp_circuit
    built = []

    def broken(sset, n):
        c = real(sset, n)
        built.append(_with_output(c, OR, c.n // 2, c.n - 1))
        return built[-1]

    monkeypatch.setattr(construct, "emit_monotone_csp_circuit", broken)
    configs = (("twosat-n2", twosat_set, 2), ("twosat-n3", twosat_set, 3))
    monkeypatch.setattr(verify, "_EMITTER_CONFIGS", configs)
    seed, count = 5, 1000
    report = verify.verify_emitters(seed, count)

    expected = []
    for (_, set_fn, n), circuit in zip(configs, built):
        size = circuit.n
        viol = violation_masks(CspInstance(set_fn(), n))
        if size <= 18:
            masks = range(1 << size)
        else:
            rng = random.Random(seed)
            masks = [rng.getrandbits(size) & rng.getrandbits(size) & rng.getrandbits(size)
                     for _ in range(count)]
        expected.append(_first_bad_mask(circuit, viol, masks))
    assert [c.detail for c in report.checks] == expected
    assert all(expected) and not any(c.passed for c in report.checks)


def test_padding_witness_matches_the_per_permutation_loop(monkeypatch):
    real = construct.padded_graph_property
    built = []

    def broken(prop, big_n):
        padded, embedding = real(prop, big_n)
        c = _with_output(padded.circuit, AND, 0, padded.circuit.n - 1)
        built.append((big_n, c))
        return construct.GraphPropertyCircuit(big_n, c, padded.name), embedding

    monkeypatch.setattr(construct, "padded_graph_property", broken)
    seed = 3
    report = verify.verify_padding(seed)

    # the per-permutation loop: one rng stream through all four checks,
    # each check stopping at its first bad permutation
    rng = random.Random(seed)
    expected = []
    for big_n, c in built:
        bad = ""
        for _ in range(50):
            gmask = rng.getrandbits(c.n)
            g = Graph.from_edge_mask(big_n, gmask)
            want = evaluate_ref(c, gmask)
            for _ in range(50):
                perm = list(range(big_n))
                rng.shuffle(perm)
                if evaluate_ref(c, g.permuted(perm).mask) != want:
                    bad = f"mask={gmask:#x}"
                    break
            if bad:
                break
        expected.append(bad)
    got = [c.detail for c in report.checks if c.name.endswith("-isomorphism")]
    assert got == expected
    assert len(set(expected)) > 1 and all(expected)


def _accepts(bp, x, mode):
    """The checkpoint oracle on one input, by walking every start-accept path."""
    def walk(t, u):
        if t == bp.length:
            return int(u == bp.accept)
        total = 0
        for s, v, guard in bp.edges[t]:
            if s == u and (guard[1] == 1 if guard[0] == "const" else ((x >> guard[1]) & 1) == guard[2]):
                total += walk(t + 1, v)
        return total

    paths = walk(0, bp.start)
    return paths & 1 if mode == construct.PARITY else int(paths > 0)


def test_checkpoint_witness_matches_the_per_input_loop(monkeypatch):
    real = construct.checkpoint_circuit

    def broken(bp, d, mode=construct.PARITY):
        c = real(bp, d, mode)
        return _with_output(c, OR, 0, c.n - 1) if (d, mode) == (3, construct.REACH) else c

    monkeypatch.setattr(construct, "checkpoint_circuit", broken)
    seed, count = 4, 12
    report = verify.verify_checkpoint(seed, count)

    rng = random.Random(seed)
    expected = []
    for idx in range(count):
        bp = construct.random_layered_bp(rng, rng.randrange(1, 9))
        for d in (1, 2, 3):
            for mode in (construct.PARITY, construct.REACH):
                c = broken(bp, d, mode)
                for x in range(1 << bp.n):
                    if evaluate_ref(c, x) & 1 != _accepts(bp, x, mode):
                        expected.append(f"bp#{idx} d={d} {mode} x={x:#x}")
                        break
    detail = {c.name: c.detail for c in report.checks}["oracle-equality"]
    assert detail == "; ".join(expected[:3])
    assert len({e.split("x=")[1] for e in expected[:3]}) > 1  # the witness differs per program


def test_oddfactor_chunk_reads_the_budget_once(monkeypatch):
    reads = []
    real = verify.budgets
    monkeypatch.setattr(verify, "budgets", lambda: reads.append(1) or real())
    assert verify._oddfactor_chunk((4, 0, 64)) == (64, [])
    assert len(reads) == 1
    # the chunk still honours POSTLAB_BUDGET, read at its start
    monkeypatch.setenv("POSTLAB_BUDGET", "oracle_edges=2")
    with pytest.raises(BudgetExceededError):
        verify._oddfactor_chunk((4, 0, 64))


def test_a_check_that_raises_fails_every_name_of_its_group():
    report = verify.SuiteReport("s")

    def broken():
        raise ValueError("bad input 7")

    def over_budget():
        raise BudgetExceededError("over")

    verify._timed(report, ("a", "b"), broken)
    verify._timed(report, "c", lambda: (True, "fine"))
    assert [(c.name, c.passed, c.detail) for c in report.checks] == [
        ("a", False, "raised ValueError: bad input 7"),
        ("b", False, "raised ValueError: bad input 7"),
        ("c", True, "fine"),
    ]
    assert report.checks[0].elapsed > 0 and report.checks[1].elapsed == 0  # one time per group
    with pytest.raises(BudgetExceededError):
        verify._timed(report, "d", over_budget)
    assert len(report.checks) == 3


def test_the_duality_sweep_meets_every_matrix(monkeypatch):
    calls = {"dual": 0, "parity": 0}
    dual, parity = reductions.BipOddFactorReduction.dual_of_xorsat, graphlab.bip_odd_factor

    def counted_dual(self, mask):
        calls["dual"] += 1
        return dual(self, mask)

    def counted_parity(graph):
        calls["parity"] += 1
        return parity(graph)

    monkeypatch.setattr(reductions.BipOddFactorReduction, "dual_of_xorsat", counted_dual)
    monkeypatch.setattr(graphlab, "bip_odd_factor", counted_parity)
    check = verify.suite_reductions(quick=True).checks[-1]
    assert (check.name, check.passed, check.detail) == (
        "bip-oddfactor-duality", True, "all 2^9 matrices"
    )
    assert calls == {"dual": 512, "parity": 31}  # all 2^9 matrices, and every 17th


# sha256 over every csp.random_instance draw of suite_reductions ("name n bits"
# per line, in draw order) and over its checks' (name, passed, detail): a
# change to the trial loop that draws other instances, or reports otherwise,
# shows here even while every check still passes
REDUCTIONS_SHA256 = {
    "quick": (
        "84a78c9f35b1c4e26565dc72993d2a450f97bd9f6dd2945d1a0abe7173a185b9",
        "fb0239fe80c90e2e03e792d9caacec60a3ef1fb90dc9b3e8d8bf44cddf53f437",
    ),
    "full": (
        "1ea82d1a4e404e5e1e2a5e118d97e6f7513cdaff73a6dbbf7d723c72149a327d",
        "7ec0dd5be9be866c40ac73eb27e52cd6ac7300a03db1dca1ab08627834a6d639",
    ),
}


@pytest.mark.parametrize("run", REDUCTIONS_SHA256)
def test_the_reductions_suite_draws_and_reports_as_pinned(monkeypatch, run):
    draws = []
    real = csp.random_instance

    def recorded(sset, n, density, rng):
        inst = real(sset, n, density, rng)
        draws.append(f"{sset.name} {n} {inst.bits:#x}\n")
        return inst

    monkeypatch.setattr(csp, "random_instance", recorded)
    kwargs = {"quick": True} if run == "quick" else {"instances": 500}
    checks = verify.suite_reductions(seed=0, **kwargs).checks
    reported = "".join(f"{c.name} {c.passed} {c.detail}\n" for c in checks)
    got = tuple(hashlib.sha256(text.encode()).hexdigest() for text in ("".join(draws), reported))
    assert got == REDUCTIONS_SHA256[run]


def _without_last_edge(verdicts, v, edges):
    """The verdicts of every subset of edges[:-1], half as many as asked for."""
    return verdicts(v, edges[:-1])


def _last_edge_ignored(verdicts, v, edges):
    """As many verdicts as asked for, each blind to the last edge."""
    return itertools.chain(verdicts(v, edges[:-1]), verdicts(v, edges[:-1]))


def _last_row_dropped(gf2_reduce, pivots, rows):
    """Elimination blind to the last row it is given."""
    return gf2_reduce(pivots, list(rows)[:-1])


# what each fault replaces: the truth side's verdicts, or the dual side's
# elimination, from which the verdict words are built
PLANTED_IN = {_last_row_dropped: (reductions, "gf2_reduce")}


def _unit_edge_refutes(refutes, edges):
    """The D2 row's test, also true of a unit's doubled edge (~x -> x twice)."""
    return refutes(edges) or (len(edges) == 2 and edges[0] == edges[1])


def _negative_unit_refutes(refutes, rules):
    """The E2 row's test, also true of a negative unit: no head, one body variable."""
    return refutes(rules) or any(not head and not body & (body - 1) for body, head in rules)


def _last_variable_unchecked(inst):
    """solve_2sat without the last variable's contradiction test."""
    n = inst.n
    table = csp.fragment_table(inst.sset, n, "D2")
    if inst.bits & table.refuting:
        return False
    adj = [0] * (2 * n)
    for j in range(inst.size):
        edges = table[j] if (inst.bits >> j) & 1 else ()
        if edges is None:
            return False
        for source, target in edges:
            adj[source] |= target
    return not any(
        (boolfun.reach(adj, 1 << t) >> t + 1) & 1 and (boolfun.reach(adj, 1 << t + 1) >> t) & 1
        for t in range(0, 2 * n - 2, 2)
    )


# Dichotomy faults, each planted in the clone's `_FRAGMENT_VIEWS` row (its
# test of a self-refuting entry, which builds the tables' `refuting` masks) or
# in its `TRACTABLE` row (the kernel that decides behind the mask).
DICHOTOMY_FAULTS = [
    (_unit_edge_refutes, "D2", "subset=0x46 "),
    (_negative_unit_refutes, "E2", "subset=0x7 "),
    (_last_variable_unchecked, "D2", "subset=0xd2 "),
]


@pytest.fixture
def cold_tables():
    """Per-bit tables built from this test's views only, and none kept after it."""
    csp.fragment_table.cache_clear()
    csp._relation_block.cache_clear()
    yield
    csp.fragment_table.cache_clear()
    csp._relation_block.cache_clear()


@pytest.mark.parametrize("fault, clone, detail", DICHOTOMY_FAULTS)
def test_a_mask_or_kernel_fault_fails_the_solver_check(monkeypatch, cold_tables, fault, clone, detail):
    if fault is _last_variable_unchecked:
        name, _, emitter = csp.TRACTABLE[clone]
        monkeypatch.setitem(csp.TRACTABLE, clone, (name, fault, emitter))
    else:
        view, refutes, wording = csp._FRAGMENT_VIEWS[clone]
        monkeypatch.setitem(csp._FRAGMENT_VIEWS, clone, (view, lambda entry: fault(refutes, entry), wording))
    failed = [c for c in verify.suite_dichotomy(quick=True).checks if not c.passed]
    assert [c.name for c in failed] == ["solver-matches-oracle"]
    assert failed[0].detail.startswith(detail)


def _also_claims_i1(pol_bits, rel):
    """Per-relation Pol bits that put I1 inside every Pol."""
    return pol_bits(rel) | clone_lattice.CLONE_BITS["I1"]


def test_a_pol_bits_fault_fails_the_solver_check(monkeypatch, cold_tables):
    """Fragment membership has one home, the per-relation Pol bits, and the
    solver check can fail through it: every set then looks trivial."""
    real = clone_lattice._pol_bits
    monkeypatch.setattr(clone_lattice, "_pol_bits", lambda rel: _also_claims_i1(real, rel))
    clone_lattice._pol_mask.cache_clear()
    try:
        failed = [c for c in verify.suite_dichotomy(quick=True).checks if not c.passed]
    finally:
        clone_lattice._pol_mask.cache_clear()
    assert [c.name for c in failed] == ["solver-matches-oracle"]
    assert failed[0].detail.startswith("subset=0xe solver=trivial(I1) ")


@pytest.mark.parametrize("fault, detail", [
    (_without_last_edge, "raised ValueError: zip() argument 2 is shorter than argument 1"),
    (_last_edge_ignored, "matrix 0x10a"),  # the first matrix the blind verdicts get wrong
    (_last_row_dropped, "matrix 0xa"),  # the first matrix the blind words get wrong
])
def test_a_verdict_fault_fails_the_duality_check(monkeypatch, fault, detail):
    module, name = PLANTED_IN.get(fault, (graphlab, "odd_factor_verdicts"))
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: fault(real, *args))
    failed = [c for c in verify.suite_reductions(quick=True).checks if not c.passed]
    assert [c.name for c in failed] == ["bip-oddfactor-duality"]
    assert failed[0].detail.startswith(detail)


def _reach_two_levels(adj, frontier):
    """boolfun.reach stopped after two breadth-first levels."""
    seen = frontier
    for _ in range(2):
        step = 0
        while frontier:
            low = frontier & -frontier
            step |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = step & ~seen
        seen |= frontier
    return seen


REACH_FAULT_FAILS = {
    "oddfactor/claim-v4",
    "oddfactor/claim-v5",
    "oddfactor/claim-v6",
    "oddfactor/isomorphism-invariance",
    *(f"constructions/padding/oddfactor4-{check}" for check in (
        "N6-embedding", "N6-monotone-chain", "N6-isomorphism", "N7-embedding", "N7-isomorphism"
    )),
    "reductions/eliminate-equality",
    "reductions/pol-reduce",
    "reductions/bip-oddfactor-duality",
    "dichotomy-consistency/solver-matches-oracle",
}


def test_a_planted_reach_fault_fails_its_checks_and_every_check_reports(monkeypatch, capsys):
    for module in (boolfun, clone_lattice, csp, graphlab, reductions):
        monkeypatch.setattr(module, "reach", _reach_two_levels)
    checks = {f"{r.suite}/{c.name}": c for r in verify.run_suite("all", quick=True) for c in r.checks}
    assert len(checks) == 46
    assert {name for name, c in checks.items() if not c.passed} == REACH_FAULT_FAILS
    # the odd-factor-4 property cannot be built, and each check that needs it says why
    assert checks["constructions/padding/oddfactor4-N7-isomorphism"].detail.startswith(
        "raised MonotonePreconditionError: not monotone"
    )
    assert checks["constructions/padding/oddfactor4-N6-embedding"].detail.endswith(
        " [in circuit.monotone_table_to_circuit]"
    )
    assert cli.main(["verify", "all", "--quick"]) == 1
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert len(lines) == 47 and lines[-1].startswith("33/46 checks passed")
    assert sum(line.startswith("[FAIL]") for line in lines) == len(REACH_FAULT_FAILS)
    assert err == "" and "Traceback" not in out
