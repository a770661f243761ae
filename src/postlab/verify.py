"""Oracle-equivalence sweeps behind the `verify` CLI command and the
acceptance suite.  Every check returns a replayable witness on failure, and a
check that raises is a FAIL line naming the exception and where it was raised."""

from __future__ import annotations

import os
import random
import time
from functools import cache

from . import clone_lattice, construct, csp, graphlab, reductions
from .boolfun import (
    EQ2,
    IMP2,
    UNIT_FALSE,
    UNIT_TRUE,
    Relation,
    RelationSet,
    or_relation,
    parity_relation,
)
from .circuit import (
    BOUNDED2,
    UNBOUNDED,
    Dnf,
    build_decision_tree,
    count_minterms,
    evaluate,  # unread here; perfbench/test_tracer.py checks that the tracer rewraps it
    evaluate_many,
    input_pattern,
    measures,
    minterm_dnf,
    monotone_table_to_circuit,
    monotone_tables,
    monotone_violation,
    quine_strip,
    truth_tables,
    Builder,
)
from .config import budgets
from .csp import CspInstance, csp_sat_value, gf2_satisfiable, solve_xor, violation_masks
from .errors import BudgetExceededError, MonotonePreconditionError


class Check:
    __slots__ = ("name", "passed", "detail", "elapsed")
    name: str
    passed: bool
    detail: str
    elapsed: float

    def __init__(self, name, passed, detail="", elapsed=0.0):
        self.name, self.passed, self.detail, self.elapsed = name, passed, detail, elapsed


class SuiteReport:
    __slots__ = ("suite", "checks")
    suite: str
    checks: list[Check]

    def __init__(self, suite):
        self.suite, self.checks = suite, []

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            suffix = f" ({c.elapsed:.1f}s)" if c.elapsed else ""
            out.append(f"[{status}] {self.suite}/{c.name}{suffix}"
                       + (f": {c.detail}" if c.detail and not c.passed else ""))
        return out


def _raised_in(exc: Exception) -> str:
    """" [in layer.function]" for the call through which the check entered the
    innermost postlab module on exc's traceback, or "" if there is none."""
    where, module, tb = "", None, exc.__traceback__.tb_next  # skip _timed
    while tb:
        name = tb.tb_frame.f_globals.get("__name__", "")
        if name.startswith("postlab.") and name != module:
            where = f" [in {name.removeprefix('postlab.')}.{tb.tb_frame.f_code.co_name}]"
        module, tb = name, tb.tb_next
    return where


def _timed(report: SuiteReport, names: str | tuple[str, ...], fn) -> None:
    """Record one check, or the checks `names` that one sweep decides: fn()
    returns (passed, detail) for one name, or one such pair per name.  The
    elapsed time goes on the first name.  If fn raises, every name fails with
    the exception and _raised_in(exc) as its detail; only a budget ends the run."""
    names = (names,) if isinstance(names, str) else names
    t0 = time.perf_counter()
    try:
        results = fn() if len(names) > 1 else [fn()]
    except BudgetExceededError:
        raise
    except Exception as exc:
        results = [(False, f"raised {type(exc).__name__}: {exc}{_raised_in(exc)}")] * len(names)
    elapsed = time.perf_counter() - t0
    for i, (name, (passed, detail)) in enumerate(zip(names, results, strict=True)):
        report.checks.append(Check(name, passed, detail, 0.0 if i else elapsed))


# Odd-factor claim: component parity == subset oracle == Tseitin satisfiability.

def _oddfactor_chunk(args: tuple[int, int, int]) -> tuple[int, list[str]]:
    v, lo, hi = args
    budget = budgets()  # read POSTLAB_BUDGET once per chunk, not once per graph
    mismatches: list[str] = []
    checked = 0
    for mask in range(lo, hi):
        g = graphlab.Graph.from_edge_mask(v, mask)
        fast = graphlab.odd_factor_fast(g)
        oracle = graphlab.odd_factor_oracle(g, budget=budget)
        tseitin = gf2_satisfiable(graphlab.tseitin_system(g).rows)
        checked += 1
        if not (fast == oracle == tseitin):
            mismatches.append(
                f"v={v} mask={mask:#x} fast={fast} oracle={oracle} tseitin={tseitin}"
            )
            if len(mismatches) >= 5:
                break
    return checked, mismatches


def suite_oddfactor(max_vertices: int = 7, jobs: int = 1, quick: bool = False) -> SuiteReport:
    report = SuiteReport("oddfactor")
    if quick:
        max_vertices = min(max_vertices, 6)
    edges = max_vertices * (max_vertices - 1) // 2  # the complete graph, the sweep's last
    limit = budgets().oracle_edges
    if edges > limit:
        raise BudgetExceededError(
            f"max_vertices={max_vertices}: graphs of up to {edges} edges, above the oracle_edges budget {limit}"
        )
    jobs = min(jobs, os.cpu_count() or 1)  # the pool never outnumbers the CPUs
    for v in range(1, max_vertices + 1):
        def claim():
            total_masks = 1 << (v * (v - 1) // 2)
            if jobs > 1 and total_masks >= 1 << 16:
                step = total_masks // (jobs * 8)
                ranges = [
                    (v, lo, min(lo + step, total_masks))
                    for lo in range(0, total_masks, step)
                ]
                from multiprocessing import Pool  # loaded only for a pool

                with Pool(jobs) as pool:
                    results = pool.map(_oddfactor_chunk, ranges)
                checked = sum(r[0] for r in results)
                mismatches = [m for r in results for m in r[1]]
            else:
                checked, mismatches = _oddfactor_chunk((v, 0, total_masks))
            return not mismatches, "; ".join(mismatches[:3]) or f"{checked} graphs"

        _timed(report, f"claim-v{v}", claim)

    def iso():
        rng = random.Random(17)
        for _ in range(50):
            v = min(rng.randrange(2, 8), max_vertices)
            g = graphlab.Graph.from_edge_mask(v, rng.getrandbits(v * (v - 1) // 2))
            base = (graphlab.odd_factor_fast(g), graphlab.odd_factor_oracle(g))
            for _ in range(20):
                perm = list(range(v))
                rng.shuffle(perm)
                h = g.permuted(perm)
                got = (graphlab.odd_factor_fast(h), graphlab.odd_factor_oracle(h))
                if got != base:
                    return False, f"permutation changed verdict on v={v} {sorted(g.edges)}"
        return True, ""

    _timed(report, "isomorphism-invariance", iso)
    return report


# Constructions.

def verify_checkpoint(seed: int = 0, bp_count: int = 200) -> SuiteReport:
    report = SuiteReport("checkpoint")

    def sweep():
        rng = random.Random(seed)
        mismatches = []
        depth_bad = []
        for idx in range(bp_count):
            bp = construct.random_layered_bp(rng, rng.randrange(1, 9))
            oracles = {mode: construct.bp_truth_table(bp, mode) for mode in (construct.PARITY, construct.REACH)}
            for d in (1, 2, 3):
                for mode, oracle in oracles.items():
                    c = construct.checkpoint_circuit(bp, d, mode)
                    if measures(c).depth != 2 * d:
                        depth_bad.append(f"bp#{idx} d={d} {mode}: depth {measures(c).depth}")
                    diff = truth_tables(c)[0] ^ oracle
                    if diff:
                        mismatches.append(f"bp#{idx} d={d} {mode} x={(diff & -diff).bit_length() - 1:#x}")
        return (not mismatches, "; ".join(mismatches[:3])), (not depth_bad, "; ".join(depth_bad[:3]))

    _timed(report, ("oracle-equality", "depth-exactly-2d"), sweep)

    def shrink():
        # the base-level path enumeration must dominate before extra levels
        # pay off, hence the longer program for the d=2 vs d=3 comparison
        rng2 = random.Random(seed + 1)
        sizes = {}
        bp = _calibration_bp(rng2, length=8, width=3, n=4)
        for d in (1, 2):
            sizes[f"m8d{d}"] = measures(construct.checkpoint_circuit(bp, d)).size
        bp2 = _calibration_bp(rng2, length=64, width=2, n=4)
        for d in (2, 3):
            sizes[f"m64d{d}"] = measures(construct.checkpoint_circuit(bp2, d)).size
        ok = sizes["m8d2"] < sizes["m8d1"] and sizes["m64d3"] < sizes["m64d2"]
        return ok, f"sizes {sizes}"

    _timed(report, "size-shrinks-with-depth", shrink)
    return report


def _calibration_bp(rng: random.Random, length: int, width: int, n: int) -> construct.LayeredBP:
    widths = (1,) + (width,) * (length - 1) + (1,)
    edges = []
    for t in range(length):
        layer = []
        for u in range(widths[t]):
            for v in range(widths[t + 1]):
                layer.append((u, v, (construct.LIT_GUARD, rng.randrange(n), True)))
        edges.append(tuple(layer))
    return construct.LayeredBP(n, widths, tuple(edges), 0, 0)


def verify_thresholds() -> SuiteReport:
    report = SuiteReport("thresholds")

    def weights():
        bad = []
        for n in range(1, 9):
            for k in range(0, n + 2):
                for mode in (BOUNDED2, UNBOUNDED):
                    c = construct.threshold_circuit(k, n, mode)
                    if not measures(c).monotone:
                        bad.append(f"k={k} n={n} {mode}: not monotone")
                        continue
                    table = truth_tables(c)[0]
                    for x in range(1 << n):
                        if ((table >> x) & 1) != (bin(x).count("1") >= k):
                            bad.append(f"k={k} n={n} {mode} x={x:#x}")
                            break
        return not bad, "; ".join(bad[:3])

    _timed(report, "weight-oracle", weights)
    return report


def _oddfactor4_property() -> construct.GraphPropertyCircuit:
    table = 0
    for gmask in range(64):
        if graphlab.odd_factor_fast(graphlab.Graph.from_edge_mask(4, gmask)):
            table |= 1 << gmask
    return construct.GraphPropertyCircuit(4, monotone_table_to_circuit(6, table), "oddfactor4")


def _edge_property() -> construct.GraphPropertyCircuit:
    b = Builder(3)
    return construct.GraphPropertyCircuit(
        3, b.build([b.or_([b.input(i) for i in range(3)])]), "edge-existence"
    )


def verify_padding(seed: int = 0) -> SuiteReport:
    report = SuiteReport("padding")
    rng = random.Random(seed)
    for name, make_prop in (("edge-existence", _edge_property), ("oddfactor4", _oddfactor4_property)):
        # built by the first check that needs them; a build that raises fails each of them
        @cache
        def prop():
            made = make_prop()
            return made, truth_tables(made.circuit)[0]

        @cache
        def padding(big_n):
            return construct.padded_graph_property(prop()[0], big_n)

        for big_n in (6, 7):
            def embeds():
                (small, small_table), (padded, embedding) = prop(), padding(big_n)
                gmasks = range(1 << small.circuit.n)
                got = evaluate_many(padded.circuit, [embedding.apply(gmask) for gmask in gmasks])
                bad = [f"embed mask={gmask:#x}" for gmask, out in zip(gmasks, got)
                       if out & 1 != (small_table >> gmask) & 1][:1]
                if not embedding.is_projection_only:
                    bad.append("embedding is not a projection")
                return not bad, "; ".join(bad)

            def monotone_chain():
                circuit = padding(big_n)[0].circuit
                viol = monotone_violation(circuit.n, truth_tables(circuit)[0])
                return viol is None, f"violation at {viol}" if viol else "exhaustive over 2^15 inputs"

            def isomorphism():
                circuit = padding(big_n)[0].circuit
                for _ in range(50):
                    gmask = rng.getrandbits(circuit.n)
                    g = graphlab.Graph.from_edge_mask(big_n, gmask)
                    state = rng.getstate()
                    masks = [gmask]
                    for _ in range(50):
                        perm = list(range(big_n))
                        rng.shuffle(perm)
                        masks.append(g.permuted(perm).mask)
                    want, *got = evaluate_many(circuit, masks)
                    first_bad = next((p for p, v in enumerate(got) if v != want), None)
                    if first_bad is not None:
                        # redraw up to the first bad permutation, so that the later
                        # checks see the rng stream of a check that stopped there
                        rng.setstate(state)
                        for _ in range(first_bad + 1):
                            rng.shuffle(list(range(big_n)))
                        return False, f"mask={gmask:#x}"
                return True, ""

            _timed(report, f"{name}-N{big_n}-embedding", embeds)
            if big_n == 6:
                _timed(report, f"{name}-N6-monotone-chain", monotone_chain)
            _timed(report, f"{name}-N{big_n}-isomorphism", isomorphism)
    return report


_EMITTER_CONFIGS = (
    ("hornt-n2", csp.hornt_set, 2),
    ("ahornt-n2", csp.ahornt_set, 2),
    ("twosat-n2", csp.twosat_set, 2),
    ("or-fragment-n2", csp.or_fragment_set, 2),
    ("nand-fragment-n2", csp.nand_fragment_set, 2),
    ("hornt-n3", csp.hornt_set, 3),
    ("twosat-n3", csp.twosat_set, 3),
    ("or-fragment-n3", csp.or_fragment_set, 3),
)


def _meets_all_table(size: int, masks: list[int]) -> int:
    """Truth table over the 2**size masks w of "w meets every mask": the
    monotone CNF with one clause, the OR of its bits, per mask."""
    patterns = [input_pattern(i, size) for i in range(size)]
    table = (1 << (1 << size)) - 1
    for v in masks:
        clause = 0
        for i in range(size):
            if (v >> i) & 1:
                clause |= patterns[i]
        table &= clause
    return table


def verify_emitters(seed: int = 0, random_masks: int = 1000) -> SuiteReport:
    report = SuiteReport("csp-emitters")
    for name, set_fn, n in _EMITTER_CONFIGS:
        def emitted():
            sset = set_fn()
            circuit = construct.emit_monotone_csp_circuit(sset, n)
            bad = []
            if not measures(circuit).monotone:
                bad.append("contains NOT or XOR gates")
            size = circuit.n
            viol = violation_masks(CspInstance(sset, n))
            if size <= 18:
                diff = truth_tables(circuit)[0] ^ _meets_all_table(size, viol)
                if diff:
                    bad.append(f"mask={(diff & -diff).bit_length() - 1:#x}")
                mode = f"exhaustive 2^{size}"
            else:
                rng = random.Random(seed)
                masks = [
                    rng.getrandbits(size) & rng.getrandbits(size) & rng.getrandbits(size)
                    for _ in range(random_masks)
                ]
                for w, got in zip(masks, evaluate_many(circuit, masks)):
                    if (got & 1) != (not viol.satisfiable(w)):
                        bad.append(f"mask={w:#x}")
                        break
                mode = f"{random_masks} random masks"
            return not bad, "; ".join(bad) or mode

        _timed(report, name, emitted)
    return report


def verify_induced_subgraph() -> SuiteReport:
    report = SuiteReport("induced-subgraph")

    def extracts():
        for k in (2, 3):
            c = construct.induced_subgraph_circuit(4, k)
            cases = [(g, s) for g in range(1 << 6) for s in range(1 << 4) if s.bit_count() <= k]
            for (gmask, smask), out in zip(cases, evaluate_many(c, [g | s << 6 for g, s in cases])):
                sel = [a for a in range(4) if (smask >> a) & 1]
                want = 0
                pos = 0
                for i in range(k):
                    for j in range(i + 1, k):
                        bit = 0
                        if j < len(sel):
                            bit = (gmask >> graphlab.pair_index(sel[i], sel[j], 4)) & 1
                        want |= bit << pos
                        pos += 1
                if out != want:
                    return False, f"k={k} G={gmask:#x} S={smask:#x}"
        return True, ""

    _timed(report, "extraction-oracle", extracts)
    return report


def suite_constructions(seed: int = 0, quick: bool = False) -> SuiteReport:
    report = SuiteReport("constructions")
    for sub in (
        verify_checkpoint(seed, 40 if quick else 200),
        verify_thresholds(),
        verify_induced_subgraph(),
        verify_padding(seed),
        verify_emitters(seed, 200 if quick else 1000),
    ):
        report.checks += [Check(f"{sub.suite}/{c.name}", c.passed, c.detail, c.elapsed) for c in sub.checks]
    return report


# Reductions.

def suite_reductions(seed: int = 0, instances: int = 500, quick: bool = False) -> SuiteReport:
    report = SuiteReport("reductions")
    if quick:
        instances = min(instances, 60)
    rng = random.Random(seed)

    def run_op(name, sset, sizes, density, reduce, fixed=()):
        """The one trial loop of the reduction checks: trials -len(fixed) .. -1
        reduce the fixed instances, run first and left out of the count; trial
        t >= 0 reduces a draw over sset with n = sizes[t % len(sizes)].  The
        output instance of reduce(inst) must have inst's CSP-SAT value."""
        def check():
            for trial in range(-len(fixed), instances):
                if trial < 0:
                    inst = fixed[trial]
                else:
                    inst = csp.random_instance(sset, sizes[trial % len(sizes)], density, rng)
                out = reduce(inst)
                if csp_sat_value(inst) != csp_sat_value(out):
                    return False, f"trial {trial}: bits={inst.bits:#x}"
            return True, f"{instances} instances"

        _timed(report, name, check)

    def chain(sset, n):
        """x0 = x1 = ... = x(n-1) (relation 0), F(x0) (relation 2) and relation
        1 on x(n-1) alone, which forces it true: unsatisfiable through an
        equality path of n - 1 edges, which random draws rarely hold."""
        inst = CspInstance(sset, n).with_constraint(2, (0,))
        inst = inst.with_constraint(1, (n - 1,) * sset[1].arity)
        for v in range(n - 1):
            inst = inst.with_constraint(0, (v, v + 1))
        return inst

    eq_set = RelationSet((EQ2, or_relation(2), UNIT_FALSE), "eq_or_f")
    s1 = RelationSet((EQ2, UNIT_TRUE, UNIT_FALSE), "eqset")
    s2 = RelationSet((IMP2, UNIT_TRUE, UNIT_FALSE), "impset")
    xor3 = csp.xor3_set()
    sizes = (2, 3, 4, 5)

    run_op("eliminate-equality", eq_set, sizes, 0.12, reductions.eliminate_equality,
           fixed=(chain(eq_set, 4), chain(eq_set, 5)))

    # the first trial searches each definition and later trials hit find_cq's cache
    run_op("cq-rewrite", s1, sizes, 0.12, lambda inst: reductions.cq_rewrite(
        inst, s2, {r: reductions.find_cq(rel, s2) for r, rel in enumerate(s1)})[0])

    def check_aux():
        """Trial -1 is fixed and not counted: odd4(x0, x1, x1, x1) and
        odd4(x0, x0, x0, x1) at n = 2.  ne's auxiliary is forced to 0, but
        odd4's is not, and the two applications set theirs to 1 and 0: the
        rewrite is unsatisfiable unless each application has its own block."""
        ne_set = RelationSet((parity_relation(2, 1),), "ne")
        odd4 = RelationSet((parity_relation(4, 1),), "odd4")
        defs = {s: {0: reductions.find_cq(s[0], xor3)} for s in (ne_set, odd4)}
        fixed = CspInstance(odd4, 2).with_constraint(0, (0, 1, 1, 1)).with_constraint(0, (0, 0, 0, 1))
        for trial in range(-1, min(instances, 120)):
            inst = fixed if trial < 0 else csp.random_instance(ne_set, 2 + trial % 2, 0.3, rng)
            out, _ = reductions.cq_rewrite(inst, xor3, defs[inst.sset])
            if csp_sat_value(inst) != csp_sat_value(out):
                return False, f"trial {trial}"
        return True, ""

    _timed(report, "cq-rewrite-aux-vars", check_aux)

    run_op("pol-reduce", s1, sizes, 0.12, lambda inst: reductions.pol_reduce(inst, s2).instance,
           fixed=(chain(s1, 4), chain(s1, 5)))

    def l2_to_l3(inst):
        out, red = reductions.l2_to_l3_transform(inst)
        if not red.is_projection_only:
            raise AssertionError("l2-to-l3 must be a projection")
        return out

    run_op("l2-to-l3", xor3, (2, 3, 4), 0.08, l2_to_l3)
    run_op("negate-relations", csp.hornt_set(), sizes, 0.05, csp.negate_instance)

    def bip():
        # the truth for every matrix comes from one subset enumeration over the
        # cells, bit i*n + j being the edge (i, n + j) as in BipGraph.to_graph;
        # dual_of_xorsat's verdict words meet it on every matrix, and component
        # parity and the GF(2) instance path on every 17th
        n = 3 if quick else 4
        red = reductions.bip_oddfactor_to_xorsat(graphlab.BipGraph(n, 0))
        cells = [(i, n + j) for i in range(n) for j in range(n)]
        verdicts = graphlab.odd_factor_verdicts(2 * n, cells)
        for mask, want in zip(range(1 << (n * n)), verdicts, strict=True):
            if red.dual_of_xorsat(mask) != want:
                return False, f"matrix {mask:#x}"
            if mask % 17 == 0:
                if graphlab.bip_odd_factor(graphlab.BipGraph(n, mask)) != want:
                    return False, f"matrix {mask:#x} (component parity)"
                if solve_xor(red.instance_for(mask)) != want:
                    return False, f"matrix {mask:#x} (instance path)"
        if not red.beta.is_projection_only:
            return False, "beta is not a projection"
        return True, f"all 2^{n * n} matrices"

    _timed(report, "bip-oddfactor-duality", bip)
    return report


# Quine / decision-tree pipeline.

def _randomized_dnf(rng: random.Random, nvars: int, table: int) -> Dnf:
    """An equivalent DNF with redundant mixed-literal terms (subcubes of the
    on-set), shuffled in with the minterm presentation."""
    terms = list(minterm_dnf(nvars, table).terms)
    ones = [x for x in range(1 << nvars) if (table >> x) & 1]
    low = (1 << nvars) - 1

    def cube(x: int, free: int) -> tuple[int, int]:
        """The term of the subcube through x whose free variables are `free`."""
        return x & ~free, ~x & ~free & low

    for _ in range(rng.randrange(1, 6)):
        if not ones:
            break
        x = rng.choice(ones)
        free = 0
        for j in rng.sample(range(nvars), k=rng.randrange(0, nvars + 1)):
            if not Dnf(nvars, (cube(x, free | 1 << j),)).truth_table() & ~table:
                free |= 1 << j  # the wider subcube still lies in the on-set
        terms.append(cube(x, free))
    rng.shuffle(terms)
    return Dnf(nvars, tuple(terms))


def suite_quine(quick: bool = False) -> SuiteReport:
    report = SuiteReport("quine")

    def pipeline():
        census = monotone_tables(4)
        # the sweep takes the census tables that the single-table test passes
        monotones = [t for t in census if monotone_violation(4, t) is None]
        strays = len(census) - len(monotones)
        rng = random.Random(101)
        strip_bad = []
        dt_bad = []
        for table in monotones[::4] if quick else monotones:
            d = _randomized_dnf(rng, 4, table)
            stripped = quine_strip(d)
            if stripped.has_negative_literals():
                strip_bad.append(f"table={table:#x}: negatives left")
            elif stripped.truth_table() != table:
                strip_bad.append(f"table={table:#x}: not equivalent")
            elif len(stripped.terms) > len(d.terms):
                strip_bad.append(f"table={table:#x}: grew")
            dnf = quine_strip(build_decision_tree(4, table))
            if dnf.truth_table() != table or dnf.has_negative_literals():
                dt_bad.append(f"table={table:#x}")
            elif len(dnf.terms) < count_minterms(4, table):
                dt_bad.append(f"table={table:#x}: fewer terms than minterms")
            if len(minterm_dnf(4, table).terms) != count_minterms(4, table):
                dt_bad.append(f"table={table:#x}: minterm DNF size off")
        found = f"found {len(census)}" + (f", {strays} not monotone" if strays else "")
        return (
            (len(census) == 168 and not strays, found),
            (not strip_bad, "; ".join(strip_bad[:3])),
            (not dt_bad, "; ".join(dt_bad[:3])),
        )

    _timed(report, ("monotone-4var-count", "quine-strip", "dt-pipeline"), pipeline)

    def counts():
        maj3 = sum(1 << x for x in range(8) if bin(x).count("1") >= 2)
        maj5 = sum(1 << x for x in range(32) if bin(x).count("1") >= 3)
        ok = count_minterms(3, maj3) == 3 and count_minterms(5, maj5) == 10
        return ok, f"maj3={count_minterms(3, maj3)} maj5={count_minterms(5, maj5)}"

    _timed(report, "majority-minterms", counts)

    def nonmono():
        try:
            quine_strip(Dnf.make(2, [(0b01, 0b10), (0b10, 0b01)]))
        except MonotonePreconditionError as exc:
            return True, f"witness ({exc.lo}, {exc.hi})"
        return False, "no error raised"

    _timed(report, "non-monotone-rejected", nonmono)
    return report


# Dichotomy consistency over all binary relation sets.

def suite_dichotomy(instances_per_set: int = 20, seed: int = 0, quick: bool = False) -> SuiteReport:
    report = SuiteReport("dichotomy-consistency")

    def catalog():
        rep = clone_lattice.validate_catalog()
        return rep.ok, f"{len(rep.checks)} inclusion checks"

    _timed(report, "catalog", catalog)

    def sweep():
        binary = [Relation(2, mask, f"b{mask}") for mask in range(16)]
        rng = random.Random(seed)
        not_easy: list[str] = []
        no_solver: list[str] = []
        mismatched: list[str] = []
        for checked_sets, subset in enumerate(range(0, 1 << 16, 7 if quick else 1), 1):
            sset = RelationSet(tuple(binary[i] for i in range(16) if (subset >> i) & 1))
            verdict = clone_lattice.classify(sset)
            if verdict.size_side != "EASY":
                not_easy.append(f"subset={subset:#x}")
                if len(not_easy) > 3:
                    break
                continue
            picked = csp.pick_solver(sset)
            if picked is None:
                no_solver.append(f"subset={subset:#x}")
                if len(no_solver) > 3:
                    break
                continue
            label, solver = picked
            empty = CspInstance(sset, 4)
            size = empty.size
            viol = violation_masks(empty)
            for t in range(instances_per_set):
                bits = (rng.getrandbits(size) & rng.getrandbits(size)) if size else 0
                if t % 2 and size:
                    bits &= rng.getrandbits(size)
                sat = viol.satisfiable(bits)
                got = solver(CspInstance(sset, 4, bits))
                if got != sat:
                    mismatched.append(f"subset={subset:#x} solver={label} bits={bits:#x}")
                    break
            if len(mismatched) > 3:
                break
        return (
            (not not_easy, "; ".join(not_easy[:3]) or f"{checked_sets} relation sets"),
            (not no_solver, "; ".join(no_solver[:3])),
            (not mismatched, "; ".join(mismatched[:3]) or f"{instances_per_set} instances per set"),
        )

    _timed(report, ("all-binary-sets-size-easy", "designated-solver-exists", "solver-matches-oracle"), sweep)
    return report


SUITES = {
    "oddfactor": lambda jobs, quick, seed, mv: suite_oddfactor(max_vertices=mv, jobs=jobs, quick=quick),
    "constructions": lambda jobs, quick, seed, mv: suite_constructions(seed=seed, quick=quick),
    "reductions": lambda jobs, quick, seed, mv: suite_reductions(seed=seed, quick=quick),
    "quine": lambda jobs, quick, seed, mv: suite_quine(quick=quick),
    "dichotomy-consistency": lambda jobs, quick, seed, mv: suite_dichotomy(seed=seed, quick=quick),
}


def run_suite(
    name: str, jobs: int = 1, quick: bool = False, seed: int = 0, max_vertices: int = 7
) -> list[SuiteReport]:
    if name == "all":
        return [fn(jobs, quick, seed, max_vertices) for fn in SUITES.values()]
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return [SUITES[name](jobs, quick, seed, max_vertices)]
