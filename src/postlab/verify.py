"""Oracle-equivalence sweeps behind the `verify` CLI command and the
acceptance suite.  Every check returns a replayable witness on failure."""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from multiprocessing import Pool

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
    Dnf,
    build_decision_tree,
    count_minterms,
    dt_to_monotone_dnf,
    evaluate,
    is_syntactically_monotone,
    measures,
    minterm_dnf,
    monotone_table_to_circuit,
    monotone_violation,
    quine_strip,
    truth_tables,
    Builder,
)
from .csp import CspInstance, csp_sat_value, solve_xor, violation_masks


@dataclass
class Check:
    name: str
    passed: bool
    detail: str = ""
    elapsed: float = 0.0


@dataclass
class SuiteReport:
    suite: str
    checks: list[Check] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, detail: str = "", elapsed: float = 0.0):
        self.checks.append(Check(name, passed, detail, elapsed))

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            suffix = f" ({c.elapsed:.1f}s)" if c.elapsed else ""
            out.append(f"[{status}] {self.suite}/{c.name}{suffix}"
                       + (f": {c.detail}" if c.detail and not c.passed else ""))
        return out


def _timed(report: SuiteReport, name: str, fn) -> None:
    t0 = time.time()
    passed, detail = fn()
    report.add(name, passed, detail, time.time() - t0)


# Odd-factor claim: component parity == subset oracle == Tseitin satisfiability.

def _oddfactor_chunk(args: tuple[int, int, int]) -> tuple[int, list[str]]:
    v, lo, hi = args
    mismatches: list[str] = []
    checked = 0
    for mask in range(lo, hi):
        g = graphlab.Graph.from_edge_mask(v, mask)
        fast = graphlab.odd_factor_fast(g)
        oracle = graphlab.odd_factor_oracle(g)
        tseitin = solve_xor(graphlab.tseitin_system(g))
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
    for v in range(1, max_vertices + 1):
        t0 = time.time()
        total_masks = 1 << (v * (v - 1) // 2)
        if jobs > 1 and total_masks >= 1 << 16:
            step = total_masks // (jobs * 8)
            ranges = [
                (v, lo, min(lo + step, total_masks))
                for lo in range(0, total_masks, step)
            ]
            with Pool(jobs) as pool:
                results = pool.map(_oddfactor_chunk, ranges)
            checked = sum(r[0] for r in results)
            mismatches = [m for r in results for m in r[1]]
        else:
            checked, mismatches = _oddfactor_chunk((v, 0, total_masks))
        report.add(
            f"claim-v{v}",
            not mismatches,
            "; ".join(mismatches[:3]) or f"{checked} graphs",
            time.time() - t0,
        )

    def iso():
        rng = random.Random(17)
        for _ in range(50):
            v = rng.randrange(2, 8)
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
    rng = random.Random(seed)
    t0 = time.time()
    mismatches = []
    depth_bad = []
    for idx in range(bp_count):
        n = rng.randrange(1, 9)
        bp = construct.random_layered_bp(rng, n)
        for d in (1, 2, 3):
            for mode in (construct.PARITY, construct.REACH):
                c = construct.checkpoint_circuit(bp, d, mode)
                if measures(c).depth != 2 * d:
                    depth_bad.append(f"bp#{idx} d={d} {mode}: depth {measures(c).depth}")
                table = truth_tables(c)[0]
                oracle = construct.bp_paths_mod2 if mode == construct.PARITY else construct.bp_reachable
                for x in range(1 << n):
                    if ((table >> x) & 1) != oracle(bp, x):
                        mismatches.append(f"bp#{idx} d={d} {mode} x={x:#x}")
                        break
    report.add("oracle-equality", not mismatches, "; ".join(mismatches[:3]), time.time() - t0)
    report.add("depth-exactly-2d", not depth_bad, "; ".join(depth_bad[:3]))

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
    t0 = time.time()
    bad = []
    for n in range(1, 9):
        for k in range(0, n + 2):
            for mode in (construct.LOGDEPTH, construct.FLAT):
                c = construct.threshold_circuit(k, n, mode)
                if not is_syntactically_monotone(c):
                    bad.append(f"k={k} n={n} {mode}: not monotone")
                    continue
                table = truth_tables(c)[0]
                for x in range(1 << n):
                    if ((table >> x) & 1) != (bin(x).count("1") >= k):
                        bad.append(f"k={k} n={n} {mode} x={x:#x}")
                        break
    report.add("weight-oracle", not bad, "; ".join(bad[:3]), time.time() - t0)
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
    for prop in (_edge_property(), _oddfactor4_property()):
        small = prop.circuit.n
        small_table = truth_tables(prop.circuit)[0]
        for big_n in (6, 7):
            t0 = time.time()
            padded, embedding = construct.padded_graph_property(prop, big_n)
            bad = []
            for gmask in range(1 << small):
                if padded.value(embedding.apply(gmask)) != (small_table >> gmask) & 1:
                    bad.append(f"embed mask={gmask:#x}")
                    break
            if not embedding.is_projection_only:
                bad.append("embedding is not a projection")
            report.add(
                f"{prop.name}-N{big_n}-embedding",
                not bad,
                "; ".join(bad),
                time.time() - t0,
            )
            t0 = time.time()
            if big_n == 6:
                table = truth_tables(padded.circuit)[0]
                viol = monotone_violation(padded.circuit.n, table)
                report.add(
                    f"{prop.name}-N6-monotone-chain",
                    viol is None,
                    f"violation at {viol}" if viol else "exhaustive over 2^15 inputs",
                    time.time() - t0,
                )

                def value(mask: int) -> int:
                    return (table >> mask) & 1
            else:

                def value(mask: int) -> int:
                    return evaluate(padded.circuit, mask)

            iso_bad = []
            for _ in range(50):
                gmask = rng.getrandbits(padded.circuit.n)
                g = graphlab.Graph.from_edge_mask(big_n, gmask)
                want = value(gmask)
                for _ in range(50):
                    perm = list(range(big_n))
                    rng.shuffle(perm)
                    if value(graphlab.edge_mask(g.permuted(perm))) != want:
                        iso_bad.append(f"mask={gmask:#x}")
                        break
                if iso_bad:
                    break
            report.add(f"{prop.name}-N{big_n}-isomorphism", not iso_bad, "; ".join(iso_bad))
    return report


_EMITTER_CONFIGS = (
    ("hornt-n2", csp.hornt_set, 2, "auto"),
    ("ahornt-n2", csp.ahornt_set, 2, "auto"),
    ("twosat-n2", csp.twosat_set, 2, "auto"),
    ("or-fragment-n2", csp.or_fragment_set, 2, "or_fragment"),
    ("nand-fragment-n2", csp.nand_fragment_set, 2, "or_fragment"),
    ("hornt-n3", csp.hornt_set, 3, "auto"),
    ("twosat-n3", csp.twosat_set, 3, "auto"),
    ("or-fragment-n3", csp.or_fragment_set, 3, "or_fragment"),
)


def verify_emitters(seed: int = 0, random_masks: int = 1000) -> SuiteReport:
    report = SuiteReport("csp-emitters")
    for name, set_fn, n, fragment in _EMITTER_CONFIGS:
        sset = set_fn()
        t0 = time.time()
        circuit = construct.emit_monotone_csp_circuit(sset, n, fragment)
        bad = []
        if not is_syntactically_monotone(circuit):
            bad.append("contains NOT or XOR gates")
        size = circuit.n
        viol = violation_masks(CspInstance(sset, n))
        if size <= 18:
            table = truth_tables(circuit)[0]
            for w in range(1 << size):
                want = not any(w & v == 0 for v in viol)
                if ((table >> w) & 1) != want:
                    bad.append(f"mask={w:#x}")
                    break
            mode = f"exhaustive 2^{size}"
        else:
            rng = random.Random(seed)
            for _ in range(random_masks):
                w = rng.getrandbits(size) & rng.getrandbits(size) & rng.getrandbits(size)
                want = not any(w & v == 0 for v in viol)
                if (evaluate(circuit, w) & 1) != want:
                    bad.append(f"mask={w:#x}")
                    break
            mode = f"{random_masks} random masks"
        report.add(name, not bad, "; ".join(bad) or mode, time.time() - t0)
    return report


def verify_induced_subgraph() -> SuiteReport:
    report = SuiteReport("induced-subgraph")
    t0 = time.time()
    bad = []
    for k in (2, 3):
        c = construct.induced_subgraph_circuit(4, k)
        for gmask in range(1 << 6):
            for smask in range(1 << 4):
                if bin(smask).count("1") > k:
                    continue
                out = evaluate(c, gmask | (smask << 6))
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
                    bad.append(f"k={k} G={gmask:#x} S={smask:#x}")
                    break
            if bad:
                break
    report.add("extraction-oracle", not bad, "; ".join(bad), time.time() - t0)
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
        for c in sub.checks:
            report.add(f"{sub.suite}/{c.name}", c.passed, c.detail, c.elapsed)
    return report


# Reductions.

def suite_reductions(seed: int = 0, instances: int = 500, quick: bool = False) -> SuiteReport:
    report = SuiteReport("reductions")
    if quick:
        instances = min(instances, 60)
    rng = random.Random(seed)

    def run_op(name, make_pair):
        def check():
            for trial in range(instances):
                inst, out, red = make_pair(trial)
                if red is not None and not isinstance(red, reductions.BitReduction):
                    return False, f"{name}: non-OR reduction emitted"
                if csp_sat_value(inst) != csp_sat_value(out):
                    return False, f"trial {trial}: bits={inst.bits:#x}"
            return True, f"{instances} instances"

        _timed(report, name, check)

    eq_set = RelationSet((EQ2, or_relation(2), UNIT_FALSE), "eq_or_f")

    def pair_eliminate(trial):
        n = 2 + trial % 4
        inst = csp.random_instance(eq_set, n, 0.12, rng)
        return inst, reductions.eliminate_equality(inst), None

    run_op("eliminate-equality", pair_eliminate)

    s1 = RelationSet((EQ2, UNIT_TRUE, UNIT_FALSE), "eqset")
    s2 = RelationSet((IMP2, UNIT_TRUE, UNIT_FALSE), "impset")
    defs = {r: reductions.find_cq(s1[r], s2) for r in range(len(s1))}

    def pair_cq(trial):
        n = 2 + trial % 4
        inst = csp.random_instance(s1, n, 0.12, rng)
        out, red = reductions.cq_rewrite(inst, defs)
        return inst, out, red

    run_op("cq-rewrite", pair_cq)

    ne_set = RelationSet((parity_relation(2, 1),), "ne")
    defs_aux = {0: reductions.find_cq(ne_set[0], csp.xor3_set())}

    def pair_cq_aux(trial):
        n = 2 + trial % 2
        inst = csp.random_instance(ne_set, n, 0.3, rng)
        out, red = reductions.cq_rewrite(inst, defs_aux)
        return inst, out, red

    def check_aux():
        for trial in range(min(instances, 120)):
            inst, out, red = pair_cq_aux(trial)
            if csp_sat_value(inst) != csp_sat_value(out):
                return False, f"trial {trial}"
        return True, ""

    _timed(report, "cq-rewrite-aux-vars", check_aux)

    def pair_pol(trial):
        n = 2 + trial % 4
        inst = csp.random_instance(s1, n, 0.12, rng)
        pr = reductions.pol_reduce(inst, s2)
        assert pr is not None
        return inst, pr.instance, pr.or_stage

    run_op("pol-reduce", pair_pol)

    def pair_l2l3(trial):
        n = 2 + trial % 3
        sset = csp.xor3_set()
        inst = csp.random_instance(sset, n, 0.08, rng)
        out, red = reductions.l2_to_l3_transform(inst)
        if not red.is_projection_only:
            raise AssertionError("l2-to-l3 must be a projection")
        return inst, out, red

    run_op("l2-to-l3", pair_l2l3)

    def pair_negate(trial):
        n = 2 + trial % 4
        sset = csp.hornt_set()
        inst = csp.random_instance(sset, n, 0.05, rng)
        return inst, csp.negate_instance(inst), None

    run_op("negate-relations", pair_negate)

    def bip():
        n = 3 if quick else 4
        red = reductions.bip_oddfactor_to_xorsat(graphlab.BipGraph(n, 0))
        for mask in range(1 << (n * n)):
            want = graphlab.bip_odd_factor(graphlab.BipGraph(n, mask))
            if red.dual_of_xorsat(mask) != want:
                return False, f"matrix {mask:#x}"
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
    for _ in range(rng.randrange(1, 6)):
        if not ones:
            break
        x = rng.choice(ones)
        free = 0
        for j in rng.sample(range(nvars), k=rng.randrange(0, nvars + 1)):
            bit = 1 << j
            lo, hi = x & ~bit, x | bit
            if (table >> lo) & 1 and (table >> hi) & 1:
                candidate = free | bit
                cube_ok = all(
                    (table >> (x & ~candidate | s)) & 1
                    for s in _submasks(candidate)
                )
                if cube_ok:
                    free = candidate
        pos = x & ~free
        neg = ~x & ~free & ((1 << nvars) - 1)
        terms.append((pos, neg))
    rng.shuffle(terms)
    return Dnf(nvars, tuple(terms))


def _submasks(mask: int):
    s = mask
    while True:
        yield s
        if s == 0:
            return
        s = (s - 1) & mask


def suite_quine(quick: bool = False) -> SuiteReport:
    report = SuiteReport("quine")
    t0 = time.time()
    monotones = [t for t in range(1 << 16) if monotone_violation(4, t) is None]
    report.add("monotone-4var-count", len(monotones) == 168, f"found {len(monotones)}")
    rng = random.Random(101)
    strip_bad = []
    dt_bad = []
    sample = monotones if not quick else monotones[::4]
    for table in sample:
        d = _randomized_dnf(rng, 4, table)
        stripped = quine_strip(d)
        if stripped.has_negative_literals():
            strip_bad.append(f"table={table:#x}: negatives left")
        elif stripped.truth_table() != table:
            strip_bad.append(f"table={table:#x}: not equivalent")
        elif len(stripped.terms) > len(d.terms):
            strip_bad.append(f"table={table:#x}: grew")
        tree = build_decision_tree(4, table)
        dnf = dt_to_monotone_dnf(tree, 4, table)
        if dnf.truth_table() != table or dnf.has_negative_literals():
            dt_bad.append(f"table={table:#x}")
        elif len(dnf.terms) < count_minterms(4, table):
            dt_bad.append(f"table={table:#x}: fewer terms than minterms")
        if len(minterm_dnf(4, table).terms) != count_minterms(4, table):
            dt_bad.append(f"table={table:#x}: minterm DNF size off")
    report.add("quine-strip", not strip_bad, "; ".join(strip_bad[:3]), time.time() - t0)
    report.add("dt-pipeline", not dt_bad, "; ".join(dt_bad[:3]))

    def counts():
        maj3 = sum(1 << x for x in range(8) if bin(x).count("1") >= 2)
        maj5 = sum(1 << x for x in range(32) if bin(x).count("1") >= 3)
        ok = count_minterms(3, maj3) == 3 and count_minterms(5, maj5) == 10
        return ok, f"maj3={count_minterms(3, maj3)} maj5={count_minterms(5, maj5)}"

    _timed(report, "majority-minterms", counts)

    def nonmono():
        xor2 = Dnf.make(2, [(0b01, 0b10), (0b10, 0b01)])
        try:
            quine_strip(xor2)
        except Exception as exc:
            return hasattr(exc, "lo"), f"witness ({getattr(exc, 'lo', '?')}, {getattr(exc, 'hi', '?')})"
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
    if not report.ok:
        return report

    t0 = time.time()
    binary = [Relation(2, mask, f"b{mask}") for mask in range(16)]
    rng = random.Random(seed)
    not_easy: list[str] = []
    no_solver: list[str] = []
    mismatched: list[str] = []
    subset_range = range(0, 1 << 16, 7 if quick else 1)
    checked_sets = 0
    for subset in subset_range:
        sset = RelationSet(tuple(binary[i] for i in range(16) if (subset >> i) & 1))
        verdict = clone_lattice.classify(sset)
        checked_sets += 1
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
            sat = any(bits & v == 0 for v in viol)
            got = solver(CspInstance(sset, 4, bits))
            if got != sat:
                mismatched.append(f"subset={subset:#x} solver={label} bits={bits:#x}")
                break
        if len(mismatched) > 3:
            break
    elapsed = time.time() - t0
    report.add(
        "all-binary-sets-size-easy",
        not not_easy,
        "; ".join(not_easy[:3]) or f"{checked_sets} relation sets",
        elapsed,
    )
    report.add("designated-solver-exists", not no_solver, "; ".join(no_solver[:3]))
    report.add(
        "solver-matches-oracle",
        not mismatched,
        "; ".join(mismatched[:3]) or f"{instances_per_set} instances per set",
    )
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
