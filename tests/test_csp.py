"""Instance encoding, brute-force oracles, the clause view, fragment solvers
and emitters, generators."""

import itertools
import pickle
import random
import zlib
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from postlab import clone_lattice, csp, verify
from postlab.boolfun import (
    EQ2,
    IMP2,
    UNIT_FALSE,
    UNIT_TRUE,
    XOR3_0,
    XOR3_1,
    Relation,
    RelationSet,
    clause_relation,
    nand_relation,
    negate_relations,
    or_relation,
    reach,
    solution_table,
)
from postlab.circuit import evaluate, measures, monotone_violation
from postlab.clone_lattice import CLONE_BITS, in_pol, pol_mask
from postlab.config import budgets
from postlab.construct import emit_monotone_csp_circuit
from postlab.csp import (
    CspInstance,
    XorSystem,
    ahornt_set,
    clauses,
    csp_sat_value,
    fragment_table,
    gf2_satisfiable,
    hornt_set,
    instance_to_xor_system,
    nand_fragment_set,
    or_fragment_set,
    or_fragment_side,
    pick_solver,
    random_instance,
    satisfiable_brute,
    solve_2sat,
    solve_antihorn,
    solve_horn,
    solve_or_fragment,
    solve_xor,
    twosat_set,
    violation_masks,
    xor3_set,
    xor_system_to_instance,
)
from postlab.errors import BudgetExceededError, FragmentMismatchError, RelationParseError
from postlab.graphlab import Graph, odd_factor_fast, tseitin_system


def test_instance_sizes():
    assert CspInstance(xor3_set(), 4).size == 2 * 4**3
    assert CspInstance(hornt_set(), 4).size == 2 * 4**3 + 4
    assert CspInstance(xor3_set(), 1).size == 2


def test_encode_decode_bijection():
    catalog = (xor3_set(), hornt_set(), ahornt_set(), twosat_set(), or_fragment_set(), nand_fragment_set())
    for n in (1, 2, 3, 6):
        for sset in catalog:
            inst = CspInstance(sset, n, 0)
            for j in range(inst.size):
                r, variables = inst.decode(j)
                assert inst.encode(r, variables) == j


def test_decode_out_of_range():
    inst = CspInstance(xor3_set(), 2)
    with pytest.raises(IndexError):
        inst.decode(inst.size)


def test_solution_table_examples():
    assert solution_table(or_relation(2), (0, 1), 2) == 0b1110   # only x0 = x1 = 0 fails
    assert (solution_table(XOR3_1, (0, 0, 0), 2) >> 0b01) & 1   # 1 xor 1 xor 1 = 1
    # repeated variables act through the projected tuple: x = x always holds
    assert solution_table(EQ2, (0, 0), 2) == 0b1111
    # bit a is set iff the tuple a puts on the variables is in the relation
    rng = random.Random(4)
    for _ in range(300):
        k, n = rng.randint(1, 3), rng.randint(1, 4)
        rel = Relation(k, rng.getrandbits(1 << k))
        variables = tuple(rng.randrange(n) for _ in range(k))
        table = solution_table(rel, variables, n)
        for a in range(1 << n):
            enc = sum(((a >> v) & 1) << pos for pos, v in enumerate(variables))
            assert (table >> a) & 1 == (rel.mask >> enc) & 1


def test_violation_masks_per_assignment():
    rng = random.Random(6)
    for sset in (hornt_set(), twosat_set(), RelationSet((EQ2, Relation(3, rng.getrandbits(8))))):
        for n in (1, 2, 3):
            inst = CspInstance(sset, n)
            masks = tuple(violation_masks(inst))
            for a in range(1 << n):
                for j in range(inst.size):
                    r, variables = inst.decode(j)
                    enc = sum(((a >> v) & 1) << pos for pos, v in enumerate(variables))
                    assert (masks[a] >> j) & 1 == (not (sset[r].mask >> enc) & 1), (sset.name, n, a, j)


def _criterion7_sets(monkeypatch) -> list[RelationSet]:
    """Every relation set whose masks the quick reductions suite reads."""
    seen = {}
    real = csp.violation_masks

    def recording(inst):
        seen[inst.sset] = None
        return real(inst)

    monkeypatch.setattr(csp, "violation_masks", recording)
    assert verify.suite_reductions(quick=True).ok
    monkeypatch.undo()
    return list(seen)


def test_violation_masks_are_built_once_per_set_and_n(monkeypatch):
    ssets = _criterion7_sets(monkeypatch)
    assert len(ssets) == 10  # eq_or_f and its image, eqset, impset, ne, odd4, xor3 and its image, hornt, ~hornt
    for sset in ssets:
        for n in range(1, 6):
            cached = violation_masks(CspInstance(sset, n))
            assert violation_masks(CspInstance(sset, n, 1)) is cached
            csp._violation_masks.cache_clear()
            fresh = violation_masks(CspInstance(sset, n))
            assert fresh is not cached, (sset.name, n)
            assert (tuple(fresh), fresh.always) == (tuple(cached), cached.always), (sset.name, n)


def _quick_sweep_sets():
    """Every relation set of criterion 2's quick sweep: binary relations b0..b15,
    one set per seventh subset."""
    binary = [Relation(2, mask, f"b{mask}") for mask in range(16)]
    for subset in range(0, 1 << 16, 7):
        yield RelationSet(tuple(binary[i] for i in range(16) if (subset >> i) & 1))


def test_the_quick_sweep_builds_each_lane_word_once():
    """A quick-sweep set of k binary relations has N = 16k applications at
    n = 4, so its lanes are 2k + 1 bytes wide, and each relation's lane word
    is keyed by (relation, 4, 2k + 1): 208 keys occur (256 in the full
    sweep), and `_relation_lanes` keeps them all, so none is built twice."""
    csp._violation_masks.cache_clear()
    csp._relation_lanes.cache_clear()
    for sset in _quick_sweep_sets():
        violation_masks(CspInstance(sset, 4))
    info = csp._relation_lanes.cache_info()
    assert info.misses == info.currsize == 208 and info.maxsize >= 256


def test_a_dense_n10_set_adds_no_lane_word_to_the_cache(monkeypatch):
    """A lane word of more than 2**16 bytes is built per call from the cached
    segments, not kept: one ternary relation at n = 10 has N = 1,000
    applications, so its word is 1,024 lanes of 126 bytes (129 KB).  The
    masks built that way answer as the constraints' solution tables do."""
    csp._violation_masks.cache_clear()
    csp._relation_lanes.cache_clear()
    sset = RelationSet((Relation(3, 0b01111110, "nae"),))  # not all equal
    masks = violation_masks(CspInstance(sset, 10))
    assert csp._relation_lanes.cache_info().currsize == 0
    assert len(csp._relation_violation_segments(sset[0], 10)) == 1 << 10
    rng = random.Random(44)
    draws = [sum(1 << rng.randrange(1000) for _ in range(k)) for k in (1, 2, 4, 8, 16, 32) for _ in range(3)]
    monkeypatch.setattr(csp, "_VIOL_FAST_VARS", 0)  # the solution tables only
    for bits in draws:
        assert masks.satisfiable(bits) is satisfiable_brute(CspInstance(sset, 10, bits)), hex(bits)
    assert len({masks.satisfiable(bits) for bits in draws}) == 2


def test_always_violated_is_the_clause_view_refuting_mask():
    """The oracle's `always` (the AND of its masks) and the solvers' `refuting`
    (the applications whose prime clauses hold the empty clause) are two
    derivations of one fact: the applications that no assignment satisfies."""
    cases = [(sset, 4) for sset in _quick_sweep_sets()]
    for set_fn in (hornt_set, ahornt_set, twosat_set, xor3_set, or_fragment_set, nand_fragment_set):
        cases += [(set_fn(), n) for n in (1, 2, 3)]
    nonzero = 0
    for sset, n in cases:
        always = violation_masks(CspInstance(sset, n)).always
        assert always == fragment_table(sset, n, "I2").refuting, (sset.name, n)
        nonzero += always != 0
    assert len(cases) == 9363 + 18 and nonzero > len(cases) // 2


def test_the_mask_path_and_the_table_path_agree_around_the_size_limit(monkeypatch):
    """The per-assignment masks are built only up to _DENSE_TABLE_BITS
    applications.  Just under and just over that N, at n = 8, satisfiable_brute
    answers as the masks do and as the constraints' solution tables do."""
    # every 4-tuple but 0000 and 1111, so each R(x, x, x, x) refutes on its own
    wide = Relation(4, 0x7FFE)
    rng = random.Random(40)
    for sset in (RelationSet((wide,)), RelationSet((wide, UNIT_TRUE))):
        size = CspInstance(sset, 8).size
        assert size - csp._DENSE_TABLE_BITS in (0, 8)
        assert (violation_masks(CspInstance(sset, 8)) is None) is (size > csp._DENSE_TABLE_BITS)
        with monkeypatch.context() as m:
            m.setattr(csp, "_DENSE_TABLE_BITS", size)
            masks = csp._violation_masks.__wrapped__(sset, 8)  # built past the limit too
        diagonal = [j for j in range(size) if (masks.always >> j) & 1]
        outcomes = set()
        for t in range(40):
            bits = sum(1 << rng.randrange(size) for _ in range(rng.randint(1, 120)))
            if t % 4 == 0:
                bits |= 1 << rng.choice(diagonal)
            inst = CspInstance(sset, 8, bits)
            want = masks.satisfiable(bits)
            assert satisfiable_brute(inst) is want, (size, hex(bits))
            with monkeypatch.context() as m:
                m.setattr(csp, "_VIOL_FAST_VARS", 0)  # the solution tables only
                assert satisfiable_brute(inst) is want, (size, hex(bits))
            outcomes.add(want)
        assert outcomes == {True, False}, size


def test_a_cached_brute_force_call_still_checks_its_budget(monkeypatch):
    inst = CspInstance(hornt_set(), 3, 0)
    assert satisfiable_brute(inst) is True
    monkeypatch.setenv("POSTLAB_BUDGET", "brute_force_vars=2")
    with pytest.raises(BudgetExceededError):
        satisfiable_brute(inst)


def test_csp_sat_value_basics():
    assert csp_sat_value(CspInstance(xor3_set(), 2)) is False  # empty formula is satisfiable
    units = RelationSet((UNIT_TRUE, UNIT_FALSE), "units")
    inst = CspInstance(units, 1, 0).with_constraint(0, (0,)).with_constraint(1, (0,))
    assert csp_sat_value(inst) is True
    tri = xor_system_to_instance(tseitin_system(Graph.complete(3)))
    assert csp_sat_value(tri) is True


def test_brute_force_budget():
    inst = CspInstance(xor3_set(), 23, 0)
    with pytest.raises(BudgetExceededError):
        satisfiable_brute(inst)


def test_brute_force_without_violation_tables_matches_the_solvers():
    # n = 11 and 12 lie above the per-assignment violation tables, where
    # satisfiable_brute ANDs the solution tables of the constraints
    rng = random.Random(11)
    for sset, solver, units, densities in (
        (hornt_set(), solve_horn, 0.3, (0.004, 0.008, 0.016)),
        (twosat_set(), solve_2sat, 0.0, (0.02, 0.04, 0.08)),
    ):
        outcomes = set()
        for n in (11, 12):
            for density in densities:
                for _ in range(4):
                    inst = random_instance(sset, n, density, rng)
                    for v in range(n):  # hornt's unit T, which density alone rarely draws
                        if rng.random() < units:
                            inst = inst.with_constraint(2, (v,))
                    got = satisfiable_brute(inst)
                    assert got == solver(inst), (sset.name, n, hex(inst.bits))
                    outcomes.add(got)
        assert outcomes == {True, False}, sset.name


def test_solve_xor_on_the_empty_relation():
    empty = Relation(3, 0)
    assert in_pol("L2", empty)
    sset = RelationSet((XOR3_0, empty))
    for n in (1, 2):
        base = CspInstance(sset, n)
        offset = n**3
        rng = random.Random(n)
        for _ in range(200):
            bits = rng.getrandbits(2 * offset)
            for inst in (replace(base, bits=bits), replace(base, bits=bits & ((1 << offset) - 1))):
                assert solve_xor(inst) == satisfiable_brute(inst), (n, hex(inst.bits))
    inst = CspInstance(sset, 2).with_constraint(1, (0, 1, 0))
    assert solve_xor(inst) is False


def test_solve_xor_examples():
    assert gf2_satisfiable(XorSystem(2, ((0b11, 1), (0b11, 0))).rows) is False
    assert gf2_satisfiable(XorSystem(3, ((0b111, 1),)).rows) is True


def test_gf2_reduce_extends_a_basis():
    # reducing rows[:k] into a basis and then rows[k:] into a copy of it gives
    # the verdict of the whole system, at every cut k
    rng = random.Random(20)
    verdicts, inconsistent_prefixes = set(), 0
    for _ in range(300):
        nvars = rng.randint(1, 6)
        rows = [(rng.getrandbits(nvars), rng.getrandbits(1)) for _ in range(rng.randint(0, 8))]
        whole = csp.gf2_satisfiable(rows)
        verdicts.add(whole)
        for k in range(len(rows) + 1):
            pivots: dict[int, tuple[int, int]] = {}
            if not csp.gf2_reduce(pivots, rows[:k]):
                assert whole is False  # an inconsistent prefix
                inconsistent_prefixes += 1
                continue
            assert csp.gf2_reduce(dict(pivots), rows[k:]) == whole, (rows, k)
    assert verdicts == {True, False} and inconsistent_prefixes > 0
    assert csp.gf2_reduce({}, [(0, 1)]) is False
    assert csp.gf2_reduce({0: (1, 1)}, [(1, 0)]) is False


def test_solve_xor_rejects_non_affine():
    inst = CspInstance(RelationSet((or_relation(2),), "or2"), 2, 1)
    with pytest.raises(FragmentMismatchError):
        solve_xor(inst)


@pytest.mark.parametrize("n", [3, 14])  # N = 81 (dense table) and 5,684 (lazy)
def test_non_affine_relation_raises_on_every_call(n):
    sset = RelationSet((XOR3_0, or_relation(3)), "mixed")
    base = CspInstance(sset, n)
    inst = base.with_constraint(0, (0, 1, 2)).with_constraint(1, (n - 1, 0, 0))
    # the L2 guard reads the set, so bits of the affine relation alone are refused too
    for refused in (inst, base.with_constraint(0, (0, 1, 2))):
        for _ in range(2):
            with pytest.raises(FragmentMismatchError, match="or3"):
                solve_xor(refused)


def _parity(c: int, t: int) -> int:
    return bin(c & t).count("1") & 1


def _cut_out(arity: int, checks) -> tuple[int, ...]:
    """The tuples of the arity that satisfy every parity check (coefficients c, rhs b)."""
    return tuple(t for t in range(1 << arity) if all(_parity(c, t) == b for c, b in checks))


def test_l2_guard_admits_exactly_the_affine_relations():
    # the reference: rel is affine iff the parity checks it satisfies cut out exactly rel
    affine = 0
    for k in (1, 2, 3):
        for mask in range(1 << (1 << k)):
            rel = Relation(k, mask)
            checks = [
                (c, b)
                for c in range(1 << k)
                for b in (0, 1)
                if all(_parity(c, t) == b for t in rel.tuples())
            ]
            assert in_pol("L2", rel) == (_cut_out(k, checks) == rel.tuples()), rel
            if in_pol("L2", rel):
                affine += 1
                # the rows of the L2 view cut out exactly rel too
                assert _cut_out(k, csp._parity_rows(rel, tuple(range(k)))) == rel.tuples(), rel
    # per arity k, the cosets of the subspaces of GF(2)^k and the empty relation
    assert affine == 4 + 12 + 52


def test_solve_horn_example():
    # facts x0, x1; rule x0 & x1 -> x2; clause (~x0 | ~x1 | ~x2)
    s = hornt_set()
    inst = CspInstance(s, 3, 0)
    inst = inst.with_constraint(2, (0,)).with_constraint(2, (1,))
    inst = inst.with_constraint(0, (0, 1, 2)).with_constraint(1, (0, 1, 2))
    assert solve_horn(inst) is False


def test_solve_2sat_example():
    s = twosat_set()
    inst = CspInstance(s, 2, 0).with_constraint(0, (0, 1)).with_constraint(2, (0, 1))
    assert solve_2sat(inst) is True


def test_or_fragment_example():
    # (x0 | x1), ~x0, ~x1 is unsatisfiable
    s = or_fragment_set(2)
    inst = (
        CspInstance(s, 2, 0)
        .with_constraint(0, (0, 1))
        .with_constraint(2, (0,))
        .with_constraint(2, (1,))
    )
    assert solve_or_fragment(inst) is False


def test_fragment_mismatch_errors():
    xinst = random_instance(xor3_set(), 3, 0.2, random.Random(1))
    with pytest.raises(FragmentMismatchError):
        solve_horn(xinst)
    with pytest.raises(FragmentMismatchError):
        solve_2sat(xinst)
    with pytest.raises(FragmentMismatchError):
        solve_or_fragment(xinst)


# the guard runs before any table is built, so neither N builds one; a table
# would be dense at N = 63 and lazy at N = 5,684
@pytest.mark.parametrize("n", [3, 14])
def test_fragment_guards_raise_on_every_call(n):
    # imp lies in every fragment, so each guard looks past it; the second set
    # equals the first, so a message kept by equality would name xor3^1
    for sset, name in (
        (RelationSet((IMP2, XOR3_1, XOR3_0), "mixed"), "xor3^1"),
        (RelationSet((IMP2, replace(XOR3_1, name="renamed"), XOR3_0), "mixed"), "renamed"),
    ):
        inst = CspInstance(sset, n).with_constraint(1, (0, 1, n - 1))
        for solver, message in (
            (solve_horn, f"relation {name} is not AND-closed (Horn fragment)"),
            (solve_antihorn, f"relation {name} is not OR-closed (anti-Horn fragment)"),
            (solve_2sat, f"relation {name} is not majority-closed (2-SAT fragment)"),
            (solve_or_fragment, "relation set is outside the OR/NAND-with-units menu"),
        ):
            for _ in range(2):
                with pytest.raises(FragmentMismatchError) as err:
                    solver(inst)
                assert str(err.value) == message


# per guarded clone, two relations it does not preserve; EQ2 lies in every Pol
GUARD_FAILURES = {
    "E2": (or_relation(2), XOR3_1),
    "V2": (nand_relation(2), XOR3_0),
    "D2": (XOR3_0, or_relation(3)),
    "L2": (or_relation(2), nand_relation(2)),
}


@pytest.mark.parametrize("clone", sorted(GUARD_FAILURES))
def test_fragment_table_names_the_first_relation_its_clone_misses(clone):
    wording = csp._FRAGMENT_VIEWS[clone][1]
    for first, second in (GUARD_FAILURES[clone], GUARD_FAILURES[clone][::-1]):
        assert not in_pol(clone, first) and not in_pol(clone, second)
        sset = RelationSet((EQ2, first, second))
        assert pol_mask(sset) & CLONE_BITS[clone] == 0
        for _ in range(3):
            with pytest.raises(FragmentMismatchError) as err:
                fragment_table(sset, 3, clone)
            assert str(err.value) == f"relation {first.name} is not {wording}"


# the menu with the reverse implication, tuples 00 10 11: x1 -> x0
OR2_REV = RelationSet(
    (or_relation(2), UNIT_TRUE, UNIT_FALSE, Relation(2, 0b1011, "imp_rev")), "or2_rev"
)

SOLVER_CONFIGS = [
    (xor3_set, solve_xor),
    (hornt_set, solve_horn),
    (ahornt_set, solve_antihorn),
    (twosat_set, solve_2sat),
    (lambda: or_fragment_set(3), solve_or_fragment),
    (lambda: nand_fragment_set(3), solve_or_fragment),
    (lambda: OR2_REV, solve_or_fragment),
]


@pytest.mark.parametrize("set_fn,solver", SOLVER_CONFIGS)
def test_solver_agrees_with_brute_force(set_fn, solver):
    sset = set_fn()
    rng = random.Random(zlib.crc32(sset.name.encode()))
    for trial in range(200):
        n = rng.randrange(2, 9)
        inst = random_instance(sset, n, rng.choice([0.02, 0.05, 0.15]), random.Random(trial))
        assert solver(inst) == satisfiable_brute(inst), (sset.name, n, hex(inst.bits))


def test_solvers_handle_repeated_variables():
    s = twosat_set()
    # NAND(x0, x0) forces x0 = 0; OR(x0, x0) forces x0 = 1
    inst = CspInstance(s, 1, 0).with_constraint(2, (0, 0)).with_constraint(0, (0, 0))
    assert solve_2sat(inst) is False
    assert satisfiable_brute(inst) is False


def _closure_by_squaring(adj):
    """Reflexive-transitive closure by repeated squaring: the reference for reach."""
    size = len(adj)
    closure = [adj[u] | (1 << u) for u in range(size)]
    for _ in range(max(1, (size - 1).bit_length())):
        for u in range(size):
            acc = closure[u]
            for w in range(size):
                if (closure[u] >> w) & 1:
                    acc |= closure[w]
            closure[u] = acc
    return closure


def test_reach_matches_the_closure_by_squaring():
    rng = random.Random(8)
    for trial in range(300):
        size = rng.randrange(1, 40)
        density = rng.choice((0.02, 0.05, 0.1, 0.3))
        # arcs u -> u are drawn like any other, so self-loops occur
        adj = [sum(1 << w for w in range(size) if rng.random() < density) for _ in range(size)]
        closure = _closure_by_squaring(adj)
        assert reach(adj, 0) == 0
        for frontier in (1 << rng.randrange(size), rng.getrandbits(size), (1 << size) - 1):
            want = 0
            for u in range(size):
                if (frontier >> u) & 1:
                    want |= closure[u]
            assert reach(adj, frontier) == want, (trial, adj, frontier)


def _twosat_chains(n):
    """twosat_set: 0 is x_a | x_b, 1 is x_b -> x_a, 2 is ~x_a | ~x_b."""
    chain = [(1, (v + 1, v)) for v in range(n - 1)]  # x_v -> x_{v+1}
    cycle = chain + [(1, (0, n - 1))]
    return {
        "chain-from-true": (chain + [(0, (0, 0))], True),
        "chain-true-to-false": (chain + [(0, (0, 0)), (2, (n - 1, n - 1))], False),
        "chain-false-to-true": (chain + [(2, (0, 0)), (0, (n - 1, n - 1))], True),
        "cycle-one-false": (cycle + [(2, (n // 2, n // 2))], True),
        "cycle-true-and-false": (cycle + [(0, (0, 0)), (2, (n // 2, n // 2))], False),
    }


def _or_menu_chains(n):
    """or_fragment_set(2): 0 is or2, 1 is T, 2 is F and 3 is x_a -> x_b."""
    chain = [(3, (v, v + 1)) for v in range(n - 1)]
    cycle = chain + [(3, (n - 1, 0))]
    return {
        "chain-blocked-disjunction": (chain + [(2, (n - 1,)), (0, (0, n // 2))], False),
        "chain-open-disjunction": (chain + [(2, (0,)), (0, (0, n // 2))], True),
        "chain-true-to-false": (chain + [(1, (0,)), (2, (n - 1,))], False),
        "cycle-blocked-disjunction": (cycle + [(2, (n // 2,)), (0, (0, n - 1))], False),
        "cycle-one-true": (cycle + [(1, (0,))], True),
    }


def _nand_menu_chains(n):
    """nand_fragment_set(2): 0 is nand2, 1 is T, 2 is F and 3 is x_a -> x_b."""
    chain = [(3, (v, v + 1)) for v in range(n - 1)]
    cycle = chain + [(3, (n - 1, 0))]
    return {
        "chain-forced-disjunction": (chain + [(1, (0,)), (0, (n // 2, n - 1))], False),
        "chain-free-disjunction": (chain + [(1, (n - 1,)), (0, (0, n // 2))], True),
        "cycle-forced-disjunction": (cycle + [(1, (0,)), (0, (n // 2, n // 2))], False),
        "cycle-free-disjunction": (cycle + [(0, (0, n - 1))], True),
    }


CHAIN_FAMILIES = {
    "2sat": (twosat_set, solve_2sat, _twosat_chains),
    "or": (lambda: or_fragment_set(2), solve_or_fragment, _or_menu_chains),
    "nand": (lambda: nand_fragment_set(2), solve_or_fragment, _nand_menu_chains),
}


@pytest.mark.parametrize("n", [2, 3, 5, 8, 1000])
@pytest.mark.parametrize("family", sorted(CHAIN_FAMILIES))
def test_solvers_on_implication_chains_and_cycles(family, n):
    # the verdict rests on a path through all n variables
    set_fn, solver, cases = CHAIN_FAMILIES[family]
    base = CspInstance(set_fn(), n)
    for name, (applications, want) in cases(n).items():
        bits = 0
        for r, variables in applications:
            bits |= 1 << base.encode(r, variables)
        inst = replace(base, bits=bits)
        assert solver(inst) is want, (name, n)
        if n <= 8:
            assert satisfiable_brute(inst) is want, (name, n)


# Every relation of arity 1-3, and every variable tuple over as many
# variables, so every duplicate pattern is met.
SMALL_RELATIONS = [Relation(k, m) for k in (1, 2, 3) for m in range(1 << (1 << k))]


def _applications(rel):
    return itertools.product(range(rel.arity), repeat=rel.arity)


def _satisfies(a, pos, neg):
    return any((a >> v) & 1 for v in pos) or any(not (a >> v) & 1 for v in neg)


def test_clauses_are_the_prime_implicates():
    for rel in SMALL_RELATIONS:
        for variables in _applications(rel):
            got = clauses(rel, variables)
            # the solutions of the application, as assignments to x0..x_{k-1}
            sols = [
                a for a in range(1 << rel.arity)
                if (rel.mask >> sum(((a >> v) & 1) << j for j, v in enumerate(variables))) & 1
            ]
            for a in range(1 << rel.arity):
                assert (a in sols) == all(_satisfies(a, p, q) for p, q in got)
            for pos, neg in got:
                assert list(pos) == sorted(set(pos)) and list(neg) == sorted(set(neg))
                assert not set(pos) & set(neg)
                assert all(_satisfies(a, pos, neg) for a in sols)
                # prime: dropping any one literal loses some solution
                for drop in pos + neg:
                    p = tuple(v for v in pos if v != drop)
                    q = tuple(v for v in neg if v != drop)
                    assert not all(_satisfies(a, p, q) for a in sols)


def test_clauses_edge_cases():
    or_mixed = clause_relation(2, [0], [1])
    assert clauses(or_mixed, (3, 3)) == ()  # tautological instantiation
    assert clauses(Relation(2, 0b1111), (0, 1)) == ()
    assert clauses(Relation(2, 0), (0, 1)) == (((), ()),)
    assert clauses(Relation(2, 0b0110), (4, 4)) == (((), ()),)  # x != x
    assert clauses(IMP2, (5, 2)) == (((2,), (5,)),)
    assert clauses(Relation(2, 0b1011), (5, 2)) == (((5,), (2,)),)  # reverse implication
    assert clauses(EQ2, (0, 1)) == (((0,), (1,)), ((1,), (0,)))
    assert clauses(or_relation(3), (2, 0, 2)) == (((0, 2), ()),)


def test_clause_facts_behind_the_solvers():
    for rel in SMALL_RELATIONS:
        for variables in _applications(rel):
            got = clauses(rel, variables)
            if in_pol("E2", rel):
                assert all(len(pos) <= 1 for pos, _ in got), rel
            if in_pol("V2", rel):
                assert all(len(neg) <= 1 for _, neg in got), rel
            if in_pol("D2", rel):
                assert all(len(pos) + len(neg) <= 2 for pos, neg in got), rel


def test_one_prime_clause_means_a_clause_relation():
    for k in (1, 2, 3):
        single = {0, (1 << (1 << k)) - 1}  # the empty and the full relation
        for signs in itertools.product((None, 1, 0), repeat=k):
            pos = [j for j, s in enumerate(signs) if s == 1]
            neg = [j for j, s in enumerate(signs) if s == 0]
            if pos or neg:
                single.add(clause_relation(k, pos, neg).mask)
        for m in range(1 << (1 << k)):
            rel = Relation(k, m)
            assert (len(clauses(rel, tuple(range(k)))) <= 1) == (m in single), rel


def test_s00_and_s10_are_the_menu_clause_shapes():
    # the clause-shape rule the OR/NAND menu used before it read Pol: every
    # prime clause an implication, a unit, or of the side's one polarity
    for rel in SMALL_RELATIONS:
        got = clauses(rel, tuple(range(rel.arity)))
        for clone, wide_ok in (("S00", lambda pos, neg: not neg), ("S10", lambda pos, neg: not pos)):
            shape = all(
                len(pos) == len(neg) == 1 or len(pos) + len(neg) == 1 or wide_ok(pos, neg)
                for pos, neg in got
            )
            assert in_pol(clone, rel) == shape, (clone, rel)


def test_or_fragment_side_menu():
    assert or_fragment_side(or_fragment_set(3)) == "or"
    assert or_fragment_side(nand_fragment_set(3)) == "nand"
    assert or_fragment_side(OR2_REV) == "or"
    assert or_fragment_side(RelationSet((UNIT_TRUE, UNIT_FALSE, IMP2, EQ2))) == "or"
    for off_menu in (
        RelationSet((or_relation(2), nand_relation(2))),  # both polarities wide
        RelationSet((clause_relation(3, [0], [1, 2]),)),  # neither implication nor one polarity
        xor3_set(),
    ):
        with pytest.raises(FragmentMismatchError):
            or_fragment_side(off_menu)


def _table(size, fn):
    """Truth table of fn over all 2**size instance masks."""
    return int("".join("1" if fn(w) else "0" for w in reversed(range(1 << size))), 2)


def test_monotonicity_exhaustive_and_decoy():
    # CSP-SAT over every instance mask, through the one monotonicity test
    for sset in (RelationSet((or_relation(2),), "or2"), xor3_set()):
        inst = CspInstance(sset, 2)
        viol = violation_masks(inst)
        table = _table(inst.size, lambda w: all(w & v for v in viol))
        assert monotone_violation(inst.size, table) is None
    units = RelationSet((UNIT_TRUE, UNIT_FALSE), "units")

    def decoy(bits: int) -> bool:
        # satisfiability is antitone in the constraint bits, never monotone
        return not csp_sat_value(CspInstance(units, 2, bits))

    assert monotone_violation(4, _table(4, decoy)) is not None


def test_tseitin_instance_against_components():
    for v in range(1, 5):
        for mask in range(1 << (v * (v - 1) // 2)):
            g = Graph.from_edge_mask(v, mask)
            inst = xor_system_to_instance(tseitin_system(g))
            assert solve_xor(inst) == odd_factor_fast(g), sorted(g.edges)


def test_xor_system_to_instance_chains():
    # x0+x1+x2 = 1 over z0 = x0+x1, z1 = z0+x2; x1 = 0; an empty row with
    # rhs 1 on fresh a; an empty row with rhs 0 adds nothing
    system = XorSystem(3, ((0b111, 1), (0b010, 0), (0, 1), (0, 0)))
    inst = xor_system_to_instance(system)
    z0, z1, a = 3, 4, 5
    assert inst.sset == xor3_set() and inst.n == 6
    assert set(inst.iter_constraints()) == {
        (0, (z0, 0, 1)),
        (0, (z1, z0, 2)),
        (1, (z1, z1, z1)),
        (0, (1, 1, 1)),
        (0, (a, a, a)),
        (1, (a, a, a)),
    }
    assert xor_system_to_instance(XorSystem(2, ())) == CspInstance(xor3_set(), 2)


def test_random_instance_deterministic():
    a = random_instance(xor3_set(), 3, 0.2, random.Random(7))
    b = random_instance(xor3_set(), 3, 0.2, random.Random(7))
    assert a == b
    # the sweeps' instances depend on these draws staying fixed
    assert random_instance(hornt_set(), 3, 0.1, random.Random(3)).bits == 0x2002200060


def test_pick_solver_choices():
    assert pick_solver(RelationSet((or_relation(2),)))[0] == "trivial(I1)"
    assert pick_solver(hornt_set())[0] == "horn(E2)"
    assert pick_solver(ahornt_set())[0] == "antihorn(V2)"
    assert pick_solver(twosat_set())[0] == "2sat(D2)"
    assert pick_solver(xor3_set()) is None
    # the OR/NAND menu sets are OR- or AND-closed
    for k in (1, 2, 3, 4):
        assert pick_solver(or_fragment_set(k))[0] == ("horn(E2)" if k == 1 else "antihorn(V2)")
        assert pick_solver(nand_fragment_set(k))[0] == "horn(E2)"


@pytest.mark.parametrize("n,set_bits", [(0, []), (-1, []), (2, [18]), (2, [40]), (2, [-1])])
def test_instance_from_json_validates(n, set_bits):
    obj = CspInstance(hornt_set(), 2).to_json()  # N = 18 at n = 2
    obj.update(n=n, set_bits=set_bits)
    with pytest.raises(RelationParseError):
        CspInstance.from_json(obj)


def test_instance_json_roundtrip():
    inst = random_instance(hornt_set(), 3, 0.1, random.Random(3))
    assert CspInstance.from_json(inst.to_json()) == inst
    listing = inst.listing()
    assert listing.count("\n") == bin(inst.bits).count("1")


def test_to_json_cost_follows_constraints_not_n():
    or3 = RelationSet((or_relation(3),), "or3")
    inst = CspInstance(or3, 1000).with_constraint(0, (1, 2, 3))  # N = 10**9
    assert inst.to_json()["set_bits"] == [1 + 2 * 1000 + 3 * 1000**2]


def test_solvers_cost_follows_constraints_not_n():
    # N is above 10**6 for each set at n = 1000: a solver that read every
    # application of the layout, not the set bits, would not finish
    n = 1000
    cases = [
        (solve_horn, CspInstance(hornt_set(), n).with_constraint(0, (999, 2, 3)), True),
        (solve_antihorn, CspInstance(ahornt_set(), n).with_constraint(0, (999, 2, 3)), True),
        (solve_2sat, CspInstance(twosat_set(), n).with_constraint(2, (999, 999)), True),
        (solve_or_fragment, CspInstance(or_fragment_set(3), n).with_constraint(0, (999, 2, 3)), True),
        (solve_or_fragment, CspInstance(nand_fragment_set(3), n).with_constraint(1, (999,)), True),
    ]
    empty = CspInstance(RelationSet((Relation(3, 0),)), n).with_constraint(0, (999, 2, 3))
    cases += [(solver, empty, False) for solver, _, _ in cases]
    for solver, inst, sat in cases:
        assert solver(inst) is sat, solver.__name__


def test_pickled_relations_hit_the_caches():
    sset = twosat_set()
    copy = pickle.loads(pickle.dumps(sset))
    assert copy == sset and hash(copy) == hash(sset)
    assert fragment_table(copy, 3, "I2") is fragment_table(sset, 3, "I2")
    for clone, s in (("D2", sset), ("E2", hornt_set())):
        renamed = RelationSet(tuple(replace(rel, name="r") for rel in s), s.name)
        for twin in (pickle.loads(pickle.dumps(s)), renamed):
            assert fragment_table(twin, 3, clone) is fragment_table(s, 3, clone)
    limit = budgets().preserves_combos
    for cache, key, twin in (
        (clone_lattice._pol_mask, (sset, limit), (copy, limit)),
        (clone_lattice._pol_bits, (sset[0],), (pickle.loads(pickle.dumps(sset[0])),)),
    ):
        cache(*key)
        hits = cache.cache_info().hits
        assert cache(*twin) == cache(*key) and cache.cache_info().hits == hits + 2


# Property tests of the bit layout.

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)
# N = 432: a mask longer than 32 bytes with its first and last bits set
LONG = CspInstance(xor3_set(), 6, 1 | 1 << 431)


@st.composite
def instances(draw, sset=None):
    if sset is None:
        arities = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
        sset = RelationSet(
            tuple(Relation(k, draw(st.integers(0, (1 << (1 << k)) - 1))) for k in arities)
        )
    n = draw(st.integers(1, 6))
    size = CspInstance(sset, n).size
    # dense masks, and sparse ones whose few bits may sit anywhere below N
    sparse = st.sets(st.integers(0, size - 1), max_size=8).map(lambda js: sum(1 << j for j in js))
    bits = draw(st.one_of(st.integers(0, (1 << size) - 1), sparse))
    return CspInstance(sset, n, bits)


@PROPERTY
@given(instances())
@example(LONG)
def test_iter_constraints_decodes_set_bits_in_order(inst):
    want = [inst.decode(j) for j in range(inst.size) if (inst.bits >> j) & 1]
    assert list(inst.iter_constraints()) == want


@st.composite
def mask_bits(draw):
    """(sset, n, bits): a set of 0-3 relations of arity <= 3 at n = 1..5, and
    bits that are 0, all ones, one bit of `always`, random, or random with
    bits above N."""
    arities = draw(st.lists(st.integers(1, 3), max_size=3))
    sset = RelationSet(
        tuple(Relation(k, draw(st.integers(0, (1 << (1 << k)) - 1))) for k in arities)
    )
    n = draw(st.integers(1, 5))
    size = CspInstance(sset, n).size
    full = (1 << size) - 1
    always = violation_masks(CspInstance(sset, n)).always
    choices = [
        st.just(0),
        st.just(full),
        st.integers(0, full),
        st.tuples(st.integers(0, full), st.integers(size, size + 64)).map(lambda p: p[0] | 1 << p[1]),
    ]
    if always:
        choices.append(st.sampled_from([1 << j for j in range(size) if (always >> j) & 1]))
    return sset, n, draw(st.one_of(choices))


@PROPERTY
@given(mask_bits())
@example((RelationSet(()), 3, 0))
@example((RelationSet(()), 3, 0b1011))
@example((RelationSet((Relation(2, 0b0110),)), 2, 1))  # x0 != x0 refutes
def test_satisfiable_is_the_per_assignment_loop(drawn):
    sset, n, bits = drawn
    masks = violation_masks(CspInstance(sset, n))
    assert masks.satisfiable(bits) is (0 in map(bits.__and__, masks))


def _lane_cases():
    """(sset, n) at the lane-width edges N = 0, 7, 8, 15, 16 and 4,096 (n = 8),
    and a set at each n from 1 to 10."""
    rng = random.Random(43)

    def rels(*arities):
        return RelationSet(tuple(Relation(k, rng.getrandbits(1 << k)) for k in arities))

    cases = [(RelationSet(()), 1), (RelationSet(()), 4), (rels(1), 7), (rels(*[1] * 7), 1)]
    cases += [(rels(1), 8), (rels(3), 2), (rels(2, 1, 1), 3), (rels(2), 4), (rels(4), 2), (rels(4), 8)]
    return cases + [(rels(3, 1), n) for n in range(1, 11)]


def _tables_satisfiable(sset, n, bits):
    """Whether the constraints' solution tables share a solution."""
    solutions = (1 << (1 << n)) - 1
    for r, variables in CspInstance(sset, n, bits).iter_constraints():
        solutions &= solution_table(sset[r], variables, n)
    return solutions != 0


def test_satisfiable_lanes_match_the_loop_and_the_solution_tables():
    """The word test of `satisfiable` answers as the per-assignment loop and
    as the solution tables do, at the lane-width edges and for every n up to
    10, with stray bits above N: at the guard, at the top of the lane, in the
    next lane and far above it."""
    rng = random.Random(43)
    sizes, kernel_outcomes = set(), set()
    for sset, n in _lane_cases():
        inst = CspInstance(sset, n)
        masks, size, full = violation_masks(inst), inst.size, (1 << inst.size) - 1
        sizes.add(size)
        assert masks.width == size // 8 + 1 and masks.lanes & masks.guards == 0, (sset, n)
        per_assignment = tuple(masks)
        assert len(per_assignment) == 1 << n
        draws = [0, full] + [rng.getrandbits(size) for _ in range(2)]
        draws += [full & ~masks.always & rng.getrandbits(size) & rng.getrandbits(size) for _ in range(4)]
        draws += [sum({1 << rng.randrange(size) for _ in range(3)}) if size else 0 for _ in range(2)]
        for bits in draws:
            want = _tables_satisfiable(sset, n, bits)
            if not bits & masks.always:
                kernel_outcomes.add(want)
            for stray in (0, 1 << size, 1 << (8 * masks.width - 1), 1 << 8 * masks.width, 1 << (size + 100)):
                assert masks.satisfiable(bits | stray) is want, (sset, n, hex(bits), stray.bit_length())
                assert (0 in map((bits | stray).__and__, per_assignment)) is want, (sset, n, hex(bits))
    assert {0, 7, 8, 15, 16, 4096} <= sizes and kernel_outcomes == {True, False}


@st.composite
def table_bits(draw):
    """(sset, n, bits): a few bits of a small instance, or of a ternary one
    whose N (2n^3 + n >= 4,407) is above the dense clause-table limit."""
    if draw(st.booleans()):
        inst = draw(instances())
        sset, n = inst.sset, inst.n
    else:
        sset, n = hornt_set(), draw(st.integers(13, 60))
    size = CspInstance(sset, n).size
    return sset, n, draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=8))


@PROPERTY
@given(table_bits())
def test_clause_table_holds_the_clauses_of_each_bit(drawn):
    sset, n, bits = drawn
    table = fragment_table(sset, n, "I2")
    for j in bits:
        r, variables = CspInstance(sset, n).decode(j)
        assert table[j] == clauses(sset[r], variables)


def test_the_clause_row_is_served_for_every_set():
    # I2, the projections, lies inside every Pol(S): the size-HARD xor3 and a
    # set holding an empty relation get their clauses, never a mismatch
    with_empty = RelationSet((Relation(3, 0), IMP2), "with-empty")
    for sset in (xor3_set(), with_empty):
        inst = CspInstance(sset, 3)
        table = fragment_table(sset, 3, "I2")
        for j in range(inst.size):
            r, variables = inst.decode(j)
            assert table[j] == clauses(sset[r], variables)
    assert fragment_table(with_empty, 3, "I2")[0] == (((), ()),)


def _mask_cases():
    """(relation set, n): every binary relation, alone and after the T and F
    units (so its mask is shifted), at n = 1..4; the catalog and menu sets and
    xor3 at n = 2 and 3."""
    for mask in range(16):
        rel = Relation(2, mask)
        for sset in (RelationSet((rel,)), RelationSet((UNIT_TRUE, UNIT_FALSE, rel))):
            for n in range(1, 5):
                yield sset, n
    for sset in (hornt_set(), ahornt_set(), twosat_set(), or_fragment_set(), nand_fragment_set(), xor3_set()):
        for n in (2, 3):
            yield sset, n


@pytest.mark.parametrize("clone, cases", [
    ("I2", 140), ("E2", 116), ("V2", 116), ("D2", 134), ("L2", 98),
])
def test_refuting_marks_exactly_the_bits_no_assignment_satisfies(clone, cases):
    checked = 0
    for sset, n in _mask_cases():
        if not all(in_pol(clone, rel) for rel in sset):
            continue
        size = CspInstance(sset, n).size
        unsat = sum(1 << j for j in range(size) if not satisfiable_brute(CspInstance(sset, n, 1 << j)))
        assert fragment_table(sset, n, clone).refuting == unsat, (sset, n)
        checked += 1
    assert checked == cases


def test_lazy_tables_carry_no_refuting_mask_and_the_kernels_still_refute():
    sset = RelationSet((Relation(2, 0), IMP2))
    inst = CspInstance(sset, 46)
    assert inst.size == 4232 > csp._DENSE_TABLE_BITS
    for clone in ("I2", "E2", "V2", "D2"):
        assert fragment_table(sset, 46, clone).refuting == 0
    sat = inst.with_constraint(1, (0, 45))
    unsat = sat.with_constraint(0, (45, 3))
    for solver in (solve_horn, solve_antihorn, solve_2sat, csp._trivial):
        assert solver(sat) is True and solver(unsat) is False, solver.__name__


def test_horn_tables_of_the_negated_relations_reuse_the_anti_horn_blocks():
    """V2 reads the Horn view of the negated relations, so E2 on those
    relations finds each block, and its refuting mask, already built."""
    impset = RelationSet((IMP2, UNIT_TRUE, UNIT_FALSE), "impset")
    csp.fragment_table.cache_clear()
    csp._relation_block.cache_clear()
    anti = fragment_table(impset, 3, "V2")
    misses = csp._relation_block.cache_info().misses
    horn = fragment_table(negate_relations(impset), 3, "E2")
    assert csp._relation_block.cache_info().misses == misses
    assert horn == anti and horn.refuting == anti.refuting


@PROPERTY
@given(instances())
@example(LONG)
def test_json_round_trip_and_set_bits(inst):
    obj = inst.to_json()
    assert CspInstance.from_json(obj) == inst
    assert obj["set_bits"] == sorted(inst.encode(r, v) for r, v in inst.iter_constraints())


@PROPERTY
@given(instances(xor3_set()))
def test_solve_xor_matches_brute_force(inst):
    assert solve_xor(inst) == satisfiable_brute(inst)


def _rows_by_decode(inst: CspInstance, bits: list[int]) -> tuple:
    """The rows of xor3 bits decoded one by one: XOR3_r(V) is sum(V) = r."""
    rows = []
    for j in sorted(bits):
        r, variables = inst.decode(j)
        mask = 0
        for v in variables:
            mask ^= 1 << v
        rows.append((mask, r))
    return tuple(rows)


@st.composite
def xor3_bits(draw):
    """An xor3 instance at 1 <= n <= 20, so N = 2n^3 lies on both sides of
    the dense table limit, with applications whose variables repeat."""
    n = draw(st.integers(1, 20))
    inst = CspInstance(xor3_set(), n)
    pool = st.integers(0, n - 1)
    apps = draw(st.lists(st.tuples(st.integers(0, 1), st.tuples(pool, pool, pool)), max_size=12))
    bits = sorted({inst.encode(r, variables) for r, variables in apps})
    return inst, bits


@PROPERTY
@given(xor3_bits())
@example((CspInstance(xor3_set(), 13), [0, 1, 2 * 13**3 - 1]))  # N = 4,394, lazy
@example((CspInstance(xor3_set(), 12), [0, 1, 2 * 12**3 - 1]))  # N = 3,456, dense
def test_instance_to_xor_system_matches_a_per_bit_decode(drawn):
    base, bits = drawn
    inst = CspInstance(base.sset, base.n, sum(1 << j for j in bits))
    want = XorSystem(inst.n, _rows_by_decode(inst, bits))
    assert instance_to_xor_system(inst) == want
    assert instance_to_xor_system(inst) == want  # again, from the stored entries
    dense = inst.size <= csp._DENSE_TABLE_BITS
    assert isinstance(fragment_table(inst.sset, inst.n, "L2"), tuple) == dense
    known = CspInstance(base.sset, base.n, inst.bits, known_set_bits=tuple(bits))
    assert instance_to_xor_system(known) == want


def test_lazy_tables_keep_a_bounded_number_of_entries(monkeypatch):
    monkeypatch.setattr(csp, "_DENSE_TABLE_BITS", 8)
    # sets no other test caches; x0 | ~x1 and x0 = 0 are Horn and bijunctive
    xor3 = RelationSet((XOR3_0, XOR3_1), "xor3-bounded")
    horn2 = RelationSet((clause_relation(3, [0], [1]), UNIT_FALSE), "horn2-bounded")
    n = 5
    for table_of, view, sset in (
        (lambda s, n: fragment_table(s, n, "L2"), csp._parity_rows, xor3),
        (lambda s, n: fragment_table(s, n, "I2"), clauses, xor3),
        (lambda s, n: fragment_table(s, n, "E2"), csp._horn_rules, horn2),
        (lambda s, n: fragment_table(s, n, "D2"), csp._implications, horn2),
    ):
        inst = CspInstance(sset, n)
        table = table_of(sset, n)
        assert not isinstance(table, tuple)
        for j in range(0, inst.size, 7):
            r, variables = inst.decode(j)
            assert table[j] == view(sset[r], variables)
        assert len(table) == 8


@st.composite
def xor_systems(draw):
    nvars = draw(st.integers(0, 6))
    row = st.tuples(st.integers(0, (1 << nvars) - 1), st.integers(0, 1))
    return XorSystem(nvars, tuple(draw(st.lists(row, max_size=6))))


@PROPERTY
@given(xor_systems())
def test_xor_system_to_instance_keeps_satisfiability(system):
    inst = xor_system_to_instance(system)
    # k - 1 fresh variables per k-variable row, one per empty row with rhs 1
    fresh = sum(
        bin(mask).count("1") - 1 if mask else rhs for mask, rhs in system.rows
    )
    assert inst.n == max(system.nvars + fresh, 1)
    assert solve_xor(inst) == gf2_satisfiable(system.rows)


# Differential tests of the fragment solvers, over relation sets drawn from
# the binary and ternary relations of each fragment.

def _menu_pool(wide: Relation) -> list[Relation]:
    """Menu relations that can share a set with `wide` (or2 or nand2)."""
    pool = []
    for rel in SMALL_RELATIONS:
        if rel.arity == 1:
            continue
        try:
            or_fragment_side(RelationSet((rel, wide)))
        except FragmentMismatchError:
            continue
        pool.append(rel)
    return pool


FRAGMENT_POOLS = {
    name: [rel for rel in SMALL_RELATIONS if rel.arity > 1 and in_pol(clone, rel)]
    for name, clone in (("2sat", "D2"), ("horn", "E2"), ("antihorn", "V2"))
}
FRAGMENT_POOLS["or"] = _menu_pool(or_relation(2))
FRAGMENT_POOLS["nand"] = _menu_pool(nand_relation(2))


@st.composite
def fragment_sets(draw):
    """(pool name, relation set) with 1-3 relations from one pool."""
    name = draw(st.sampled_from(sorted(FRAGMENT_POOLS)))
    rels = draw(st.lists(st.sampled_from(FRAGMENT_POOLS[name]), min_size=1, max_size=3))
    return name, RelationSet(tuple(rels))


FRAGMENT_SOLVERS = {
    "2sat": solve_2sat,
    "horn": solve_horn,
    "antihorn": solve_antihorn,
    "or": solve_or_fragment,
    "nand": solve_or_fragment,
}


@st.composite
def fragment_instances(draw):
    """(pool name, instance) with 1 to min(3n, N) constraints at 2 <= n <= 6."""
    name, sset = draw(fragment_sets())
    inst = CspInstance(sset, draw(st.integers(2, 6)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    picked = rng.sample(range(inst.size), draw(st.integers(1, min(3 * inst.n, inst.size))))
    return name, CspInstance(sset, inst.n, sum(1 << j for j in picked))


@settings(PROPERTY, max_examples=400)
@given(fragment_instances())
def test_fragment_solvers_match_brute_force(drawn):
    name, inst = drawn
    assert FRAGMENT_SOLVERS[name](inst) == satisfiable_brute(inst)


@st.composite
def view_bits(draw):
    """(pool name, sset, n, bits): a few bits of a Horn or 2-SAT set with a
    ternary relation, at n <= 6 (N <= 648, dense table) or n >= 17 (N >= 4,913,
    lazy), on variables drawn so that they often repeat."""
    name = draw(st.sampled_from(("horn", "2sat")))
    pool = FRAGMENT_POOLS[name]
    rels = draw(st.lists(st.sampled_from(pool), max_size=2))
    rels.append(draw(st.sampled_from([rel for rel in pool if rel.arity == 3])))
    sset = RelationSet(tuple(rels))
    n = draw(st.one_of(st.integers(1, 6), st.integers(17, 40)))
    inst = CspInstance(sset, n)
    var = st.one_of(st.sampled_from((0, n - 1)), st.integers(0, n - 1))
    app = st.tuples(st.integers(0, len(sset) - 1), st.tuples(var, var, var))
    apps = draw(st.lists(app, min_size=1, max_size=8))
    return name, sset, n, [inst.encode(r, vs[: sset[r].arity]) for r, vs in apps]


def _mask(variables):
    return sum(1 << v for v in variables)


@PROPERTY
@given(view_bits())
def test_solver_views_hold_the_clauses_of_each_bit(drawn):
    name, sset, n, bits = drawn
    inst = CspInstance(sset, n)
    table = fragment_table(sset, n, "E2" if name == "horn" else "D2")
    assert isinstance(table, tuple) == (inst.size <= csp._DENSE_TABLE_BITS)
    for j in bits:
        r, variables = inst.decode(j)
        got = clauses(sset[r], variables)
        if name == "horn":  # (body, head): at most one positive variable
            assert table[j] == tuple((_mask(neg), _mask(pos)) for pos, neg in got)
        elif ((), ()) in got:
            assert table[j] is None
        else:  # a | b gives ~a -> b and ~b -> a; a unit a gives ~a -> a
            lits = [{2 * v for v in pos} | {2 * v + 1 for v in neg} for pos, neg in got]
            want = {(a ^ 1, 1 << b) for ls in lits for a in ls for b in ls if a != b or len(ls) == 1}
            assert set(table[j]) == want


# Differential tests of the emitters at n = 2, with the fragment forced, over
# the relation pools of the solver tests.

EMITTER_FOR_POOL = {
    "2sat": "2sat",
    "horn": "horn",
    "antihorn": "antihorn",
    "or": "or_fragment",
    "nand": "or_fragment",
}


@PROPERTY
@given(fragment_sets(), st.integers(0, 2**32))
def test_emitters_match_violation_masks(drawn, seed):
    name, sset = drawn
    circuit = emit_monotone_csp_circuit(sset, 2, EMITTER_FOR_POOL[name])
    assert measures(circuit).monotone
    rng = random.Random(seed)
    masks = [rng.getrandbits(circuit.n) & rng.getrandbits(circuit.n) for _ in range(40)]
    masks += [0, (1 << circuit.n) - 1]
    viol = violation_masks(CspInstance(sset, 2))
    for w in masks:
        assert (evaluate(circuit, w) & 1) == (not any(w & v == 0 for v in viol))
