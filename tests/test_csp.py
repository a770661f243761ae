"""Instance encoding, brute-force oracles, fragment solvers, generators."""

import random
import zlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from postlab.boolfun import (
    EQ2,
    UNIT_FALSE,
    UNIT_TRUE,
    Relation,
    RelationSet,
    or_relation,
)
from postlab.csp import (
    CspInstance,
    XorSystem,
    ahornt_set,
    csp_sat_value,
    eval_constraint,
    hornt_set,
    make_hornsat,
    make_random,
    make_tseitin,
    make_xorsat,
    monotonicity_check,
    nand_fragment_set,
    or_fragment_set,
    pick_solver,
    satisfiable_brute,
    solve_2sat,
    solve_antihorn,
    solve_horn,
    solve_or_fragment,
    solve_xor,
    twosat_set,
    xor3_set,
)
from postlab.errors import BudgetExceededError, FragmentMismatchError, RelationParseError
from postlab.graphlab import Graph, enumerate_graphs, odd_factor_fast


def test_instance_sizes():
    assert make_xorsat(4).size == 2 * 4**3
    assert make_hornsat(4).size == 2 * 4**3 + 4
    assert make_xorsat(1).size == 2


def test_encode_decode_bijection():
    catalog = (xor3_set(), hornt_set(), ahornt_set(), twosat_set(), or_fragment_set(), nand_fragment_set())
    for n in (1, 2, 3, 6):
        for sset in catalog:
            inst = CspInstance(sset, n, 0)
            for j in range(inst.size):
                r, variables = inst.decode(j)
                assert inst.encode(r, variables) == j


def test_decode_out_of_range():
    inst = make_xorsat(2)
    with pytest.raises(IndexError):
        inst.decode(inst.size)


def test_eval_constraint_examples():
    s = RelationSet((or_relation(2),), "or2")
    inst = CspInstance(s, 2, 0)
    j = inst.encode(0, (0, 1))
    assert eval_constraint(inst, j, 0b01) is True   # x0 = 1 satisfies the clause
    assert eval_constraint(inst, j, 0b00) is False
    x = make_xorsat(2)
    j = x.encode(1, (0, 0, 0))
    assert eval_constraint(x, j, 0b01) is True      # 1 xor 1 xor 1 = 1
    # repeated variables act through the projected tuple: x = x always holds
    e = CspInstance(RelationSet((EQ2,), "eq"), 2, 0)
    assert eval_constraint(e, e.encode(0, (0, 0)), 0b10) is True


def test_csp_sat_value_basics():
    assert csp_sat_value(make_xorsat(2)) is False  # empty formula is satisfiable
    units = RelationSet((UNIT_TRUE, UNIT_FALSE), "units")
    inst = CspInstance(units, 1, 0).with_constraint(0, (0,)).with_constraint(1, (0,))
    assert csp_sat_value(inst) is True
    tri = make_tseitin(Graph.complete(3))
    assert csp_sat_value(tri) is True


def test_brute_force_budget():
    inst = CspInstance(xor3_set(), 23, 0)
    with pytest.raises(BudgetExceededError):
        satisfiable_brute(inst)


def test_solve_xor_examples():
    assert solve_xor(XorSystem(2, ((0b11, 1), (0b11, 0)))) is False
    assert solve_xor(XorSystem(3, ((0b111, 1),))) is True


def test_solve_xor_rejects_non_affine():
    inst = CspInstance(RelationSet((or_relation(2),), "or2"), 2, 1)
    with pytest.raises(FragmentMismatchError):
        solve_xor(inst)


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
    xinst = make_random(xor3_set(), 3, 0.2, seed=1)
    with pytest.raises(FragmentMismatchError):
        solve_horn(xinst)
    with pytest.raises(FragmentMismatchError):
        solve_2sat(xinst)
    with pytest.raises(FragmentMismatchError):
        solve_or_fragment(xinst)


SOLVER_CONFIGS = [
    (xor3_set, solve_xor),
    (hornt_set, solve_horn),
    (ahornt_set, solve_antihorn),
    (twosat_set, solve_2sat),
    (lambda: or_fragment_set(3), solve_or_fragment),
    (lambda: nand_fragment_set(3), solve_or_fragment),
]


@pytest.mark.parametrize("set_fn,solver", SOLVER_CONFIGS)
def test_solver_agrees_with_brute_force(set_fn, solver):
    sset = set_fn()
    rng = random.Random(zlib.crc32(sset.name.encode()))
    for trial in range(200):
        n = rng.randrange(2, 9)
        inst = make_random(sset, n, rng.choice([0.02, 0.05, 0.15]), seed=trial)
        assert solver(inst) == satisfiable_brute(inst), (sset.name, n, hex(inst.bits))


def test_solvers_handle_repeated_variables():
    s = twosat_set()
    # NAND(x0, x0) forces x0 = 0; OR(x0, x0) forces x0 = 1
    inst = CspInstance(s, 1, 0).with_constraint(2, (0, 0)).with_constraint(0, (0, 0))
    assert solve_2sat(inst) is False
    assert satisfiable_brute(inst) is False


def test_monotonicity_exhaustive_and_decoy():
    assert monotonicity_check(RelationSet((or_relation(2),), "or2"), 2) is True
    assert monotonicity_check(xor3_set(), 2, samples=500) is True
    units = RelationSet((UNIT_TRUE, UNIT_FALSE), "units")

    def decoy(bits: int) -> bool:
        # satisfiability is antitone in the constraint bits, never monotone
        return not csp_sat_value(CspInstance(units, 2, bits))

    assert monotonicity_check(units, 2, fn=decoy) is False


def test_make_tseitin_against_components():
    for v in range(1, 5):
        for g in enumerate_graphs(v):
            inst = make_tseitin(g)
            assert solve_xor(inst) == odd_factor_fast(g), sorted(g.edges)


def test_make_tseitin_chain_flag():
    with pytest.raises(FragmentMismatchError):
        make_tseitin(Graph.complete(3), allow_chains=False)
    # all degrees 1 or 3 need no chains
    assert solve_xor(make_tseitin(Graph.complete(4), allow_chains=False)) is True


def test_make_random_deterministic():
    a = make_random(xor3_set(), 3, 0.2, seed=7)
    b = make_random(xor3_set(), 3, 0.2, seed=7)
    assert a == b
    # the sweeps' instances depend on these draws staying fixed
    assert make_random(hornt_set(), 3, 0.1, seed=3).bits == 0x2002200060


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
    obj = make_hornsat(2).to_json()  # N = 18 at n = 2
    obj.update(n=n, set_bits=set_bits)
    with pytest.raises(RelationParseError):
        CspInstance.from_json(obj)


def test_instance_json_roundtrip():
    inst = make_random(hornt_set(), 3, 0.1, seed=3)
    assert CspInstance.from_json(inst.to_json()) == inst
    listing = inst.listing()
    assert listing.count("\n") == inst.constraint_count()


def test_to_json_cost_follows_constraints_not_n():
    or3 = RelationSet((or_relation(3),), "or3")
    inst = CspInstance(or3, 1000).with_constraint(0, (1, 2, 3))  # N = 10**9
    assert inst.to_json()["set_bits"] == [1 + 2 * 1000 + 3 * 1000**2]


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
