"""Monotone reductions: structure and equi-satisfiability."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from postlab import csp

from postlab.boolfun import (
    EQ2,
    IMP2,
    UNIT_FALSE,
    UNIT_TRUE,
    RelationSet,
    nand_relation,
    negate_relations,
    or_relation,
    parity_relation,
    preserves,
    NEGATION,
    Relation,
)
from postlab.csp import (
    CspInstance,
    csp_sat_value,
    hornt_set,
    random_instance,
    satisfiable_brute,
    twosat_set,
    xor3_set,
    xor_system_to_instance,
)
from postlab.errors import FragmentMismatchError
from postlab.graphlab import BipGraph, Graph, bip_odd_factor, tseitin_system
from postlab.reductions import (
    BitReduction,
    bip_oddfactor_to_xorsat,
    cq_rewrite,
    eliminate_equality,
    find_cq,
    l2_to_l3_transform,
    pol_reduce,
)


def test_bitreduction_apply_and_json():
    red = BitReduction(3, 4, (("const", 1), ("input", 2), ("or", (0, 1)), ("const", 0)))
    assert red.apply(0b100) == 0b0011
    assert red.apply(0b001) == 0b0101
    assert red.to_json() == {
        "in_len": 3,
        "out_len": 4,
        "bits": [{"const": 1}, {"input": 2}, {"or": [0, 1]}, {"const": 0}],
    }
    assert not red.is_projection_only


def test_bitreduction_validation():
    with pytest.raises(ValueError):
        BitReduction(2, 1, (("input", 5),))
    with pytest.raises(ValueError):
        BitReduction(2, 1, (("or", ()),))


def test_eliminate_equality_generates_reachable_applications():
    s = RelationSet((EQ2, IMP2), "eq_imp")
    inst = CspInstance(s, 3, 0).with_constraint(0, (0, 1)).with_constraint(1, (1, 2))
    out = eliminate_equality(inst)
    got = set(out.iter_constraints())
    assert (0, (0, 2)) in got and (0, (1, 2)) in got
    assert all(not r == EQ2 for r in out.sset)


def test_eliminate_equality_without_equalities_is_restriction():
    s = RelationSet((EQ2, IMP2), "eq_imp")
    inst = CspInstance(s, 3, 0).with_constraint(1, (0, 2))
    out = eliminate_equality(inst)
    assert list(out.iter_constraints()) == [(0, (0, 2))]


def test_eliminate_equality_preserves_value():
    rng = random.Random(2)
    s = RelationSet((EQ2, or_relation(2), UNIT_FALSE), "mix")
    for trial in range(120):
        inst = random_instance(s, rng.randrange(2, 6), 0.12, random.Random(trial))
        out = eliminate_equality(inst)
        assert csp_sat_value(inst) == csp_sat_value(out)
        assert monotone_map_spot_check(inst, out)


def monotone_map_spot_check(inst, out) -> bool:
    # raising input bits can only raise output bits
    rng = random.Random(inst.bits & 0xFFFF)
    for _ in range(5):
        extra = rng.getrandbits(inst.size)
        bigger = eliminate_equality(
            CspInstance(inst.sset, inst.n, inst.bits | extra)
        )
        if bigger.bits & out.bits != out.bits:
            return False
    return True


def test_find_cq_identity_and_chain():
    d = find_cq(XOR_SET[0], XOR_SET_RS)
    assert d.aux_count == 0 and len(d.atoms) == 1
    x4 = parity_relation(4, 0)
    d4 = find_cq(x4, XOR_SET_RS)
    assert d4 is not None and d4.semantics_ok() and d4.aux_count == 1


XOR_SET_RS = xor3_set()
XOR_SET = tuple(XOR_SET_RS)


def test_find_cq_not_found():
    # OR relations cannot define inequality: their queries are upward closed
    d = find_cq(parity_relation(2, 1), RelationSet((or_relation(2),), "or2"))
    assert d is None


def test_cq_rewrite_identity_defs():
    s = hornt_set()
    defs = {r: find_cq(s[r], s) for r in range(len(s))}
    rng = random.Random(5)
    for trial in range(100):
        inst = random_instance(s, 4, 0.04, random.Random(trial))
        out, red = cq_rewrite(inst, defs)
        assert out.bits == inst.bits and out.n == inst.n
        assert red.apply(inst.bits) == out.bits
        assert csp_sat_value(inst) == csp_sat_value(out)


def test_cq_rewrite_equality_to_implication():
    s1 = RelationSet((EQ2, UNIT_TRUE, UNIT_FALSE), "eqset")
    s2 = RelationSet((IMP2, UNIT_TRUE, UNIT_FALSE), "impset")
    defs = {r: find_cq(s1[r], s2) for r in range(len(s1))}
    rng = random.Random(6)
    for trial in range(120):
        inst = random_instance(s1, rng.randrange(2, 6), 0.1, random.Random(trial))
        out, red = cq_rewrite(inst, defs)
        assert csp_sat_value(inst) == csp_sat_value(out)
        kinds = {d[0] for d in red.bits}
        assert kinds <= {"const", "input", "or"}


def test_cq_rewrite_missing_definition():
    s = hornt_set()
    with pytest.raises(FragmentMismatchError):
        cq_rewrite(CspInstance(s, 2, 0), {0: find_cq(s[0], s)})


def test_pol_reduce_chain():
    s1 = RelationSet((EQ2, UNIT_TRUE, UNIT_FALSE), "eqset")
    s2 = RelationSet((IMP2, UNIT_TRUE, UNIT_FALSE), "impset")
    rng = random.Random(7)
    for trial in range(60):
        inst = random_instance(s1, rng.randrange(2, 5), 0.12, random.Random(trial))
        result = pol_reduce(inst, s2)
        assert result is not None
        assert csp_sat_value(inst) == csp_sat_value(result.instance)
        assert result.or_stage.in_len == inst.size
        assert all(d[0] in ("const", "input", "or") for d in result.or_stage.bits)


def test_pol_reduce_identity():
    inst = random_instance(xor3_set(), 3, 0.05, random.Random(1))
    result = pol_reduce(inst, xor3_set())
    assert result is not None
    assert csp_sat_value(inst) == csp_sat_value(result.instance)


def test_negate_relations():
    s = RelationSet((or_relation(2),), "or2")
    assert negate_relations(s)[0].mask == nand_relation(2).mask
    assert negate_relations(negate_relations(s))[0].mask == s[0].mask


def test_l2_to_l3_preserves_and_projects():
    rng = random.Random(8)
    for trial in range(120):
        inst = random_instance(xor3_set(), rng.randrange(2, 6), 0.06, random.Random(trial))
        out, red = l2_to_l3_transform(inst)
        assert out.n == inst.n + 1
        assert red.is_projection_only
        assert csp_sat_value(inst) == csp_sat_value(out)
    # the transformed relations are invariant under complementation
    out, _ = l2_to_l3_transform(random_instance(xor3_set(), 3, 0.1, random.Random(0)))
    assert all(preserves(NEGATION, r) for r in out.sset)


def test_bip_oddfactor_structure():
    red = bip_oddfactor_to_xorsat(BipGraph(3, 0b100010001))
    assert red.instance.n == 9 + 2 * 3 * 2
    assert red.beta.is_projection_only
    assert red.dual_of_xorsat(0b100010001) is True
    assert red.dual_of_xorsat(0) is False


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bip_oddfactor_duality_exhaustive(n):
    red = bip_oddfactor_to_xorsat(BipGraph(n, 0))
    for mask in range(1 << (n * n)):
        assert red.dual_of_xorsat(mask) == bip_odd_factor(BipGraph(n, mask))


def test_instance_for_set_bits_are_those_of_alpha():
    # the positions instance_for merges equal the walk of the mask it builds,
    # and alpha(M) is the Tseitin system of K_{n,n} plus x_c = 0 for each
    # missing cell c, built here cell by cell from the layout alone
    for n, step in ((1, 1), (2, 1), (3, 1), (4, 97)):
        red = bip_oddfactor_to_xorsat(BipGraph(n, 0))
        cells = [(i, n + j) for i in range(n) for j in range(n)]
        always = xor_system_to_instance(tseitin_system(Graph.from_edges(2 * n, cells))).bits
        for mask in range(0, 1 << (n * n), step):
            zeroed = [red.instance.encode(0, (c,) * 3) for c in range(n * n) if not (mask >> c) & 1]
            inst = red.instance_for(mask)
            assert inst.bits == red.alpha_bits(mask) == always | sum(1 << b for b in zeroed)
            assert inst._set_bit_tuple == tuple(csp._set_bits(inst.bits)), (n, mask)


def test_solving_instance_for_never_walks_its_mask(monkeypatch):
    red = bip_oddfactor_to_xorsat(BipGraph(4, 0))
    walked = []
    real = csp._set_bits

    def counting(mask):
        walked.append(mask)
        return real(mask)

    monkeypatch.setattr(csp, "_set_bits", counting)
    for mask in (0, 0x8421, 0xFFFF, 0x1234):
        inst = red.instance_for(mask)
        assert red.dual_of_xorsat(mask) == bip_odd_factor(BipGraph(4, mask))
        assert csp.solve_xor(inst) == bip_odd_factor(BipGraph(4, mask))
        assert inst.to_json()["set_bits"] == list(real(inst.bits))
    assert walked == []


def test_dual_of_xorsat_equals_the_instance_path():
    for n, step in ((1, 1), (2, 1), (3, 1), (4, 17)):
        red = bip_oddfactor_to_xorsat(BipGraph(n, 0))
        basis = dict(red.always_pivots)
        for mask in range(0, 1 << (n * n), step):
            assert red.dual_of_xorsat(mask) == csp.solve_xor(red.instance_for(mask)), (n, mask)
        # no call keeps rows in the basis: the diagonal and the antidiagonal
        # each have a perfect matching, but their zeroing rows together do not
        full = (1 << n * n) - 1
        eye = sum(1 << (i * n + i) for i in range(n))
        anti = sum(1 << (i * n + n - 1 - i) for i in range(n))
        got = [red.dual_of_xorsat(m) for m in (0, full, 0, eye, anti)]
        assert got == [False, True, False, True, True]
        assert dict(red.always_pivots) == basis


@pytest.mark.parametrize("n, rank", [(1, 1), (2, 7), (3, 17), (4, 31)])
def test_always_rows_reduce_to_a_consistent_basis(n, rank):
    # K_{n,n} has a perfect matching, so its Tseitin rows are consistent, and
    # the stored basis has one pivot per unit of their rank
    red = bip_oddfactor_to_xorsat(BipGraph(n, 0))
    always = CspInstance(red.instance.sset, red.instance.n, red.always_bits)
    rows = csp.instance_to_xor_system(always).rows
    pivots: dict[int, tuple[int, int]] = {}
    assert csp.gf2_reduce(pivots, rows) is True
    assert dict(red.always_pivots) == pivots
    assert len(pivots) == rank == _gf2_rank([mask for mask, _ in rows])


def _gf2_rank(masks: list[int]) -> int:
    rank = 0
    for bit in reversed(range(max(masks).bit_length())):
        pivot = next((m for m in masks if (m >> bit) & 1), None)
        if pivot is None:
            continue
        masks = [m ^ pivot if (m >> bit) & 1 else m for m in masks if m != pivot]
        rank += 1
    return rank


def test_bip_beta_projection_values():
    n = 2
    red = bip_oddfactor_to_xorsat(BipGraph(n, 0))
    for mask in range(1 << 4):
        beta = red.beta.apply(mask)
        alpha = red.alpha_bits(mask)
        assert beta & alpha == 0
        assert beta | alpha == (1 << red.instance.size) - 1


# Each reduction keeps CSP-SAT's value on generated instances.

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=50)


@st.composite
def relation_sets(draw, arities=(1, 2, 3), extra=()):
    ks = draw(st.lists(st.sampled_from(arities), min_size=1, max_size=3))
    return RelationSet(extra + tuple(Relation(k, draw(st.integers(0, (1 << (1 << k)) - 1))) for k in ks))


# odd 4-ary parity, whose query over xor3 has an auxiliary variable that is
# not forced to a constant (and no all-zero solution hides a shared one),
# next to parity relations that need none
AFFINE_SETS = st.lists(
    st.sampled_from([parity_relation(k, r) for k in (1, 3) for r in (0, 1)]), max_size=2
).map(lambda rest: RelationSet((parity_relation(4, 1), *rest)))


@st.composite
def instances(draw, sets, ns):
    sset = draw(sets)
    n = draw(st.sampled_from(ns))
    size = CspInstance(sset, n).size
    # dense masks are mostly unsatisfiable, so draw sparse ones too
    sparse = st.sets(st.integers(0, size - 1), max_size=6).map(lambda js: sum(1 << j for j in js))
    return CspInstance(sset, n, draw(st.one_of(sparse, st.integers(0, (1 << size) - 1))))


# (target set, source sets it defines, variable counts): every relation of
# arity at most 2 is a 2-CNF; each application of the 4-ary parity relation
# owns one auxiliary variable, so n = 2 gives 18 variables after the rewrite
# (n = 1 has no satisfiable odd 4-ary application)
CQ_CASES = {
    "2-cnf": (twosat_set(), relation_sets(arities=(1, 2)), range(1, 5)),
    "affine": (xor3_set(), AFFINE_SETS, (2,)),
}


@PROPERTY
@given(instances(relation_sets(extra=(EQ2,)), range(1, 6)))
def test_eliminate_equality_keeps_the_value(inst):
    assert csp_sat_value(eliminate_equality(inst)) == csp_sat_value(inst)


@pytest.mark.parametrize("case", sorted(CQ_CASES))
@PROPERTY
@given(data=st.data())
def test_cq_rewrite_keeps_the_value(case, data):
    target, sets, ns = CQ_CASES[case]
    inst = data.draw(instances(sets, ns))
    out, _ = cq_rewrite(inst, {r: find_cq(rel, target) for r, rel in enumerate(inst.sset)})
    assert csp_sat_value(out) == csp_sat_value(inst)


@pytest.mark.parametrize("case", sorted(CQ_CASES))
@PROPERTY
@given(data=st.data())
def test_pol_reduce_keeps_the_value(case, data):
    target, sets, ns = CQ_CASES[case]
    inst = data.draw(instances(sets, ns))
    result = pol_reduce(inst, target)
    assert result is not None
    assert csp_sat_value(result.instance) == csp_sat_value(inst)


@PROPERTY
@given(instances(relation_sets(), range(1, 5)))
def test_l2_to_l3_transform_keeps_the_value(inst):
    out, _ = l2_to_l3_transform(inst)
    assert csp_sat_value(out) == csp_sat_value(inst)


@PROPERTY
@given(instances(relation_sets(), range(1, 6)))
def test_negate_instance_keeps_the_value(inst):
    assert csp_sat_value(csp.negate_instance(inst)) == csp_sat_value(inst)
