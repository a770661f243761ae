"""Monotone reductions: structure and equi-satisfiability."""

import random

import pytest

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
)
from postlab.csp import (
    CspInstance,
    csp_sat_value,
    hornt_set,
    make_random,
    satisfiable_brute,
    xor3_set,
)
from postlab.errors import FragmentMismatchError
from postlab.graphlab import BipGraph, bip_odd_factor
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
    assert BitReduction.from_json(red.to_json()) == red
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
        inst = make_random(s, rng.randrange(2, 6), 0.12, seed=trial)
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
        inst = make_random(s, 4, 0.04, seed=trial)
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
        inst = make_random(s1, rng.randrange(2, 6), 0.1, seed=trial)
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
        inst = make_random(s1, rng.randrange(2, 5), 0.12, seed=trial)
        result = pol_reduce(inst, s2)
        assert result is not None
        assert csp_sat_value(inst) == csp_sat_value(result.instance)
        assert result.or_stage.in_len == inst.size
        assert all(d[0] in ("const", "input", "or") for d in result.or_stage.bits)


def test_pol_reduce_identity():
    inst = make_random(xor3_set(), 3, 0.05, seed=1)
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
        inst = make_random(xor3_set(), rng.randrange(2, 6), 0.06, seed=trial)
        out, red = l2_to_l3_transform(inst)
        assert out.n == inst.n + 1
        assert red.is_projection_only
        assert csp_sat_value(inst) == csp_sat_value(out)
    # the transformed relations are invariant under complementation
    out, _ = l2_to_l3_transform(make_random(xor3_set(), 3, 0.1, seed=0))
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


def test_bip_beta_projection_values():
    n = 2
    red = bip_oddfactor_to_xorsat(BipGraph(n, 0))
    for mask in range(1 << 4):
        beta = red.beta.apply(mask)
        alpha = red.alpha_bits(mask)
        assert beta & alpha == 0
        assert beta | alpha == (1 << red.instance.size) - 1
