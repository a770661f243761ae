"""Monotone reductions: structure and equi-satisfiability."""

import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from postlab import csp, reductions

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
from postlab.circuit import Builder
from postlab.construct import GraphPropertyCircuit, padded_graph_property
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
    CQDefinition,
    bip_oddfactor_to_xorsat,
    cq_rewrite,
    eliminate_equality,
    find_cq,
    l2_to_l3_transform,
    pol_reduce,
)


def test_bitreduction_apply_and_json():
    # output bit 0 is 1, bit 1 reads input 2, bit 2 is input 0 OR input 1
    red = BitReduction(4, 0b0001, (0b0100, 0b0100, 0b0010))
    assert red.in_len == 3
    assert red.apply(0b100) == 0b0011
    assert red.apply(0b001) == 0b0101
    assert red.to_json() == {
        "in_len": 3,
        "out_len": 4,
        "bits": [{"const": 1}, {"input": 2}, {"or": [0, 1]}, {"const": 0}],
    }
    assert not red.is_projection_only


def apply_per_bit(red: BitReduction, x: int) -> int:
    """The reference: one output bit at a time, from its JSON definition."""
    out = 0
    for j, d in enumerate(red.to_json()["bits"]):
        if "const" in d:
            bit = d["const"]
        elif "input" in d:
            bit = (x >> d["input"]) & 1
        else:
            bit = int(any((x >> i) & 1 for i in d["or"]))
        out |= bit << j
    return out


EQSET = RelationSet((EQ2, UNIT_TRUE, UNIT_FALSE), "eqset")
IMPSET = RelationSet((IMP2, UNIT_TRUE, UNIT_FALSE), "impset")
NE = RelationSet((parity_relation(2, 1),), "ne")


def layout_builds():
    """(label, the layout cache it fills, n -> the reduction it emits at n)."""
    eq_defs = {r: find_cq(EQSET[r], IMPSET) for r in range(len(EQSET))}
    ne_defs = {0: find_cq(NE[0], xor3_set())}
    return [
        ("l2-to-l3 xor3", reductions._selector_layout, lambda n: l2_to_l3_transform(CspInstance(xor3_set(), n))[1]),
        ("l2-to-l3 hornt", reductions._selector_layout, lambda n: l2_to_l3_transform(CspInstance(hornt_set(), n))[1]),
        ("cq eq->imp", reductions._cq_layout, lambda n: cq_rewrite(CspInstance(EQSET, n), eq_defs)[1]),
        ("cq ne->xor3", reductions._cq_layout, lambda n: cq_rewrite(CspInstance(NE, n), ne_defs)[1]),
        ("pol-reduce", reductions._cq_layout, lambda n: pol_reduce(CspInstance(EQSET, n), IMPSET).or_stage),
    ]


def any_edge() -> GraphPropertyCircuit:
    """The 3-vertex graph property "some edge is present"."""
    b = Builder(3)
    return GraphPropertyCircuit(3, b.build([b.or_([b.input(i) for i in range(3)])]), "edge")


def test_apply_matches_the_per_bit_loop():
    # const 0, const 1, input 3, or(0, 2), or(1, 2, 3), input 0
    made = BitReduction(6, 0b000010, (0b101000, 0b010000, 0b011000, 0b010100))
    reds = [("made", made), ("bip beta n=2", bip_oddfactor_to_xorsat(BipGraph(2, 0)).beta)]
    reds += [(f"padding big_n={big_n}", padded_graph_property(any_edge(), big_n)[1]) for big_n in (4, 6)]
    reds += [(f"{label} n={n}", build(n)) for label, _, build in layout_builds() for n in range(1, 4)]
    # EQ(x, y) and EQ(y, x) both write IMP(x, y), so that bit is an OR
    bits = [d for label, red in reds if "eq->imp" in label for d in red.to_json()["bits"]]
    assert any("or" in d for d in bits)
    rng = random.Random(11)
    for label, red in reds:
        full = (1 << red.in_len) - 1
        xs = [0, full, full | 1 << red.in_len, 1 << (red.in_len + 9) | 1]
        xs += [rng.getrandbits(red.in_len) for _ in range(20)]
        xs += [1 << rng.randrange(red.in_len) for _ in range(5)]
        for x in xs:
            assert red.apply(x) == apply_per_bit(red, x), (label, x)


def test_cached_layouts_keep_each_callers_names():
    a = RelationSet((Relation(3, 0x96, "a"),), "s")
    b = RelationSet((Relation(3, 0x96, "b"),), "s")
    for sset, want in ((a, "a'"), (b, "b'"), (a, "a'")):
        out, _ = l2_to_l3_transform(CspInstance(sset, 2, 1))
        assert out.sset.name == "s'" and out.sset[0].name == want
    over_a = RelationSet((Relation(3, 0x96, "a"), Relation(3, 0x69, "z")), "t")
    over_b = RelationSet((Relation(3, 0x96, "b"), Relation(3, 0x69, "y")), "t")
    for over in (over_a, over_b, over_a):
        out, _ = cq_rewrite(CspInstance(a, 2, 1), {0: find_cq(a[0], over)})
        assert out.sset is over


def test_a_fresh_layout_equals_the_cached_one():
    for label, layout, build in layout_builds():
        for n in range(1, 6):
            cached = build(n)
            assert build(n) is cached, (label, n)
            layout.cache_clear()
            fresh = build(n)
            assert fresh is not cached and fresh == cached, (label, n)


def test_bitreduction_validation():
    # a negative mask, a mask bit at or above out_len, a constant-1 output
    # bit that an input is also ORed into
    for ones, targets, message in (
        (-1, (), "mask -0x1 is not within the 2 output bits"),
        (0, (0b01, -2), "mask -0x2 is not within the 2 output bits"),
        (0b100, (), "mask 0x4 is not within the 2 output bits"),
        (0, (0b01, 0b110), "mask 0x6 is not within the 2 output bits"),
        (0b10, (0b01, 0b11), "input bit 1 targets a constant-1 output bit"),
    ):
        with pytest.raises(ValueError) as info:
            BitReduction(2, ones, targets)
        assert str(info.value) == message
    assert BitReduction(2, 0b10, (0b01, 0, 0b01)).to_json()["bits"] == [{"or": [0, 2]}, {"const": 1}]
    assert BitReduction(0, 0, ()).apply(0b11) == 0


# sha256 of the JSON lines of each family's reductions: the `reduce` output
# format, taken at n = 1..4 (big_n = 4..7 for the padding embedding)
JSON_SHA256 = {
    "l2-to-l3 xor3": "5594eb7427e48663541c1866186fc4d6d78f8594abb36bfa1eb99c53d1a1c937",
    "l2-to-l3 hornt": "c3a63df55b180b1022b449a44301c539029c0ddda76ce714726ef99d171dce65",
    "cq eq->imp": "4d3160aec9c0b91defb9defd78b60c031b3cc70aa0633df1b5521d14d6344061",
    "cq ne->xor3": "b23f6b2bf181d9d0858b6cdeaee5b1877d99b50f01c497d5ffd1c5f3cd807c17",
    "pol-reduce": "1cec62a55d0ac3d687cde35794ba0195973cf99ad9d4c15a6ca6012bebd61506",
    "bip beta": "907a8a3f4b24a17fa6bf538e05c591aa2b2c2a2b042dea9574c599bee3627df3",
    "padding": "70e1f9c2fda1d9beafc30fd3f8b37d7d14b40d6cca4ded051772264fbd5e3944",
}


@pytest.fixture(scope="module")
def pinned_reductions() -> dict[str, list[BitReduction]]:
    reds = {label: [build(n) for n in range(1, 5)] for label, _, build in layout_builds()}
    reds["bip beta"] = [bip_oddfactor_to_xorsat(BipGraph(n, 0)).beta for n in range(1, 5)]
    reds["padding"] = [padded_graph_property(any_edge(), big_n)[1] for big_n in range(4, 8)]
    return reds


def test_reduction_json_is_pinned(pinned_reductions):
    got = {}
    for label, reds in pinned_reductions.items():
        h = hashlib.sha256()
        for red in reds:
            h.update(json.dumps(red.to_json(), sort_keys=True).encode() + b"\n")
        got[label] = h.hexdigest()
    assert got == JSON_SHA256


def test_projection_only_means_no_or_bit(pinned_reductions):
    seen = set()
    for label, reds in pinned_reductions.items():
        for red in reds:
            has_or = any("or" in d for d in red.to_json()["bits"])
            assert red.is_projection_only is not has_or, label
            seen.add(has_or)
    assert seen == {False, True}


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


def test_eliminate_equality_generates_over_whole_classes():
    # some trials lay an equality path through all n variables, so a class
    # can be n - 1 equalities across
    rng = random.Random(28)
    s = RelationSet((EQ2, IMP2, UNIT_TRUE), "eq_imp_t")
    for trial in range(200):
        n = rng.randrange(2, 9)
        inst = random_instance(s, n, rng.choice((0.03, 0.1)), rng)
        if trial % 2:
            path = rng.sample(range(n), n)
            for a, b in zip(path, path[1:]):
                inst = inst.with_constraint(0, (a, b) if rng.random() < 0.5 else (b, a))
        # the reference classes: each variable takes the least label of its
        # equality neighbours until no label changes
        label = list(range(n))
        eqs = [variables for r, variables in inst.iter_constraints() if r == 0]
        changed = True
        while changed:
            changed = False
            for a, b in eqs:
                if label[a] != label[b]:
                    label[a] = label[b] = min(label[a], label[b])
                    changed = True
        out = eliminate_equality(inst)
        want = 0
        for r, variables in inst.iter_constraints():
            if r:
                pools = [[u for u in range(n) if label[u] == label[v]] for v in variables]
                for generated in itertools.product(*pools):
                    want |= 1 << out.encode(r - 1, generated)
        assert out.bits == want, (trial, n, hex(inst.bits))


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
        kinds = {kind for d in red.to_json()["bits"] for kind in d}
        assert kinds <= {"const", "input", "or"}


def test_cq_rewrite_rejects_invalid_definitions():
    # checked before any layout is built, in this order; a cached layout
    # never stands in for an exception, so each row raises on every call
    good = {r: find_cq(EQSET[r], IMPSET) for r in range(len(EQSET))}
    other = RelationSet((IMP2, UNIT_TRUE), "other")
    rows = [
        ({}, ValueError, "no definitions supplied"),
        ({0: good[0], 1: good[1]}, FragmentMismatchError, "missing definition for relation 2"),
        (
            {**good, 1: CQDefinition(UNIT_FALSE, IMPSET, 0, ((2, (0,)),))},
            ValueError,
            "definition 1 does not define its relation",
        ),
        (
            {**good, 1: CQDefinition(UNIT_TRUE, other, 0, ((1, (0,)),))},
            ValueError,
            "definitions target different relation sets",
        ),
        # the first definition fixes the target set, even under a key that
        # names no relation
        (
            {5: CQDefinition(EQ2, other, 0, ()), **good},
            ValueError,
            "definitions target different relation sets",
        ),
        (
            {**good, 1: CQDefinition(UNIT_TRUE, IMPSET, 0, ((2, (0,)),))},
            ValueError,
            "definition 1 fails its semantics check",
        ),
    ]
    inst = random_instance(EQSET, 3, 0.2, random.Random(1))
    for defs, error, message in rows:
        for _ in range(2):
            with pytest.raises(error) as info:
                cq_rewrite(inst, defs)
            assert type(info.value) is error and str(info.value) == message
            cq_rewrite(inst, good)


def test_cq_rewrite_checks_each_definitions_semantics_once(monkeypatch):
    defs = {r: find_cq(EQSET[r], IMPSET) for r in range(len(EQSET))}
    calls = []
    real = CQDefinition.defined_relation

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(CQDefinition, "defined_relation", counting)
    for trial in range(5):
        cq_rewrite(random_instance(EQSET, 3, 0.2, random.Random(trial)), defs)
    assert sorted(map(id, calls)) == sorted(map(id, defs.values()))
    # a failing definition is cached as failing, not re-evaluated
    bad = CQDefinition(UNIT_TRUE, IMPSET, 0, ((2, (0,)),))
    assert [bad.semantics_ok() for _ in range(3)] == [False] * 3
    assert calls.count(bad) == 1


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
        kinds = {kind for d in result.or_stage.to_json()["bits"] for kind in d}
        assert kinds <= {"const", "input", "or"}


def test_pol_reduce_returns_none_when_no_query_defines_a_relation():
    # x != y is no conjunctive query over {imp, T, F, =}: AND preserves all
    # four, and AND(01, 10) = 00 violates !=
    ne_set = RelationSet((parity_relation(2, 1),), "ne")
    inst = CspInstance(ne_set, 2).with_constraint(0, (0, 1))
    assert pol_reduce(inst, RelationSet((IMP2, UNIT_TRUE, UNIT_FALSE), "impset")) is None


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
        words = red.verdict_words
        for mask in range(0, 1 << (n * n), step):
            assert red.dual_of_xorsat(mask) == csp.solve_xor(red.instance_for(mask)), (n, mask)
        # no call changes the words: the diagonal and the antidiagonal each
        # have a perfect matching, but their zeroing rows together do not
        full = (1 << n * n) - 1
        eye = sum(1 << (i * n + i) for i in range(n))
        anti = sum(1 << (i * n + n - 1 - i) for i in range(n))
        got = [red.dual_of_xorsat(m) for m in (0, full, 0, eye, anti)]
        assert got == [False, True, False, True, True]
        assert red.verdict_words == words


def _always_basis(red) -> dict[int, tuple[int, int]]:
    """The echelon basis of the Tseitin rows of K_{n,n}, reduced here."""
    always = CspInstance(red.instance.sset, red.instance.n, red.always_bits)
    pivots: dict[int, tuple[int, int]] = {}
    assert csp.gf2_reduce(pivots, csp.instance_to_xor_system(always).rows) is True
    return pivots


def _zeroing_rows(red) -> list[tuple[tuple[int, int], ...]]:
    """Per cell c, the parity rows of its zeroing application x_c = 0."""
    inst = red.instance
    return [
        csp.instance_to_xor_system(CspInstance(inst.sset, inst.n, 1 << inst.encode(0, (c,) * 3))).rows
        for c in range(red.n * red.n)
    ]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_dual_of_xorsat_equals_elimination_against_the_full_basis(n):
    # the reference: a copy of K_{n,n}'s basis extended by the raw zeroing
    # rows of every missing cell
    red = bip_oddfactor_to_xorsat(BipGraph(n, 0))
    basis, zeroing = _always_basis(red), _zeroing_rows(red)
    for mask in range(1 << (n * n)):
        rows = [row for c in range(n * n) if not (mask >> c) & 1 for row in zeroing[c]]
        assert red.dual_of_xorsat(mask) == csp.gf2_reduce(dict(basis), rows), mask


def test_dual_of_xorsat_verdicts_at_n4_are_pinned():
    red = bip_oddfactor_to_xorsat(BipGraph(4, 0))
    verdicts = bytes(red.dual_of_xorsat(m) for m in range(1 << 16))
    assert sum(verdicts) == 40447
    digest = hashlib.sha256(verdicts).hexdigest()
    assert digest == "6981746b7d5387aa9407ef0bd49a350c8e2145e59891c0dcc88ce695c737c5f0"


def _full_reduce(row: tuple[int, int], pivots: dict[int, tuple[int, int]]) -> tuple[int, int]:
    mask, rhs = row
    at_pivots = sum(1 << top for top in pivots)
    while mask & at_pivots:
        top = (mask & at_pivots).bit_length() - 1
        mask, rhs = mask ^ pivots[top][0], rhs ^ pivots[top][1]
    return mask, rhs


@pytest.mark.parametrize("n, rank", [(1, 1), (2, 7), (3, 17), (4, 31)])
def test_always_rows_reduce_to_a_consistent_basis(n, rank):
    # K_{n,n} has a perfect matching, so its Tseitin rows are consistent,
    # with one pivot per unit of their rank
    red = bip_oddfactor_to_xorsat(BipGraph(n, 0))
    always = CspInstance(red.instance.sset, red.instance.n, red.always_bits)
    rows = csp.instance_to_xor_system(always).rows
    pivots = _always_basis(red)
    assert len(pivots) == rank == _gf2_rank([mask for mask, _ in rows])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_verdict_words_hold_the_verdicts_of_the_missing_cell_forms(n):
    red = bip_oddfactor_to_xorsat(BipGraph(n, 0))
    k = n * (n // 2)
    assert len(red.verdict_words) == 1 << (n * n - k)
    assert all(0 <= word < 1 << (1 << k) for word in red.verdict_words)
    pivots = _always_basis(red)
    forms = [_full_reduce(rows[0], pivots) for rows in _zeroing_rows(red)]
    for mask in range(0, 1 << (n * n), 1 if n <= 3 else 7):
        high, low = mask >> k, mask & ((1 << k) - 1)
        missing = [forms[c] for c in range(n * n) if not (mask >> c) & 1]
        assert (red.verdict_words[high] >> low) & 1 == csp.gf2_satisfiable(missing), (n, mask)


def _gf2_rank(masks: list[int]) -> int:
    rank = 0
    for bit in reversed(range(max(masks, default=0).bit_length())):
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
