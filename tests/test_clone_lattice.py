"""Clone catalog, containment checks, and dichotomy verdicts."""

import random

import pytest

from postlab.boolfun import (
    EQ2,
    IMP2,
    UNIT_FALSE,
    Relation,
    RelationSet,
    nand_relation,
    or_relation,
    preserves,
    BoolFun,
)
from postlab.clone_lattice import (
    CATALOG,
    can_express_equality,
    classify,
    clone_contained_in_pol,
    descriptor,
    hardness_consequences,
    in_pol,
    validate_catalog,
)
from postlab.config import Budgets
from postlab.csp import ahornt_set, hornt_set, xor3_set
from postlab.errors import UnknownCloneError


def test_catalog_validates():
    report = validate_catalog()
    assert report.ok, [f"{c.sub}<={c.sup}" for c in report.failures()]
    recorded = {(c.sub, c.sup) for c in report.checks}
    for pair in [("V2", "S00"), ("E2", "S10"), ("L2", "L3"), ("N2", "L3")]:
        assert pair in recorded
    for name in CATALOG:
        if name != "I2":
            assert ("I2", name) in recorded


def test_unknown_clone_label():
    with pytest.raises(UnknownCloneError):
        descriptor("Z9")


def test_e2_contained_in_pol_of_horn():
    ok, witness = clone_contained_in_pol("E2", hornt_set())
    assert ok
    assert all(w["preserved"] for w in witness)


def test_d2_not_in_pol_of_xor_with_witness():
    ok, witness = clone_contained_in_pol("D2", RelationSet((xor3_set()[0],)))
    assert not ok
    entry = next(w for w in witness if not w["preserved"])
    # replay: the violating tuples must map outside the relation
    f = BoolFun(entry["function"]["arity"], entry["function"]["table"])
    rel = xor3_set()[0]
    tuples = [int("".join(reversed(s)), 2) for s in entry["violating_tuples"]]
    image = 0
    for j in range(rel.arity):
        idx = 0
        for i, t in enumerate(tuples):
            idx |= ((t >> j) & 1) << i
        image |= ((f.table >> idx) & 1) << j
    assert not rel.member(image)


def test_classify_xor3_hard_both_sides():
    v = classify(xor3_set())
    assert v.size_side == "HARD" and v.depth_side == "HARD"
    assert not v.trivial
    assert "L2" in v.preserved and "L3" not in v.preserved


def test_classify_horn_easy_size_hard_depth():
    v = classify(hornt_set())
    assert v.size_side == "EASY" and v.depth_side == "HARD"
    assert "E2" in v.preserved


def test_classify_antihorn():
    v = classify(ahornt_set())
    assert v.size_side == "EASY" and v.depth_side == "HARD"
    assert "V2" in v.preserved


def test_classify_trivial_sides():
    v = classify(RelationSet((or_relation(2),), "or2"))
    assert v.trivial and v.trivial_via == "I1"
    assert v.size_side == "EASY" and v.depth_side == "EASY"
    w = classify(RelationSet((nand_relation(2),), "nand2"))
    assert w.trivial and w.trivial_via == "I0"


def test_degenerate_empty_relation_blocks_triviality():
    empty = Relation(2, 0, "empty")
    v = classify(RelationSet((empty, or_relation(2)), "mix"))
    assert v.degenerate and v.degenerate[0]["kind"] == "empty"
    assert not v.trivial
    assert v.size_side == "EASY"


def test_preserved_shrinks_when_relations_added():
    rng = random.Random(9)
    for _ in range(30):
        rels = []
        for _ in range(3):
            ar = rng.randrange(1, 3)
            rels.append(Relation(ar, rng.randrange(1, 1 << (1 << ar))))
        small = classify(RelationSet(tuple(rels[:2])))
        big = classify(RelationSet(tuple(rels)))
        assert set(big.preserved) <= set(small.preserved)


def test_witnesses_replay():
    v = classify(xor3_set(), with_witnesses=True)
    for label, data in v.witnesses.items():
        for entry in data["checks"]:
            f = BoolFun(entry["function"]["arity"], entry["function"]["table"])
            rel = xor3_set()[entry["relation"]]
            assert preserves(f, rel) == entry["preserved"]


def test_can_express_equality_yes():
    result = can_express_equality(RelationSet((IMP2,), "imp"))
    assert result.result == "YES"
    assert result.query.aux_count == 0
    assert result.query.semantics_ok()


def test_can_express_equality_identity():
    result = can_express_equality(RelationSet((EQ2,), "eq"))
    assert result.result == "YES"


def test_can_express_equality_no_for_or():
    result = can_express_equality(RelationSet((or_relation(2),), "or2"))
    assert result.result == "NO_WITHIN_BOUNDS"


def test_hardness_annotations():
    v = hardness_consequences(classify(xor3_set()))
    assert any("parity-L-hard" in note for note in v.hardness_notes)
    h = hardness_consequences(classify(hornt_set()))
    assert any("parity-L-hard" in note for note in h.hardness_notes)
    t = hardness_consequences(classify(RelationSet((or_relation(2),), "or2")))
    assert t.hardness_notes == ()


def test_equality_search_overflow_is_unknown():
    sset = RelationSet((or_relation(2), UNIT_FALSE), "or2_f")
    v = hardness_consequences(classify(sset), Budgets(cq_states=3))
    assert v.equality == "UNKNOWN"
    assert v.hardness_notes == ("equality expressibility undecided at budget",)


def test_in_pol_agrees_with_classify():
    for sset in (xor3_set(), hornt_set(), ahornt_set()):
        preserved = classify(sset).preserved
        for label in CATALOG:
            assert (label in preserved) == all(in_pol(label, rel) for rel in sset)


def test_verdict_json_roundtrip_fields():
    v = hardness_consequences(classify(xor3_set(), with_witnesses=True))
    obj = v.to_json()
    assert obj["size_side"] == "HARD"
    assert obj["preserved"] == list(v.preserved)
    assert "witnesses" in obj


def test_every_basis_function_has_small_arity():
    for desc in CATALOG.values():
        assert all(f.arity <= 3 for f in desc.basis)


def test_order_data_transitively_closed():
    for name, desc in CATALOG.items():
        for sub in desc.known_subclones:
            assert desc.known_subclones >= CATALOG[sub].known_subclones
