"""Tests for truth-table functions, relations, preservation and closure."""

import hashlib
import itertools
import random
import time

import pytest

from postlab.boolfun import (
    AND2,
    CONST0,
    CONST1,
    EQ2,
    IMP2,
    MAJ3,
    MAX_TEXT_ARITY,
    OR2,
    UNIT_FALSE,
    UNIT_TRUE,
    XOR3,
    XOR3_0,
    XOR3_1,
    BoolFun,
    Relation,
    RelationSet,
    clause_relation,
    closure_up_to,
    nand_relation,
    negate_relation,
    negate_relations,
    or_relation,
    parity_relation,
    parse_relations,
    preserves,
    relation_from_json,
    relation_set_from_json,
    relation_set_to_json,
    violating_choice,
)
from postlab.circuit import input_pattern, substitute
from postlab.clone_lattice import CATALOG
from postlab.config import Budgets
from postlab.errors import BudgetExceededError

IDENTITY = BoolFun(1, 0b10)


def _projection(i, arity):
    return BoolFun(arity, input_pattern(i, arity))


def _pol(rels, a):
    """Every function of arity 1..a that preserves each of rels, sorted."""
    return [
        f
        for m in range(1, a + 1)
        for f in (BoolFun(m, t) for t in range(1 << (1 << m)))
        if all(preserves(f, rel) for rel in rels)
    ]


def _violating_choice_loop(f, rel):
    """The per-lane image loop: coordinate j of the image is f at the j-th
    coordinates of the chosen tuples."""
    for combo in itertools.product(rel.tuples(), repeat=f.arity):
        image = 0
        for j in range(rel.arity):
            idx = 0
            for i, t in enumerate(combo):
                idx |= ((t >> j) & 1) << i
            image |= ((f.table >> idx) & 1) << j
        if not (rel.mask >> image) & 1:
            return combo
    return None


def test_violating_choice_matches_the_lane_loop():
    funs = [BoolFun(a, t) for a in range(3) for t in range(1 << (1 << a))]
    funs += sorted({f for desc in CATALOG.values() for f in desc.basis if f.arity == 3})
    rels = [Relation(k, m) for k in (1, 2, 3) for m in range(1 << (1 << k))]
    assert len(rels) == 276
    for f in funs:
        for rel in rels:
            assert violating_choice(f, rel) == _violating_choice_loop(f, rel), (f, rel)


def brute_preserves(f, rel):
    """Independent oracle: literal quantifier over tuple choices."""
    tuples = [tuple((t >> j) & 1 for j in range(rel.arity)) for t in rel.tuples()]
    for choice in itertools.product(tuples, repeat=f.arity):
        image = tuple(f(*(choice[i][j] for i in range(f.arity))) for j in range(rel.arity))
        if image not in tuples:
            return False
    return True


def test_and_fails_even_parity():
    # tuples (0,1,1) and (1,0,1) map under AND to (0,0,1), which has odd parity
    assert preserves(AND2, XOR3_0) is False
    w = violating_choice(AND2, XOR3_0)
    assert w is not None


def test_violating_choice_tests_the_preserves_budget(monkeypatch):
    monkeypatch.setenv("POSTLAB_BUDGET", "preserves_combos=16")
    assert violating_choice(AND2, XOR3_0) is not None  # 4**2 = 16 tuple choices
    monkeypatch.setenv("POSTLAB_BUDGET", "preserves_combos=15")
    with pytest.raises(BudgetExceededError, match=r"^4\*\*2 tuple choices exceed preserves budget$"):
        violating_choice(AND2, XOR3_0)


def test_xor3_preserves_odd_parity():
    assert preserves(XOR3, XOR3_1) is True
    assert preserves(XOR3, XOR3_0) is True


def test_projections_preserve_everything():
    rng = random.Random(7)
    for _ in range(30):
        arity = rng.randrange(1, 4)
        rel = Relation(arity, rng.randrange(1 << (1 << arity)))
        for i in range(3):
            assert preserves(_projection(i, 3), rel) is True


def test_preserves_matches_brute_oracle():
    rng = random.Random(11)
    for _ in range(200):
        arity = rng.randrange(1, 4)
        rel = Relation(arity, rng.randrange(1, 1 << (1 << arity)))
        f_ar = rng.randrange(1, 4)
        f = BoolFun(f_ar, rng.randrange(1 << (1 << f_ar)))
        assert preserves(f, rel) == brute_preserves(f, rel)


def test_preserves_invariant_under_argument_permutation():
    rng = random.Random(13)
    for _ in range(60):
        rel = Relation(3, rng.randrange(1, 256))
        f = BoolFun(3, rng.randrange(256))
        perm = [0, 1, 2]
        rng.shuffle(perm)
        g = BoolFun.from_function(3, lambda *b: f(*(b[perm[i]] for i in range(3))))
        assert preserves(f, rel) == preserves(g, rel)


def test_preserves_set_constants():
    s_or = RelationSet((or_relation(2),))
    assert all(preserves(CONST1, rel) for rel in s_or)
    assert not all(preserves(CONST0, rel) for rel in s_or)


def test_majority_preserves_two_clause_relations():
    s = RelationSet((or_relation(2), nand_relation(2), clause_relation(2, [0], [1])))
    assert all(preserves(MAJ3, rel) for rel in s)


def test_empty_relation_preserved_vacuously():
    empty = Relation(2, 0)
    assert preserves(CONST0, empty) is True
    assert empty.is_degenerate


def test_polymorphisms_empty_set_is_everything():
    # no tuple choice exists, so every function preserves an empty relation
    assert len(_pol((Relation(1, 0), Relation(2, 0), Relation(3, 0)), 2)) == 4 + 16


def test_polymorphisms_of_both_parity_relations_at_arity_one():
    # Over all 4 unary functions: negation maps the even-parity tuple 000 to
    # 111, which has odd parity, so only the identity survives; both
    # constants fail one of the two relations.
    assert _pol((XOR3_0, XOR3_1), 1) == [IDENTITY]


def test_polymorphisms_of_equality_is_everything():
    assert len(_pol((EQ2,), 2)) == 4 + 16


def test_polymorphisms_include_projections():
    funs = _pol((XOR3_0, XOR3_1, IMP2), 2)
    for i in range(2):
        assert _projection(i, 2) in funs


def test_closure_of_and():
    cl = closure_up_to([AND2], 2)
    expected = {
        IDENTITY,
        _projection(0, 2),
        _projection(1, 2),
        AND2,
    }
    assert set(cl) == expected


def test_closure_of_empty_basis_is_projections():
    cl = closure_up_to([], 2)
    assert set(cl) == {IDENTITY, _projection(0, 2), _projection(1, 2)}


def test_closure_above_a_max_is_refused(monkeypatch):
    monkeypatch.delenv("POSTLAB_BUDGET", raising=False)
    with pytest.raises(BudgetExceededError, match=r"^arity 5 above a_max=4$"):
        closure_up_to([AND2], 5)


def test_closure_identification_yields_or():
    s00 = BoolFun.from_function(3, lambda x, y, z: x | (y & z))
    cl = closure_up_to([s00], 2)
    assert BoolFun(2, OR2.table) in cl


def test_polymorphism_set_is_closed():
    pol = _pol((IMP2,), 2)
    assert set(closure_up_to(pol, 2)) == set(pol)


def test_polymorphism_set_is_closed_arity_three():
    for rels in ((XOR3_0, XOR3_1), (EQ2, IMP2)):
        pol = _pol(rels, 3)
        assert set(closure_up_to(pol, 3)) == set(pol)


def _closure_loop(basis, a, closure_steps=Budgets().closure_steps):
    """closure_up_to as a per-tuple loop: one substitute call per operand
    tuple holding a table new in the last round.  Returns the sorted closure
    and the number of compositions it made."""
    gates = sorted(set((g.arity, g.table) for g in basis))
    out = set(BoolFun(ar, tb) for ar, tb in gates if ar <= a)
    steps = 0
    for m in range(1, a + 1):
        full = (1 << (1 << m)) - 1
        tables = set(input_pattern(i, m) for i in range(m))
        tables.update(tb for ar, tb in gates if ar == m)
        frontier = set(tables)
        while frontier:
            new = set()
            current = sorted(tables)
            for g_ar, g_tb in gates:
                for combo in itertools.product(current, repeat=g_ar):
                    if not any(t in frontier for t in combo):
                        continue
                    steps += 1
                    if steps > closure_steps:
                        raise BudgetExceededError("closure composition budget exceeded")
                    new.add(substitute(g_tb, combo, full))
            new -= tables
            tables.update(new)
            frontier = new
        out.update(BoolFun(m, t) for t in tables)
    return sorted(out), steps


def test_catalog_closures_match_the_loop_and_its_step_count(monkeypatch):
    smallest = {}
    for name, desc in CATALOG.items():
        for a in (1, 2, 3):
            expected, steps = _closure_loop(desc.basis, a)
            assert closure_up_to(desc.basis, a) == expected, (name, a)
        # the loop's count is the smallest closure_steps that lets a = 3 pass
        monkeypatch.setenv("POSTLAB_BUDGET", f"closure_steps={steps}")
        assert closure_up_to(desc.basis, 3) == expected
        if steps:  # the empty basis composes nothing
            monkeypatch.setenv("POSTLAB_BUDGET", f"closure_steps={steps - 1}")
            with pytest.raises(BudgetExceededError):
                closure_up_to(desc.basis, 3)
        monkeypatch.delenv("POSTLAB_BUDGET")
        smallest[name] = steps
    assert {n: smallest[n] for n in ("D", "S02", "M2", "L3")} == {
        "D": 4168, "S02": 6887, "M2": 682, "L3": 598
    }


def test_random_closures_match_the_loop(monkeypatch):
    rng = random.Random(14)
    monkeypatch.setenv("POSTLAB_BUDGET", "closure_steps=20000")
    raised = 0
    for _ in range(40):
        arities = [rng.randint(0, 3) for _ in range(rng.randint(0, 3))]
        basis = [BoolFun(ar, rng.randrange(1 << (1 << ar))) for ar in arities]
        try:
            expected = _closure_loop(basis, 3, 20_000)[0]
        except BudgetExceededError:
            raised += 1
            with pytest.raises(BudgetExceededError):
                closure_up_to(basis, 3)
            continue
        assert closure_up_to(basis, 3) == expected, basis
    assert 0 < raised < 40


# sha256 of "arity:table-in-hex" of closure_up_to(D1 basis, 4), as the
# per-tuple loop builds it (about 10 s, too slow to rerun here).
D1_CLOSURE4_SHA256 = "9263c785b98cf6a8c4a973b8ff5340e73d344b869260b2399fc927e544722790"


def test_arity_four_closures_match_the_loop():
    for name in ("D2", "E2", "I0", "I1", "I2", "L", "L0", "L1", "L2", "L3", "M2", "N2",
                 "S00", "S10", "V2"):
        basis = CATALOG[name].basis
        assert closure_up_to(basis, 4) == _closure_loop(basis, 4)[0], name
    text = " ".join(f"{f.arity}:{f.table:x}" for f in closure_up_to(CATALOG["D1"].basis, 4))
    assert hashlib.sha256(text.encode()).hexdigest() == D1_CLOSURE4_SHA256


def test_arity_four_budget_trips_before_packing():
    t0 = time.perf_counter()
    with pytest.raises(BudgetExceededError):
        closure_up_to(CATALOG["R2"].basis, 4)
    assert time.perf_counter() - t0 < 10.0  # the per-tuple loop took about 30 s


# Post's clone-defining properties, each as preservation of one relation:
# monotone of imp (x <= y), self-dual of xor2^1 (x != y), linear of xor4^0,
# 0- and 1-reproducing of F and T, 0-separating of degree k of or_k.
NEQ = parity_relation(2, 1)
LINEAR = parity_relation(4, 0)


def test_classify_xor3():
    for rel in (LINEAR, NEQ, UNIT_FALSE, UNIT_TRUE):
        assert preserves(XOR3, rel)
    assert not preserves(XOR3, IMP2)


def test_classify_const0():
    assert preserves(CONST0, LINEAR) and not preserves(CONST0, NEQ)
    assert preserves(CONST0, UNIT_FALSE) and not preserves(CONST0, UNIT_TRUE)


def test_classify_maj():
    assert preserves(MAJ3, IMP2) and preserves(MAJ3, NEQ) and not preserves(MAJ3, LINEAR)


def test_separating_degrees():
    # implication is 0-separating: every tuple mapped to 0 has coordinate 1 = 0
    imp = BoolFun.from_function(2, lambda x, y: (1 - x) | y)
    assert preserves(imp, or_relation(1))
    assert preserves(imp, or_relation(2))
    assert preserves(MAJ3, or_relation(2))
    assert not preserves(MAJ3, or_relation(3))


def test_relation_text_roundtrip():
    text = "rel xor3^0 3 : 000 011 101 110\nrel T 1 : 1\n"
    sset = parse_relations(text, "s")
    assert sset[0] == XOR3_0
    assert sset[1].mask == 0b10
    assert [r.name for r in sset] == ["xor3^0", "T"]
    back = relation_set_from_json(relation_set_to_json(sset))
    assert back == sset and [r.name for r in back] == ["xor3^0", "T"]


def test_relation_text_errors():
    from postlab.errors import RelationParseError

    with pytest.raises(RelationParseError):
        parse_relations("rel bad 2 001")
    with pytest.raises(RelationParseError):
        parse_relations("rel bad 9 : 000000000")
    with pytest.raises(RelationParseError):
        parse_relations("rel bad 2 : 021")


def test_relation_json_shares_the_text_arity_cap():
    from postlab.errors import RelationParseError

    # refused before Relation computes 1 << arity, an arity-bit integer
    for arity in (0, 7, 2 * 10**8):
        with pytest.raises(RelationParseError, match=f"arity must be in 1..6, got {arity}"):
            relation_from_json({"arity": arity, "tuples": []})
    assert relation_from_json({"arity": MAX_TEXT_ARITY, "tuples": []}).arity == MAX_TEXT_ARITY


def test_relation_hashes_ignore_names():
    a, b = Relation(2, 0b1011, "a"), Relation(2, 0b1011, "b")
    assert a == b and hash(a) == hash(b)
    assert hash(a) == hash((2, 0b1011))  # integers only: the same in every process
    # a set's name takes part in equality but not in the hash
    assert RelationSet((a,), "s") == RelationSet((b,), "s") != RelationSet((a,), "t")
    assert hash(RelationSet((a,), "s")) == hash(RelationSet((b,), "t"))


def test_negate_relation_complements_every_tuple():
    rng = random.Random(5)
    rels = [Relation(k, m) for k in (1, 2, 3) for m in range(1 << (1 << k))]
    rels += [Relation(k, rng.getrandbits(1 << k)) for k in (4, 5, 6) for _ in range(20)]
    for rel in rels:
        full = (1 << rel.arity) - 1
        assert negate_relation(rel).tuples() == tuple(sorted(t ^ full for t in rel.tuples()))


def test_negate_relations_keeps_relation_names():
    a = RelationSet((Relation(2, 0b1011, "a"),), "s")
    b = RelationSet((Relation(2, 0b1011, "b"),), "s")
    assert a == b
    # equal sets whose relations are named apart keep their own names
    assert [r.name for r in negate_relations(a)] == ["~a"]
    assert [r.name for r in negate_relations(b)] == ["~b"]
    assert negate_relations(a).name == "~s" and negate_relations(a)[0].mask == 0b1101
