"""Clone catalog, containment checks, and dichotomy verdicts."""

import hashlib
import json
import random
from pathlib import Path

import pytest

from postlab import boolfun, clone_lattice
from postlab.boolfun import (
    EQ2,
    IMP2,
    OR2,
    UNIT_FALSE,
    UNIT_TRUE,
    Relation,
    RelationSet,
    nand_relation,
    or_relation,
    preserves,
    BoolFun,
    closure_up_to,
)
from postlab.circuit import substitute
from postlab.cli import main
from postlab.clone_lattice import (
    CATALOG,
    CLONE_BITS,
    DEPTH_EASY_CLONES,
    SIZE_EASY_CLONES,
    CloneDescriptor,
    _closure3,
    can_express_equality,
    classify,
    clone_contained_in_pol,
    descriptor,
    hardness_consequences,
    in_pol,
    pol_mask,
    validate_catalog,
)
from postlab.csp import TRACTABLE, ahornt_set, first_clone, hornt_set, pick_solver, xor3_set
from postlab.errors import BudgetExceededError, CatalogError, UnknownCloneError


def test_catalog_validates():
    report = validate_catalog()
    assert report.ok, [f"{c.sub}<={c.sup}" for c in report.failures()]
    recorded = {(c.sub, c.sup) for c in report.checks}
    for pair in [("V2", "S00"), ("E2", "S10"), ("L2", "L3"), ("N2", "L3"),
                 ("L3", "D"), ("S00", "M2"), ("S10", "M2")]:
        assert pair in recorded
    for name in CATALOG:
        if name != "I2":
            assert ("I2", name) in recorded
    assert len(report.checks) == 60


def test_catalog_validation_composes_one_round_per_call(monkeypatch):
    # per-tuple composition made 288,947 substitute calls here; the closure
    # makes one per gate, operand position and round
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return substitute(*args)

    monkeypatch.setattr(boolfun, "substitute", counting)
    _closure3.cache_clear()
    try:
        assert validate_catalog().ok
    finally:
        _closure3.cache_clear()
    assert 0 < calls <= 1000


# sha256 of "arity:table-in-hex" of each function of closure_up_to(basis, 3),
# space-separated in sorted order, as the per-lane composition loop built it.
CLOSURE3_SHA256 = {
    "D": "dd4a62774a8eab13fbf49dfc1d54811cb503404e55a3ea53335d36af33323634",
    "D1": "3054580dd72fc37f9d4afef898ec5e0e9e2ae236413a6b1c51610ea7754585bd",
    "D2": "fa30a83464a0cf8f72f6d3a1b39de9e24e690b7f21136533a528e16aaf8f3ecc",
    "E2": "7265f7c0030342f9dd0662b4f116d026414b28d6ecde19f7e6212a9e188934f1",
    "I0": "312e22dd7afdb1d111856cbf5c8357a9e103d7041253de27d36034dbbd7a126d",
    "I1": "248f42deaebfcbf4b430d20323b0152a97386774ae09da412e646ba4394ae9cd",
    "I2": "47d5993e552262c0b84f3820ba9ef03ef1d38127251bdfcfbe5f93abc2cd950d",
    "L": "9198e6cefc0e04ee2e885dba213d24757a7c6d1a40302879f3de993475ed44e4",
    "L0": "b9548726085335ca07ed40b28e74072c28863f77afc2ff585a1a0b8e4ea7cc70",
    "L1": "aa308be7186aab2ad788d0678e2bf8bb3996225c89f76117282d1427480a6bbd",
    "L2": "6dd9b22a0eee7a5fdd1da58fa2905469200b33421e0899c7867836ba3e6ce08a",
    "L3": "5950e196f3f5419e7149174cfc1f09c83163237ab7db6738a9635caa449e4df5",
    "M2": "54bd0c5054da7d165509bf3b3820d45d8a385b470551f105a3f1ba9f7c4712c0",
    "N2": "0d51c10d31360b55ea8c83f39f35c3e6c449f25fc123f8b66cf5fd8d91e42f9c",
    "R2": "12e5fe5fa08c80c2e9a521718a7954b10c5f31baf633fef9dcd22a290133200d",
    "S00": "d1b0ac84bfddb6362d1c4d73f5f582b66f07d308b390c5c3cb39aa28db135036",
    "S02": "ff2d034b76e79420d31c3add564ed4522c39902f979526259f0b2e41f8de8928",
    "S10": "d8536da778762330d6b8825dbf542e247f78d2c0653123ffecbc2aa326270d74",
    "S12": "340a2ee489ca02b355a591ea9391aa99d4a90db9c0031b59863ae735b0d00625",
    "V2": "c676bf9af35b1eabee6920610424e46d3fffdf2873d50afca9f6ad3fa11c1adc",
}


def test_arity3_closures_are_pinned():
    assert set(CLOSURE3_SHA256) == set(CATALOG)
    for name, desc in CATALOG.items():
        text = " ".join(f"{f.arity}:{f.table:x}" for f in closure_up_to(desc.basis, 3))
        assert hashlib.sha256(text.encode()).hexdigest() == CLOSURE3_SHA256[name], name


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
    assert not (rel.mask >> image) & 1


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


def test_witnesses_run_one_preservation_pass_per_entry(monkeypatch):
    calls = []

    def counted(f, rel, inner=boolfun.violating_choice):
        calls.append((f, rel))
        return inner(f, rel)

    monkeypatch.setattr(boolfun, "violating_choice", counted)
    monkeypatch.setattr(clone_lattice, "violating_choice", counted)
    for sset, entries in ((xor3_set(), 46), (hornt_set(), 69)):
        classify(sset)  # the Pol mask is cached from here on
        calls.clear()
        witnesses = classify(sset, with_witnesses=True).witnesses
        assert len(calls) == sum(len(w["checks"]) for w in witnesses.values()) == entries


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


def test_equality_query_found_is_l_hard():
    v = hardness_consequences(classify(RelationSet((EQ2, UNIT_TRUE, UNIT_FALSE))))
    assert v.equality == "YES"
    assert v.hardness_notes == ("L-hard under AC0 many-one reductions",)
    assert v.equality_query["atoms"] == [[0, [0, 1]]]  # eq(x0, x1) itself


def test_no_equality_query_is_a_depth3_candidate():
    v = hardness_consequences(classify(RelationSet((or_relation(2), UNIT_FALSE), "or2_f")))
    assert v.equality == "NO_WITHIN_BOUNDS" and v.equality_query is None
    assert v.hardness_notes == ("no equality query within bounds; depth-3 monotone AC0 candidate",)


def test_equality_search_overflow_is_unknown(monkeypatch):
    sset = RelationSet((or_relation(2), UNIT_FALSE), "or2_f")
    monkeypatch.setenv("POSTLAB_BUDGET", "cq_states=3")
    v = hardness_consequences(classify(sset))
    assert v.equality == "UNKNOWN"
    assert v.hardness_notes == ("equality expressibility undecided at budget",)


def test_in_pol_agrees_with_classify():
    for sset in (xor3_set(), hornt_set(), ahornt_set()):
        preserved = classify(sset).preserved
        for label in CATALOG:
            assert (label in preserved) == all(in_pol(label, rel) for rel in sset)


SMALL_RELATIONS = [Relation(k, m) for k in (1, 2, 3) for m in range(1 << (1 << k))]


def test_pol_bits_match_in_pol_on_every_small_relation():
    assert len(SMALL_RELATIONS) == 276 and len(CLONE_BITS) == 20
    for rel in SMALL_RELATIONS:
        bits = clone_lattice._pol_bits(rel)
        assert bits >> len(CLONE_BITS) == 0
        for label, bit in CLONE_BITS.items():
            assert bool(bits & bit) == in_pol(label, rel), (label, rel)
        assert pol_mask(RelationSet((rel,))) == bits


def test_pol_mask_readers_match_an_in_pol_loop_on_the_binary_sets():
    binary = [Relation(2, mask, f"b{mask}") for mask in range(16)]
    labels = [frozenset(c for c in CATALOG if in_pol(c, rel)) for rel in binary]
    menus = (SIZE_EASY_CLONES, DEPTH_EASY_CLONES + ("E2", "V2"), ("S00", "S10"))
    for subset in range(0, 1 << 16, 7):
        members = [i for i in range(16) if (subset >> i) & 1]
        sset = RelationSet(tuple(binary[i] for i in members))
        preserved = frozenset(CATALOG).intersection(*(labels[i] for i in members))
        assert classify(sset).preserved == tuple(sorted(preserved)), subset
        for menu in menus:
            # the reference loop: one in_pol verdict per (clone, relation)
            first = next((c for c in menu if all(c in labels[i] for i in members)), None)
            assert first_clone(sset, menu) == first, (subset, menu)
            if menu is SIZE_EASY_CLONES:
                label, solver = pick_solver(sset)  # every binary set is size-EASY
                assert (label, solver) == (f"{TRACTABLE[first][0]}({first})", TRACTABLE[first][1])


def _raises_budget(call) -> bool:
    try:
        call()
    except BudgetExceededError:
        return True
    return False


def test_a_cached_verdict_never_skips_the_preserves_budget(monkeypatch, clear_catalog_caches):
    sset = hornt_set()  # 7, 7 and 1 tuples
    calls = {
        "classify": lambda: classify(sset),
        "pick_solver": lambda: pick_solver(sset),
        "in_pol": lambda: in_pol("E2", sset[0]),
    }
    for call in calls.values():
        call()  # warm every cache at the default budgets
    monkeypatch.setenv("POSTLAB_BUDGET", "preserves_combos=1")
    for call in calls.values():
        with pytest.raises(BudgetExceededError, match=r"^7\*\*\d tuple choices exceed preserves budget$"):
            call()
    calls |= {
        f"in_pol({label}, {i})": (lambda label=label, rel=rel: in_pol(label, rel))
        for label in CATALOG
        for i, rel in enumerate(sset)
    }
    # a set-wide call tries 7**3 = 343 tuple choices per relation
    for limit, set_wide_raises in ((0, True), (1, True), (8, True), (343, False)):
        for name, call in calls.items():
            monkeypatch.delenv("POSTLAB_BUDGET", raising=False)
            call()  # warm, at the default budgets
            monkeypatch.setenv("POSTLAB_BUDGET", f"preserves_combos={limit}")
            warm = _raises_budget(call)
            clone_lattice._pol_bits.cache_clear()
            clone_lattice._pol_mask.cache_clear()
            assert _raises_budget(call) == warm, (limit, name)
            if name in ("classify", "pick_solver"):
                assert warm == set_wide_raises, (limit, name)


def test_verdict_json_roundtrip_fields():
    v = hardness_consequences(classify(xor3_set(), with_witnesses=True))
    obj = v.to_json()
    assert obj["size_side"] == "HARD"
    assert obj["preserved"] == list(v.preserved)
    assert "witnesses" in obj


# sha256 of json.dumps(..., sort_keys=True) over the to_json() of: classify on
# every 61st binary set; hardness_consequences on each ternary relation alone
# (with witnesses) and with T and with F (without); classify on the empty set,
# {empty}, {full} and {empty, full}
VERDICTS_SHA256 = "c98001f1898357bc05eaae9a21dd4e3df8a25de161b11705ed18d5ed06f89e06"


def test_verdicts_pinned():
    binary = [Relation(2, mask, f"b{mask}") for mask in range(16)]
    outs = [
        classify(RelationSet(tuple(binary[i] for i in range(16) if (s >> i) & 1))).to_json()
        for s in range(0, 1 << 16, 61)
    ]
    for mask in range(256):
        rel = Relation(3, mask, f"t{mask}")
        outs.append(hardness_consequences(classify(RelationSet((rel,), "one"), with_witnesses=True)).to_json())
        for unit in (UNIT_TRUE, UNIT_FALSE):
            outs.append(hardness_consequences(classify(RelationSet((rel, unit), "unit"))).to_json())
    empty, full = Relation(2, 0, "empty"), Relation(2, 15, "full")
    for rels in ((), (empty,), (full,), (empty, full)):
        outs.append(classify(RelationSet(rels, "degenerate")).to_json())
    assert hashlib.sha256(json.dumps(outs, sort_keys=True).encode()).hexdigest() == VERDICTS_SHA256


def test_every_basis_function_has_small_arity():
    for desc in CATALOG.values():
        assert all(f.arity <= 3 for f in desc.basis)


def test_order_data_transitively_closed():
    for name, desc in CATALOG.items():
        for sub in desc.known_subclones:
            assert desc.known_subclones >= CATALOG[sub].known_subclones


# The catalog's failure outcomes.  Each test starts and ends with empty
# caches, so no result computed from a broken catalog outlives it.

@pytest.fixture
def clear_catalog_caches():
    caches = (
        clone_lattice._closure3,
        clone_lattice.ensure_catalog_valid,
        clone_lattice._pol_bits,
        clone_lattice._pol_mask,
    )
    for c in caches:
        c.cache_clear()
    yield
    for c in caches:
        c.cache_clear()


def test_build_catalog_rejects_a_basis_above_arity_3(monkeypatch, clear_catalog_caches):
    wide = BoolFun.from_function(4, lambda a, b, c, d: a & b & c & d, "and4")
    monkeypatch.setitem(clone_lattice._BASES, "E2", (wide,))
    with pytest.raises(CatalogError, match="^basis of E2 has arity > 3$"):
        clone_lattice._build_catalog()


# direct edges I0 < I1 < N2 < E2 < V2 < L0: a chain deeper than any of the real order
LONG_CHAIN = tuple(zip(("I0", "I1", "N2", "E2", "V2"), ("I1", "N2", "E2", "V2", "L0")))


def _closure_of(edges) -> dict[str, set[str]]:
    """The reference order: below each clone, I2 (below every other) and its
    direct subclones, grown by their own until no set changes."""
    below = {
        name: {sub for sub, sup in edges if sup == name} | ({"I2"} if name != "I2" else set())
        for name in clone_lattice._BASES
    }
    changed = True
    while changed:
        changed = False
        for name, subs in below.items():
            grown = subs.union(*(below[sub] for sub in subs))
            changed |= grown != subs
            below[name] = grown
    return below


@pytest.mark.parametrize("edges", ["recorded", "long-chain"])
def test_build_catalog_closes_the_order(edges, monkeypatch, clear_catalog_caches):
    if edges == "long-chain":
        monkeypatch.setattr(clone_lattice, "_EDGES", LONG_CHAIN)
    built = clone_lattice._build_catalog()
    want = _closure_of(clone_lattice._EDGES)
    assert {name: set(d.known_subclones) for name, d in built.items()} == want
    if edges == "recorded":
        assert built == CATALOG


def test_build_catalog_rejects_a_cyclic_order(monkeypatch, clear_catalog_caches):
    # I0 <= L0 is recorded; L0 <= I0 closes a cycle, and so it does at the top of the chain
    for edges in (clone_lattice._EDGES, LONG_CHAIN):
        monkeypatch.setattr(clone_lattice, "_EDGES", edges + (("L0", "I0"),))
        with pytest.raises(CatalogError, match="^inclusion order is not antisymmetric$"):
            clone_lattice._build_catalog()


def _break_e2(monkeypatch) -> None:
    """E2 with OR's basis: S10 and S12 no longer contain it."""
    monkeypatch.setitem(CATALOG, "E2", CloneDescriptor("E2", (OR2,), CATALOG["E2"].known_subclones))


def test_ensure_catalog_valid_raises_on_a_basis_mutant(monkeypatch, clear_catalog_caches):
    _break_e2(monkeypatch)
    report = validate_catalog()
    assert [f"{c.sub}<={c.sup}" for c in report.failures()] == ["E2<=S10", "E2<=S12"]
    for _ in range(2):  # the cache keeps no exception
        with pytest.raises(CatalogError, match="^clone catalog failed validation: E2<=S10, E2<=S12$"):
            clone_lattice.ensure_catalog_valid()


def test_classify_on_a_broken_catalog_exits_1(monkeypatch, capsys, clear_catalog_caches):
    _break_e2(monkeypatch)
    assert main(["classify", str(Path(__file__).parent / "data" / "horn3.rels")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "catalog error: clone catalog failed validation: E2<=S10, E2<=S12\n"
