"""Constructions: checkpoint circuits, thresholds, padding, CSP emitters."""

import hashlib
import json
import random

import pytest

from postlab.boolfun import (
    IMP2,
    UNIT_FALSE,
    UNIT_TRUE,
    Relation,
    RelationSet,
    nand_relation,
    or_relation,
)
from postlab.circuit import (
    BOUNDED2,
    UNBOUNDED,
    Builder,
    evaluate,
    input_pattern,
    measures,
    monotone_table_to_circuit,
    truth_tables,
)
from postlab.clone_lattice import classify
from postlab.construct import (
    GraphPropertyCircuit,
    LayeredBP,
    MAX_CHECKPOINT_D,
    PARITY,
    REACH,
    bp_truth_table,
    checkpoint_circuit,
    detect_fragment,
    emit_monotone_csp_circuit,
    induced_subgraph_circuit,
    pad_dummy_inputs,
    padded_graph_property,
    random_layered_bp,
    threshold_circuit,
)
from postlab.csp import (
    CspInstance,
    ahornt_set,
    hornt_set,
    nand_fragment_set,
    or_fragment_set,
    solve_2sat,
    solve_antihorn,
    solve_horn,
    twosat_set,
    violation_masks,
    xor3_set,
)
from postlab.errors import BudgetExceededError, FragmentMismatchError
from postlab.graphlab import Graph, odd_factor_fast, pair_index


def test_single_path_checkpoint():
    bp = LayeredBP(
        3,
        (1, 1, 1, 1),
        (
            ((0, 0, ("lit", 0, True)),),
            ((0, 0, ("lit", 1, True)),),
            ((0, 0, ("lit", 2, True)),),
        ),
    )
    c = checkpoint_circuit(bp, 1, PARITY)
    assert measures(c).depth == 2
    assert truth_tables(c)[0] == 1 << 7  # x0 & x1 & x2


def test_parallel_paths_cancel_in_parity():
    bp = LayeredBP(
        1,
        (1, 2, 1),
        (
            ((0, 0, ("lit", 0, True)), (0, 1, ("lit", 0, True))),
            ((0, 0, ("const", 1)), (1, 0, ("const", 1))),
        ),
    )
    par = checkpoint_circuit(bp, 1, PARITY)
    reach = checkpoint_circuit(bp, 1, REACH)
    assert truth_tables(par)[0] == bp_truth_table(bp, PARITY) == 0  # two identical paths cancel mod 2
    assert truth_tables(reach)[0] == bp_truth_table(bp, REACH) == 0b10


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("mode", [PARITY, REACH])
def test_checkpoint_random_bps(d, mode):
    rng = random.Random(d * 7 + (mode == REACH))
    for _ in range(25):
        n = rng.randrange(1, 7)
        bp = random_layered_bp(rng, n)
        c = checkpoint_circuit(bp, d, mode)
        assert measures(c).depth == 2 * d
        assert truth_tables(c)[0] == bp_truth_table(bp, mode)


def _accepting_paths(bp, x):
    """Number of start-accept paths of bp on input x, walked one by one."""
    def holds(guard):
        if guard[0] == "const":
            return guard[1] == 1
        _, var, positive = guard
        return ((x >> var) & 1) == positive

    def walk(t, u):
        if t == bp.length:
            return int(u == bp.accept)
        return sum(walk(t + 1, v) for s, v, guard in bp.edges[t] if s == u and holds(guard))

    return walk(0, bp.start)


def test_bp_truth_table_matches_path_enumeration():
    rng = random.Random(11)
    guards = set()
    for _ in range(60):
        bp = random_layered_bp(rng, rng.randrange(1, 7))
        guards |= {guard[0] if guard[0] == "const" else guard[2]
                   for layer in bp.edges for _, _, guard in layer}
        counts = [_accepting_paths(bp, x) for x in range(1 << bp.n)]
        assert bp_truth_table(bp, PARITY) == sum((k & 1) << x for x, k in enumerate(counts))
        assert bp_truth_table(bp, REACH) == sum((k > 0) << x for x, k in enumerate(counts))
    assert guards == {"const", True, False}  # constants and both literal polarities


def test_checkpoint_rejects_bad_args():
    bp = random_layered_bp(random.Random(0), 2)
    with pytest.raises(ValueError):
        checkpoint_circuit(bp, 0)
    with pytest.raises(ValueError, match=f"between 1 and {MAX_CHECKPOINT_D}"):
        checkpoint_circuit(bp, MAX_CHECKPOINT_D + 1)
    with pytest.raises(ValueError):
        checkpoint_circuit(bp, 2, "other")
    with pytest.raises(KeyError):
        bp_truth_table(bp, "other")


def test_checkpoint_builds_at_the_depth_limit():
    bp = random_layered_bp(random.Random(3), 4)
    c = checkpoint_circuit(bp, MAX_CHECKPOINT_D)
    assert MAX_CHECKPOINT_D == 256 and measures(c).depth == 512
    assert truth_tables(c)[0] == bp_truth_table(bp)


def test_layered_bp_validation():
    with pytest.raises(ValueError):
        LayeredBP(1, (1, 1), (((0, 3, ("const", 1)),),))


def test_bp_json_roundtrip():
    bp = random_layered_bp(random.Random(4), 5)
    assert LayeredBP.from_json(bp.to_json()) == bp


@pytest.mark.parametrize("mode", [BOUNDED2, UNBOUNDED])
def test_threshold_circuits(mode):
    for n in range(1, 8):
        for k in range(n + 2):
            c = threshold_circuit(k, n, mode)
            assert measures(c).monotone
            table = truth_tables(c)[0]
            for x in range(1 << n):
                assert ((table >> x) & 1) == (bin(x).count("1") >= k)


def test_threshold_edges():
    assert truth_tables(threshold_circuit(0, 3))[0] == 0xFF
    assert truth_tables(threshold_circuit(4, 3))[0] == 0


def test_threshold_takes_only_fanin_modes():
    for mode in ("logdepth", "flat"):
        with pytest.raises(ValueError, match=repr(mode)):
            threshold_circuit(2, 4, mode)


def test_induced_subgraph_triangle():
    c = induced_subgraph_circuit(4, 3)
    g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2)])
    x = g.mask | (0b0111 << 6)
    assert evaluate(c, x) == 0b111
    assert evaluate(c, g.mask) == 0  # empty selection pads with isolation


def test_pad_dummy_inputs():
    b = Builder(1)
    c = b.build([b.input(0)])
    padded = pad_dummy_inputs(c, 3)
    assert padded.n == 4
    assert measures(padded) == measures(c)
    for x in range(16):
        assert evaluate(padded, x) == x & 1


def test_padding_rejects_non_monotone():
    b = Builder(3)
    c = b.build([b.xor_([b.input(0), b.input(1), b.input(2)])])
    prop = GraphPropertyCircuit(3, c, "parity")
    with pytest.raises(FragmentMismatchError):
        padded_graph_property(prop, 5)


def test_padded_edge_property_small():
    b = Builder(3)
    prop = GraphPropertyCircuit(3, b.build([b.or_([b.input(i) for i in range(3)])]), "edge")
    padded, embed = padded_graph_property(prop, 5)
    for gmask in range(8):
        assert padded.value(embed.apply(gmask)) == (1 if gmask else 0)
    # heavy graphs are accepted outright, whatever the small property says
    assert padded.value((1 << 10) - 1) == 1


def test_detect_fragment():
    assert detect_fragment(hornt_set()) == "horn"
    assert detect_fragment(ahornt_set()) == "antihorn"
    assert detect_fragment(twosat_set()) == "2sat"
    assert detect_fragment(or_fragment_set(2)) == "or_fragment"
    assert detect_fragment(nand_fragment_set(2)) == "or_fragment"
    # 1-valid, so I1 lies in Pol: a constant circuit, not anti-Horn
    assert detect_fragment(RelationSet((or_relation(2), IMP2))) == "constant"
    with pytest.raises(FragmentMismatchError):
        detect_fragment(xor3_set())


def test_auto_emits_for_every_binary_set():
    # every binary relation is majority-closed, so every binary set is
    # size-EASY and "auto" must build its circuit; a fixed stride of the
    # 2^16 - 1 nonempty sets, in the bit order of the dichotomy sweep
    binary = [Relation(2, m) for m in range(16)]
    rng = random.Random(61)
    for subset in range(1, 1 << 16, 61):
        sset = RelationSet(tuple(binary[i] for i in range(16) if (subset >> i) & 1))
        circuit = emit_monotone_csp_circuit(sset, 2)
        assert measures(circuit).monotone, hex(subset)
        viol = violation_masks(CspInstance(sset, 2))
        masks = [rng.getrandbits(circuit.n) & rng.getrandbits(circuit.n) for _ in range(20)]
        for w in masks + [0, (1 << circuit.n) - 1]:
            assert (evaluate(circuit, w) & 1) == (not any(w & v == 0 for v in viol)), hex(subset)


def test_auto_rejects_exactly_the_size_hard_ternary_sets():
    companions = [(), (UNIT_TRUE,), (UNIT_FALSE,), (UNIT_TRUE, UNIT_FALSE)]
    hard = 0
    for mask in range(256):
        for extra in companions:
            sset = RelationSet((Relation(3, mask),) + extra)
            if classify(sset).size_side == "HARD":
                hard += 1
                with pytest.raises(FragmentMismatchError):
                    detect_fragment(sset)
            else:
                detect_fragment(sset)
    assert hard > 0


@pytest.mark.parametrize(
    "set_fn,n",
    [(hornt_set, 2), (ahornt_set, 2), (twosat_set, 2), (or_fragment_set, 2)],
)
def test_emitters_match_brute_force(set_fn, n):
    sset = set_fn()
    circuit = emit_monotone_csp_circuit(sset, n)
    assert measures(circuit).monotone
    viol = violation_masks(CspInstance(sset, n, 0))
    rng = random.Random(1)
    for _ in range(400):
        w = rng.getrandbits(circuit.n) & rng.getrandbits(circuit.n)
        want = not any(w & v == 0 for v in viol)
        assert (evaluate(circuit, w) & 1) == want


# sha256 of the emitted circuits' JSON for the `verify` emitter sets at their
# n and n + 1: the gate order of each emitter is pinned
EMITTER_SHA256 = {
    (hornt_set, 2): "2d36cce519abb2baa1fc3b49d5d9a476feff90a1f120b38cb2e139e3a77ccc92",
    (hornt_set, 3): "618b7dfc7b42f40c33e441248c667c8ef67fafa8c0dc3bdd38fe62d9abbab6d7",
    (hornt_set, 4): "80c955d903840795166eac2a7165821c3e2533f6c09ee1abe090cfed4edbede6",
    (ahornt_set, 2): "2d36cce519abb2baa1fc3b49d5d9a476feff90a1f120b38cb2e139e3a77ccc92",
    (ahornt_set, 3): "618b7dfc7b42f40c33e441248c667c8ef67fafa8c0dc3bdd38fe62d9abbab6d7",
    (twosat_set, 2): "8b70250a52410420af04ee7c5c778da97dae403406f8327b625b7580b47576dc",
    (twosat_set, 3): "5017b730bf5b04d7d88ca494570c05aaa351a9e94296cad0da9e2f62671d378c",
    (twosat_set, 4): "0d9e7c89b5d3ef63e7fc44ffe3e7e12fee7ecf18b92e0838ef7b80e035543e19",
    (or_fragment_set, 2): "dbdd7cd096ba4e73d5faaa964753fefd74bcfdfbe4a4d7aa77207fff0a4d9374",
    (or_fragment_set, 3): "080dfe22870359b84df1f2944746e447a27351807e0e1a65f2544850e2d57a7f",
    (or_fragment_set, 4): "b708c7c1ebc5300ee793266240491eb1633f74eed73875fae11916c4098aa0bb",
    (nand_fragment_set, 2): "f1b544c2ea6b3787e2c257b368b0e83b53a6b76182b60ae7309143ea30501ea6",
    (nand_fragment_set, 3): "eddaecfe3320c0306665a079c942497f4486ed7d67a1e8495fab853c1a45d11f",
}


@pytest.mark.parametrize(
    "set_fn,n", EMITTER_SHA256, ids=[f"{f.__name__}-n{n}" for f, n in EMITTER_SHA256]
)
def test_emitted_circuits_pinned(set_fn, n):
    sset = set_fn()
    text = json.dumps(emit_monotone_csp_circuit(sset, n).to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == EMITTER_SHA256[set_fn, n]
    # naming the detected fragment explicitly picks the same emitter
    named = emit_monotone_csp_circuit(sset, n, detect_fragment(sset))
    assert json.dumps(named.to_json(), sort_keys=True) == text


def test_constant_fragment_is_chosen_by_auto_only():
    sset = RelationSet((UNIT_TRUE,))
    assert detect_fragment(sset) == "constant"
    for fragment in ("constant", "bogus"):
        with pytest.raises(ValueError, match=repr(fragment)):
            emit_monotone_csp_circuit(sset, 2, fragment)


@pytest.mark.parametrize("mask", [0b0000, 0b1111], ids=["empty", "full"])
@pytest.mark.parametrize("n", [2, 3])
def test_twosat_emitter_on_an_edgeless_graph_skips_the_squaring(mask, n):
    # neither relation has a 2-clause: the empty one refutes every
    # application directly, the full one never
    sset = RelationSet((Relation(2, mask),))
    circuit = emit_monotone_csp_circuit(sset, n, "2sat")
    assert measures(circuit).depth <= 2
    viol = violation_masks(CspInstance(sset, n))
    want = sum(1 << w for w in range(1 << circuit.n) if all(w & v for v in viol))
    assert truth_tables(circuit)[0] == want


def test_or_fragment_emitter_reverse_implication():
    # tuples 00 10 11: x1 -> x0; auto picks or_fragment (S00) for this set,
    # while csp.pick_solver picks antihorn(V2)
    sset = RelationSet((or_relation(2), UNIT_TRUE, UNIT_FALSE, Relation(2, 0b1011)))
    for n in (2, 3):
        circuit = emit_monotone_csp_circuit(sset, n, "or_fragment")
        viol = violation_masks(CspInstance(sset, n))
        rng = random.Random(n)
        for _ in range(400):
            w = rng.getrandbits(circuit.n) & rng.getrandbits(circuit.n)
            assert (evaluate(circuit, w) & 1) == (not any(w & v == 0 for v in viol))


def test_emitter_fragment_mismatch():
    with pytest.raises(FragmentMismatchError):
        emit_monotone_csp_circuit(xor3_set(), 2)
    for n in (2, 3):
        with pytest.raises(FragmentMismatchError, match="majority-closed"):
            emit_monotone_csp_circuit(hornt_set(), n, "2sat")


EMITTER_SOLVERS = {"horn": solve_horn, "antihorn": solve_antihorn, "2sat": solve_2sat}


def _mismatch(call) -> str | None:
    try:
        call()
    except FragmentMismatchError as exc:
        return str(exc)
    return None


def test_forced_emitters_refuse_exactly_what_their_solvers_refuse():
    """Each ternary relation, alone and with T, F and {T, F}: a forced Horn,
    anti-Horn or 2-SAT emitter raises, with the same message, exactly when
    the matching solver does."""
    refused = 0
    for mask in range(256):
        rel = Relation(3, mask, f"t{mask}")
        for units in ((), (UNIT_TRUE,), (UNIT_FALSE,), (UNIT_TRUE, UNIT_FALSE)):
            sset = RelationSet((rel,) + units)
            for n in (1, 2, 3):
                for fragment, solver in EMITTER_SOLVERS.items():
                    want = _mismatch(lambda: solver(CspInstance(sset, n)))
                    got = _mismatch(lambda: emit_monotone_csp_circuit(sset, n, fragment))
                    assert got == want, (mask, units, n, fragment)
                    refused += want is not None
    assert refused


def _oddfactor4_table() -> int:
    table = 0
    for gmask in range(64):
        if odd_factor_fast(Graph.from_edge_mask(4, gmask)):
            table |= 1 << gmask
    return table


def _oddfactor4() -> GraphPropertyCircuit:
    return GraphPropertyCircuit(4, monotone_table_to_circuit(6, _oddfactor4_table()), "oddfactor4")


def _edge_existence() -> GraphPropertyCircuit:
    b = Builder(3)
    return GraphPropertyCircuit(3, b.build([b.or_([b.input(i) for i in range(3)])]), "edge")


def test_oddfactor_property_padding_roundtrip():
    table = _oddfactor4_table()
    padded, embed = padded_graph_property(_oddfactor4(), 6)
    for gmask in range(64):
        assert padded.value(embed.apply(gmask)) == (table >> gmask) & 1


def _padding_oracle(prop: GraphPropertyCircuit, big_n: int) -> int:
    """Truth table over all big_n-vertex graphs: more than n non-isolated
    vertices, or else prop on the induced subgraph, its vertices relabelled
    in order."""
    n, small = prop.vertices, truth_tables(prop.circuit)[0]
    table = 0
    for gmask in range(1 << big_n * (big_n - 1) // 2):
        edges = [(a, c) for a in range(big_n) for c in range(a + 1, big_n)
                 if gmask >> pair_index(a, c, big_n) & 1]
        used = sorted({v for edge in edges for v in edge})
        if len(used) > n:
            table |= 1 << gmask
            continue
        label = {v: i for i, v in enumerate(used)}
        induced = sum(1 << pair_index(label[a], label[c], n) for a, c in edges)
        table |= (small >> induced & 1) << gmask
    return table


@pytest.mark.parametrize("big_n", [5, 6])
@pytest.mark.parametrize("make_prop", [_edge_existence, _oddfactor4])
def test_padding_matches_the_oracle_in_both_modes(make_prop, big_n):
    prop = make_prop()
    want = _padding_oracle(prop, big_n)
    for fanin_mode in (BOUNDED2, UNBOUNDED):
        padded, _ = padded_graph_property(prop, big_n, fanin_mode)
        assert padded.circuit.fanin_mode == fanin_mode
        assert truth_tables(padded.circuit)[0] == want, fanin_mode


def test_unbounded_padding_has_constant_depth():
    prop = _oddfactor4()
    depths = {
        big_n: measures(padded_graph_property(prop, big_n, UNBOUNDED)[0].circuit).depth
        for big_n in range(6, 13)
    }
    assert len(set(depths.values())) == 1, depths


def test_bounded_padding_has_logarithmic_depth():
    # Read off the construction, with L = ceil(log2 N): the non-isolation ORs
    # have depth <= L; each count is a tree of L merge levels, each one AND
    # and an OR of at most n + 2 terms, 1 + ceil(log2 6) = 4 for n = 4; a
    # selector ANDs three gates (+2); an output bit ANDs three gates (+2) and
    # ORs fewer than N^2 / 2 terms (<= 2L - 1); then the property in fan-in
    # two (depth d) and the final OR (+1).  So depth <= 7L + 4 + d.
    prop = _oddfactor4()
    b = Builder(6, BOUNDED2)
    d = measures(b.build(b.emit_circuit(prop.circuit, [b.input(i) for i in range(6)]))).depth
    for big_n in range(6, 17):
        depth = measures(padded_graph_property(prop, big_n, BOUNDED2)[0].circuit).depth
        assert depth <= 7 * (big_n - 1).bit_length() + 4 + d, (big_n, depth)


# sha256 of the JSON of the fan-in-two extractors and of the `verify` padded
# circuits: the gate order of the counting gate and of the padding is pinned
EXTRACTOR_SHA256 = {
    (4, 2): "aa7e0f589950c18aabbd95b5b5989230b7600be35a13ba443afe7cdc2ce9dfdd",
    (4, 3): "0dfc32672675a0c2302aedbb98ede4e83921601a2a11251499e7da17fb963bd4",
    (7, 4): "e778459d06985fbcbbbcf0eaa5c7569049dbb8b64d4db91ee8d392f67a3c4cd5",
    (12, 3): "81e2d6d914ff4f3b8148175403b47fa2f722b00067508e371a601fe3831b1aad",
    (16, 4): "28bf66cd6bf6e2255b3243868c6804b6b5b9b8e1361c3db4a7e1805e514bc018",
}
PADDING_SHA256 = {
    (_edge_existence, 6): "f669589dd6b9282adbecd3f2bc26e2d86cfeb989d6f94c4b3edce9a351399a0c",
    (_edge_existence, 7): "77be6eb428fe885f44bc1fb3256dedf2171e96ecff0a1c861caaeaba7c81bea7",
    (_oddfactor4, 6): "5c7a52d465cdec3eb311186ab702389b820e04bab68d7ed26125bb2adeb6eec5",
    (_oddfactor4, 7): "df342a4de69a79b9f41352afd64820f7d970ea05f57fa47d83a9bd18304595ab",
}


def _sha256(circuit) -> str:
    return hashlib.sha256(json.dumps(circuit.to_json(), sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("n,k", EXTRACTOR_SHA256, ids=[f"n{n}-k{k}" for n, k in EXTRACTOR_SHA256])
def test_extractor_circuits_pinned(n, k):
    assert _sha256(induced_subgraph_circuit(n, k, BOUNDED2)) == EXTRACTOR_SHA256[n, k]


@pytest.mark.parametrize(
    "make_prop,big_n", PADDING_SHA256, ids=[f"{f.__name__}-N{n}" for f, n in PADDING_SHA256]
)
def test_padded_circuits_pinned(make_prop, big_n):
    padded, _ = padded_graph_property(make_prop(), big_n)
    assert _sha256(padded.circuit) == PADDING_SHA256[make_prop, big_n]


@pytest.mark.parametrize("fanin_mode", [BOUNDED2, UNBOUNDED])
def test_extractor_matches_the_selection_oracle(fanin_mode):
    n, ne = 5, 10
    full = (1 << (1 << ne + n)) - 1
    pattern = [input_pattern(i, ne + n) for i in range(ne + n)]
    for k in range(n + 1):
        tables = truth_tables(induced_subgraph_circuit(n, k, fanin_mode))
        pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
        assert len(tables) == len(pairs)
        for smask in range(1 << n):
            sel = [a for a in range(n) if smask >> a & 1]
            if len(sel) > k:
                continue  # callers guard against over-selection
            chosen = full
            for a in range(n):
                chosen &= pattern[ne + a] if smask >> a & 1 else full ^ pattern[ne + a]
            for table, (i, j) in zip(tables, pairs):
                want = pattern[pair_index(sel[i], sel[j], n)] if j < len(sel) else 0
                assert (table ^ want) & chosen == 0, (k, smask, i, j)


def test_flat_term_budget_limits_every_flat_counter(monkeypatch):
    # C(6,3) = 20 terms; the extractor at n = 7, k = 4 first trips on
    # C(6,4) = 15 (the 7th vertex's largest count); the padding at N = 7,
    # n = 4 on its weight test, C(7,5) = 21
    monkeypatch.setenv("POSTLAB_BUDGET", "flat_threshold_terms=14")
    with pytest.raises(BudgetExceededError, match=r"C\(6,3\)"):
        threshold_circuit(3, 6, UNBOUNDED)
    with pytest.raises(BudgetExceededError, match=r"C\(6,4\)"):
        induced_subgraph_circuit(7, 4, UNBOUNDED)
    with pytest.raises(BudgetExceededError, match=r"C\(7,5\)"):
        padded_graph_property(_oddfactor4(), 7, UNBOUNDED)
    # the fan-in-two counters have no flat terms to limit
    induced_subgraph_circuit(7, 4, BOUNDED2)
    padded_graph_property(_oddfactor4(), 7, BOUNDED2)


def test_unknown_fanin_mode_is_rejected():
    for mode in ("nc", "NC1"):
        with pytest.raises(ValueError, match=repr(mode)):
            Builder(2, mode)
        with pytest.raises(ValueError, match=repr(mode)):
            induced_subgraph_circuit(4, 2, mode)
        with pytest.raises(ValueError, match=repr(mode)):
            padded_graph_property(_edge_existence(), 5, mode)


def _meets_all(size: int, masks: list[int]) -> int:
    """Truth table of the monotone CNF with one clause, the OR of its bits,
    per mask."""
    table = (1 << (1 << size)) - 1
    for v in masks:
        clause = 0
        for i in range(size):
            if v >> i & 1:
                clause |= input_pattern(i, size)
        table &= clause
    return table


@pytest.mark.parametrize(
    "relations",
    [
        (or_relation(2), UNIT_FALSE),
        (nand_relation(2), UNIT_TRUE),
        (or_relation(3), UNIT_TRUE, UNIT_FALSE),
    ],
    ids=["or2-F", "nand2-T", "or3-T-F"],
)
def test_or_menu_sets_without_implications_get_constant_depth(relations):
    # no prime clause is an implication, so the entailment graph has no edge
    # and the emitter skips its closure
    sset = RelationSet(relations)
    depths = set()
    for n in range(2, 9):
        circuit = emit_monotone_csp_circuit(sset, n)
        assert measures(circuit).monotone
        depths.add(measures(circuit).depth)
        if circuit.n <= 18:
            viol = violation_masks(CspInstance(sset, n))
            assert truth_tables(circuit)[0] == _meets_all(circuit.n, viol), n
    assert len(depths) == 1, depths
