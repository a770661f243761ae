"""Circuit DAG semantics, measures, DNF/Quine, decision-tree 1-path DNFs."""

import random

import pytest

from postlab.circuit import (
    BOUNDED2,
    Builder,
    Circuit,
    Dnf,
    build_decision_tree,
    count_minterms,
    evaluate,
    evaluate_many,
    evaluate_ref,
    input_pattern,
    measures,
    minterm_dnf,
    monotone_table_to_circuit,
    monotone_violation,
    quine_strip,
    substitute,
    truth_tables,
)
from postlab.errors import MonotonePreconditionError

MAJ_TABLE = 0b11101000
XOR2_TABLE = 0b0110


def random_circuit(rng, n):
    b = Builder(n)
    pool = [b.input(i) for i in range(n)] + [b.const(rng.randrange(2))]
    for _ in range(rng.randrange(3, 30)):
        kind = rng.choice(["and", "or", "xor", "not"])
        if kind == "not":
            pool.append(b.not_(rng.choice(pool)))
        else:
            ops = [rng.choice(pool) for _ in range(rng.randrange(1, 4))]
            pool.append(getattr(b, kind + "_")(ops))
    return b.build([rng.choice(pool) for _ in range(rng.randrange(1, 3))])


def test_simple_gates():
    b = Builder(2)
    c = b.build([b.or_([b.input(0), b.input(1)])])
    assert evaluate(c, 0b11) == 1 and evaluate(c, 0) == 0
    b = Builder(3)
    c = b.build([b.xor_([b.input(0), b.input(1), b.input(2)])])
    assert evaluate(c, 0b101) == 0


def test_two_evaluators_agree():
    rng = random.Random(3)
    for _ in range(1000):
        n = rng.randrange(1, 10)
        c = random_circuit(rng, n)
        tts = truth_tables(c)
        for _ in range(10):
            x = rng.getrandbits(n)
            a = evaluate(c, x)
            r = evaluate_ref(c, x)
            t = 0
            for i, tt in enumerate(tts):
                t |= ((tt >> x) & 1) << i
            assert a == r == t


def test_evaluate_many_matches_reference():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randrange(1, 10)
        c = random_circuit(rng, n)
        for batch in (0, 1, 63, 64, 65, 1000):
            xs = [rng.getrandbits(n) for _ in range(batch)]
            assert evaluate_many(c, xs) == [evaluate_ref(c, x) for x in xs]


def test_input_pattern():
    # the exhaustive emitter oracle in verify is built from these patterns
    for n in range(1, 13):
        for i in range(n):
            p = input_pattern(i, n)
            assert p >> (1 << n) == 0
            for x in range(1 << n):
                assert ((p >> x) & 1) == (x >> i) & 1


def _substitute_loop(table, words, full):
    """Lane by lane: lane x is bit idx of table, bit i of idx lane x of words[i]."""
    out = 0
    for x in range(full.bit_length()):
        if (full >> x) & 1:
            idx = 0
            for i, w in enumerate(words):
                idx |= ((w >> x) & 1) << i
            out |= ((table >> idx) & 1) << x
    return out


def test_substitute_matches_the_lane_loop():
    rng = random.Random(9)
    for k in range(5):
        tables = [0, (1 << (1 << k)) - 1] + [rng.getrandbits(1 << k) for _ in range(8)]
        for table in tables:
            for width in range(1, 65):
                full = (1 << width) - 1
                # words may carry lanes beyond full; the result must not
                words = [rng.getrandbits(width + 3) for _ in range(k)]
                assert substitute(table, words, full) == _substitute_loop(table, words, full)


def _monotone_violation_loop(nvars, table):
    for x in range(1 << nvars):
        if not (table >> x) & 1:
            continue
        for j in range(nvars):
            y = x | (1 << j)
            if y != x and not (table >> y) & 1:
                return (x, y)
    return None


def test_monotone_violation_witness_matches_the_loop():
    for table in range(1 << 16):
        assert monotone_violation(4, table) == _monotone_violation_loop(4, table)
    rng = random.Random(13)
    for _ in range(2000):
        nvars = rng.randrange(0, 9)
        table = rng.getrandbits(1 << nvars)
        if rng.randrange(2):  # sparse tables have few, late violations
            table &= rng.getrandbits(1 << nvars) & rng.getrandbits(1 << nvars)
        assert monotone_violation(nvars, table) == _monotone_violation_loop(nvars, table)


def test_measures_balanced_tree():
    b = Builder(8, BOUNDED2)
    c = b.build([b.and_([b.input(i) for i in range(8)])])
    m = measures(c)
    assert m.size == 7 and m.depth == 3 and m.monotone


def test_not_makes_non_monotone():
    b = Builder(1)
    c = b.build([b.not_(b.input(0))])
    assert not measures(c).monotone


def test_circuit_validation():
    with pytest.raises(ValueError):
        Circuit(1, (("and", (0,)),), (0,))  # operand not before gate
    with pytest.raises(ValueError):
        Circuit(1, (("input", (0,)), ("and", (0, 0, 0))), (1,), BOUNDED2)


def test_circuit_json_roundtrip():
    rng = random.Random(5)
    for _ in range(20):
        c = random_circuit(rng, 4)
        assert Circuit.from_json(c.to_json()) == c


def test_quine_strip_example():
    d = Dnf.make(2, [(0b01, 0b10), (0b11, 0)])
    s = quine_strip(d)
    assert not s.has_negative_literals()
    assert s.truth_table() == d.truth_table() == 0b1010
    assert len(s.terms) <= len(d.terms)


def test_quine_strip_already_monotone_unchanged():
    d = minterm_dnf(3, MAJ_TABLE)
    assert quine_strip(d) == d


def test_quine_strip_rejects_parity_with_witness():
    d = Dnf.make(2, [(0b01, 0b10), (0b10, 0b01)])
    with pytest.raises(MonotonePreconditionError) as err:
        quine_strip(d)
    lo, hi = err.value.lo, err.value.hi
    assert lo | hi == hi and d.evaluate(lo) and not d.evaluate(hi)


def test_decision_tree_single_variable():
    # one split on x0; its 1-path tests x0 positively
    assert build_decision_tree(1, 0b10).terms == ((1, 0),)


def test_decision_tree_paths_compute_f_disjointly():
    # the 1-paths of a tree compute f, and each input follows exactly one path
    rng = random.Random(11)
    for _ in range(80):
        n = rng.randrange(1, 7)
        table = rng.getrandbits(1 << n)
        paths = build_decision_tree(n, table)
        assert paths.truth_table() == table
        for x in range(1 << n):
            hits = sum((x & pos) == pos and (x & neg) == 0 for pos, neg in paths.terms)
            assert hits == (table >> x) & 1


def test_dt_to_monotone_dnf_pipeline():
    dnf = quine_strip(build_decision_tree(3, MAJ_TABLE))
    assert dnf.truth_table() == MAJ_TABLE
    assert not dnf.has_negative_literals()
    assert set(dnf.terms) == {(0b011, 0), (0b101, 0), (0b110, 0)}


def test_dt_to_monotone_dnf_rejects_parity():
    paths = build_decision_tree(2, XOR2_TABLE)
    with pytest.raises(MonotonePreconditionError):
        quine_strip(paths)


def test_count_minterms():
    assert count_minterms(3, MAJ_TABLE) == 3
    assert count_minterms(4, 1 << 15) == 1  # AND of four variables
    assert count_minterms(3, 0) == 0
    assert count_minterms(2, 0b1111) == 1  # constant one: the empty input


def test_monotone_table_to_circuit():
    c = monotone_table_to_circuit(3, MAJ_TABLE)
    assert measures(c).monotone
    assert truth_tables(c)[0] == MAJ_TABLE
    z = monotone_table_to_circuit(2, 0)
    assert truth_tables(z)[0] == 0
