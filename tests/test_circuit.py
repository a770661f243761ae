"""Circuit DAG semantics, measures, DNF/Quine, decision-tree 1-path DNFs."""

import random

import pytest

from postlab.circuit import (
    BOUNDED2,
    Builder,
    Circuit,
    Dnf,
    _minimal_ones,
    build_decision_tree,
    count_minterms,
    evaluate,
    evaluate_many,
    evaluate_ref,
    input_pattern,
    measures,
    minterm_dnf,
    monotone_table_to_circuit,
    monotone_tables,
    monotone_violation,
    quine_strip,
    substitute,
    truth_tables,
)
from postlab.construct import PARITY, REACH, checkpoint_circuit, random_layered_bp
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


def test_monotone_tables_is_the_per_table_census():
    """Dedekind's numbers 2, 3, 6, 20 and 168 at nvars 0..4, found by the
    lane census exactly as by monotone_violation on every table."""
    for nvars, count in enumerate([2, 3, 6, 20, 168]):
        want = [t for t in range(2 ** 2**nvars) if monotone_violation(nvars, t) is None]
        got = monotone_tables(nvars)
        assert got == want and len(got) == count
        assert got == sorted(set(got))
    for nvars in (5, -1):
        with pytest.raises(ValueError):
            monotone_tables(nvars)


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


@pytest.mark.parametrize("kind", ["and", "or", "xor", "not"])
@pytest.mark.parametrize("operand", [-1, 1, 2])
def test_an_operand_out_of_topological_order_is_rejected(kind, operand):
    # gate 1 may read gate 0 only: -1 is negative, 1 is the gate itself, 2 is later
    args = (operand,) if kind == "not" else (0, operand, 0)
    gates = (("input", (0,)), (kind, args), ("input", (0,)))
    with pytest.raises(ValueError, match="gate 1: operand fails topological order"):
        Circuit(1, gates, (1,))


def _depth_ref(c):
    """Depth by memoized recursion from the outputs, NOT gates free."""
    memo = {}

    def rec(idx):
        if idx not in memo:
            kind, args = c.gates[idx]
            if kind in ("input", "const0", "const1"):
                memo[idx] = 0
            else:
                below = max(rec(a) for a in args)
                memo[idx] = below if kind == "not" else below + 1
        return memo[idx]

    return max((rec(o) for o in c.outputs), default=0)


def test_measures_depth_is_the_recursive_depth():
    rng = random.Random(11)
    circuits = [random_circuit(rng, rng.randrange(1, 8)) for _ in range(300)]
    for _ in range(40):
        bp = random_layered_bp(rng, rng.randrange(1, 9))
        circuits += [checkpoint_circuit(bp, d, mode) for d in (1, 2, 3) for mode in (PARITY, REACH)]
    for c in circuits:
        assert measures(c).depth == _depth_ref(c)


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
    table = d.truth_table()
    assert lo | hi == hi and (table >> lo) & 1 and not (table >> hi) & 1


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


def test_count_minterms_rejects_a_non_monotone_table():
    """f(00) = 1 lies below f(11) = 1, so 0b1001 has one minimal 1-input, not
    the two that a one-bit-predecessor count reports; like minterm_dnf,
    count_minterms refuses the table with the violating pair."""
    with pytest.raises(MonotonePreconditionError) as exc:
        count_minterms(2, 0b1001)
    assert (exc.value.lo, exc.value.hi) == (0, 1)
    with pytest.raises(MonotonePreconditionError):
        minterm_dnf(2, 0b1001)


def _truth_table_loop(d):
    """The inputs x that satisfy some term: every positive literal set, every
    negative one clear."""
    return sum(
        1 << x for x in range(1 << d.nvars) if any(x & pos == pos and not x & neg for pos, neg in d.terms)
    )


def test_dnf_truth_table_is_the_per_input_loop():
    rng = random.Random(44)
    for nvars in range(7):
        top = 1 << nvars
        dnfs = [
            Dnf(nvars, ()),
            Dnf(nvars, ((0, 0),)),  # the constant-true term
            Dnf(nvars, ((1, 1), (top - 1, top >> 1))),  # contradictory: pos & neg
            Dnf(nvars, ((top, 0), (0, top))),  # x_nvars is 0: accepts nothing, then everything
            Dnf(nvars, ((top | 1, 0),)),
        ]
        for _ in range(60):
            terms = [(rng.getrandbits(nvars), rng.getrandbits(nvars)) for _ in range(rng.randrange(6))]
            dnfs += [Dnf.make(nvars, terms), Dnf(nvars, tuple(terms))]
        for d in dnfs:
            assert d.truth_table() == _truth_table_loop(d), d


def _minimal_ones_loop(nvars, table):
    """The 1-inputs x of table with no 1-input at x with one set bit cleared."""
    for x in range(1 << nvars):
        if not (table >> x) & 1:
            continue
        m = x
        while m:
            low = m & -m
            if (table >> (x ^ low)) & 1:
                break
            m ^= low
        else:
            yield x


def test_minimal_ones_is_the_one_bit_predecessor_loop():
    for nvars in range(5):
        for table in range(2 ** 2**nvars):
            assert list(_minimal_ones(nvars, table)) == list(_minimal_ones_loop(nvars, table))
    # bits above the 2**nvars inputs are no inputs
    for nvars in range(4):
        for table in range(2 ** 2**nvars):
            stray = table | 0b1011 << (1 << nvars)
            assert list(_minimal_ones(nvars, stray)) == list(_minimal_ones_loop(nvars, table))


def test_monotone_table_to_circuit():
    c = monotone_table_to_circuit(3, MAJ_TABLE)
    assert measures(c).monotone
    assert truth_tables(c)[0] == MAJ_TABLE
    z = monotone_table_to_circuit(2, 0)
    assert truth_tables(z)[0] == 0
