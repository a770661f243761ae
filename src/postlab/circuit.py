"""Gate-level circuit DAGs with measures, DNFs and decision-tree 1-path DNFs.

Gates are topologically ordered by construction: operands always point at
earlier gates.  A circuit is syntactically monotone when it contains no NOT
and no XOR gate.  Depth counts AND/OR/XOR gates along input-to-output paths;
NOT gates are treated as free literal inverters, matching the convention
where circuit inputs are literals.
"""

from __future__ import annotations

import functools
from typing import Iterable, Iterator, Sequence

from .errors import MonotonePreconditionError
from .record import Frozen

INPUT = "input"
CONST0 = "const0"
CONST1 = "const1"
AND = "and"
OR = "or"
NOT = "not"
XOR = "xor"

_LOGIC = (AND, OR, NOT, XOR)
BOUNDED2 = "bounded2"
UNBOUNDED = "unbounded"


class Circuit(Frozen):
    __slots__ = ("n", "gates", "outputs", "fanin_mode")
    n: int
    gates: tuple[tuple[str, tuple[int, ...]], ...]
    outputs: tuple[int, ...]
    fanin_mode: str

    def __init__(self, n, gates, outputs, fanin_mode=UNBOUNDED):
        if n < 0:
            raise ValueError(f"circuit needs n >= 0, got n={n}")
        if fanin_mode not in (BOUNDED2, UNBOUNDED):
            raise ValueError(f"unknown fanin_mode {fanin_mode!r}")
        for idx, (kind, args) in enumerate(gates):
            if kind == INPUT:
                if len(args) != 1 or not 0 <= args[0] < n:
                    raise ValueError(f"gate {idx}: bad input reference")
            elif kind in (CONST0, CONST1):
                if args:
                    raise ValueError(f"gate {idx}: constants take no operands")
            elif kind == NOT:
                if len(args) != 1:
                    raise ValueError(f"gate {idx}: NOT takes one operand")
            elif kind in (AND, OR, XOR):
                if not args:
                    raise ValueError(f"gate {idx}: empty operand list")
                if fanin_mode == BOUNDED2 and len(args) > 2:
                    raise ValueError(f"gate {idx}: fan-in above 2 in bounded mode")
            else:
                raise ValueError(f"gate {idx}: unknown kind {kind!r}")
            if kind in _LOGIC and (min(args) < 0 or max(args) >= idx):
                raise ValueError(f"gate {idx}: operand fails topological order")
        for pos, o in enumerate(outputs):
            if not 0 <= o < len(gates):
                raise ValueError(f"output {pos}: gate index {o} out of range")
        Frozen.__init__(self, n, gates, outputs, fanin_mode)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "fanin_mode": self.fanin_mode,
            "gates": [[kind, list(args)] for kind, args in self.gates],
            "outputs": list(self.outputs),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Circuit":
        from .boolfun import json_int, json_list  # boolfun imports this module

        gates = []
        for idx, gate in enumerate(json_list(obj["gates"], "gates")):
            kind, args = json_list(gate, f"gate {idx}", "[kind, operands]", (2,))
            args = json_list(args, f"gate {idx} operands", "a list of gate indices")
            gates.append((kind, tuple(json_int(a, f"gate {idx} operand") for a in args)))
        outputs = json_list(obj["outputs"], "outputs", "a list of gate indices")
        outputs = tuple(json_int(o, "output") for o in outputs)
        return cls(json_int(obj["n"], "n"), tuple(gates), outputs, obj["fanin_mode"])


class Measures(Frozen):
    __slots__ = ("size", "depth", "monotone")
    size: int
    depth: int
    monotone: bool


def measures(c: Circuit) -> Measures:
    depth = [0] * len(c.gates)
    size = 0
    monotone = True
    for idx, (kind, args) in enumerate(c.gates):
        if kind in _LOGIC:
            size += 1
            base = max(map(depth.__getitem__, args), default=0)
            depth[idx] = base if kind == NOT else base + 1
            if kind in (NOT, XOR):
                monotone = False
    out_depth = max((depth[o] for o in c.outputs), default=0)
    return Measures(size, out_depth, monotone)


def _gate_values(c: Circuit, inputs: Sequence[int], full: int) -> list[int]:
    """Value of every gate, bit-parallel: input gate i takes the word
    inputs[i], and full is the all-lanes word that NOT and CONST1 use."""
    vals: list[int] = [0] * len(c.gates)
    for idx, (kind, args) in enumerate(c.gates):
        if kind == INPUT:
            vals[idx] = inputs[args[0]]
        elif kind == CONST0:
            vals[idx] = 0
        elif kind == CONST1:
            vals[idx] = full
        elif kind == NOT:
            vals[idx] = vals[args[0]] ^ full
        elif kind == AND:
            acc = full
            for a in args:
                acc &= vals[a]
            vals[idx] = acc
        elif kind == OR:
            acc = 0
            for a in args:
                acc |= vals[a]
            vals[idx] = acc
        else:
            acc = 0
            for a in args:
                acc ^= vals[a]
            vals[idx] = acc
    return vals


def evaluate(c: Circuit, x: int) -> int:
    """Gate-by-gate evaluation; output bit i of the result is outputs[i]."""
    vals = _gate_values(c, [(x >> i) & 1 for i in range(c.n)], 1)
    out = 0
    for i, o in enumerate(c.outputs):
        out |= vals[o] << i
    return out


def evaluate_many(c: Circuit, xs: Sequence[int]) -> list[int]:
    """[evaluate(c, x) for x in xs] from one pass over the gates: lane k of
    each gate's word is that gate's value on xs[k]."""
    if not xs:
        return []
    low = (1 << c.n) - 1
    # row k holds the bits of xs[k], most significant first; column n-1-i
    # read from the last row up is the lane word of input i
    rows = [format(x & low, f"0{c.n}b") for x in xs]
    inputs = [int("".join(col)[::-1], 2) for col in zip(*rows)][::-1]
    vals = _gate_values(c, inputs, (1 << len(xs)) - 1)
    lanes = [format(vals[o], f"0{len(xs)}b") for o in reversed(c.outputs)]
    return [int("".join(bits), 2) for bits in zip(*lanes)][::-1] if lanes else [0] * len(xs)


def evaluate_ref(c: Circuit, x: int) -> int:
    """Independent reference evaluator: memoized recursion from the outputs."""
    memo: dict[int, int] = {}

    def rec(idx: int) -> int:
        if idx in memo:
            return memo[idx]
        kind, args = c.gates[idx]
        if kind == INPUT:
            val = (x >> args[0]) & 1
        elif kind == CONST0:
            val = 0
        elif kind == CONST1:
            val = 1
        elif kind == NOT:
            val = 1 - rec(args[0])
        elif kind == AND:
            val = 1
            for a in args:
                if rec(a) == 0:
                    val = 0
                    break
        elif kind == OR:
            val = 0
            for a in args:
                if rec(a) == 1:
                    val = 1
                    break
        else:
            val = 0
            for a in args:
                val ^= rec(a)
        memo[idx] = val
        return val

    out = 0
    for i, o in enumerate(c.outputs):
        out |= rec(o) << i
    return out


def input_pattern(i: int, n: int) -> int:
    """Truth table (over 2**n inputs) of the i-th input variable, 0 <= i < n."""
    block = 1 << i
    pattern = ((1 << block) - 1) << block  # one period: block zeros, block ones
    width = 2 * block
    while width < 1 << n:
        pattern |= pattern << width
        width *= 2
    return pattern


def substitute(table: int, words: Sequence[int], full: int) -> int:
    """The function with truth table `table` applied to k words, lane by lane.

    Lane x of the result is bit i of table, where bit j of i is lane x of
    words[j]; lanes outside `full` are 0.  It is the OR, over the set bits i
    of table, of the AND over j of words[j] (bit j of i set) or ~words[j].
    """
    out = 0
    while table:
        low = table & -table
        idx = low.bit_length() - 1
        term = full
        for w in words:
            term &= w if idx & 1 else ~w
            idx >>= 1
        out |= term
        table ^= low
    return out


def truth_tables(c: Circuit) -> list[int]:
    """Truth tables of all outputs at once, bit-parallel across assignments."""
    inputs = [input_pattern(i, c.n) for i in range(c.n)]
    vals = _gate_values(c, inputs, (1 << (1 << c.n)) - 1)
    return [vals[o] for o in c.outputs]


class Builder:
    """Incremental circuit builder with structural deduplication.

    In bounded2 mode the convenience combinators split wide gates into
    balanced fan-in-two trees.
    """

    def __init__(self, n: int, fanin_mode: str = UNBOUNDED):
        if fanin_mode not in (BOUNDED2, UNBOUNDED):
            raise ValueError(f"unknown fanin_mode {fanin_mode!r}")
        self.n = n
        self.fanin_mode = fanin_mode
        self.gates: list[tuple[str, tuple[int, ...]]] = []
        self._memo: dict[tuple[str, tuple[int, ...]], int] = {}

    def _emit(self, kind: str, args: tuple[int, ...]) -> int:
        key = (kind, args)
        got = self._memo.get(key)
        if got is not None:
            return got
        self.gates.append(key)
        idx = len(self.gates) - 1
        self._memo[key] = idx
        return idx

    def input(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise ValueError("input index out of range")
        return self._emit(INPUT, (i,))

    def const(self, b: int) -> int:
        return self._emit(CONST1 if b else CONST0, ())

    def not_(self, a: int) -> int:
        return self._emit(NOT, (a,))

    def _assoc(self, kind: str, args: Sequence[int], empty: int) -> int:
        args = tuple(args)
        if not args:
            return self.const(empty)
        if self.fanin_mode == BOUNDED2:
            while len(args) > 1:
                nxt = []
                for i in range(0, len(args) - 1, 2):
                    nxt.append(self._emit(kind, (args[i], args[i + 1])))
                if len(args) % 2:
                    nxt.append(args[-1])
                args = nxt
            return args[0]
        return self._emit(kind, args)

    def and_(self, args: Sequence[int]) -> int:
        return self._assoc(AND, args, 1)

    def or_(self, args: Sequence[int]) -> int:
        return self._assoc(OR, args, 0)

    def xor_(self, args: Sequence[int]) -> int:
        return self._assoc(XOR, args, 0)

    def emit_circuit(self, sub: Circuit, input_gates: Sequence[int]) -> list[int]:
        """Inline another circuit, wiring its inputs to existing gates.

        Wide gates are re-split when this builder is fan-in bounded.
        """
        if len(input_gates) != sub.n:
            raise ValueError("input mapping length mismatch")
        combinators = {AND: self.and_, OR: self.or_, XOR: self.xor_}
        mapping: list[int] = []
        for kind, args in sub.gates:
            if kind == INPUT:
                mapping.append(input_gates[args[0]])
            elif kind in (CONST0, CONST1):
                mapping.append(self._emit(kind, ()))
            elif kind == NOT:
                mapping.append(self.not_(mapping[args[0]]))
            else:
                mapping.append(combinators[kind]([mapping[a] for a in args]))
        return [mapping[o] for o in sub.outputs]

    def build(self, outputs: Sequence[int]) -> Circuit:
        return Circuit(self.n, tuple(self.gates), tuple(outputs), self.fanin_mode)


# DNFs.

class Dnf(Frozen):
    """Terms as (positive literal mask, negative literal mask) pairs.

    Size is the number of terms.  Canonical order is (total weight, masks).
    A term with both masks empty is the constant-true term.
    """

    __slots__ = ("nvars", "terms")
    nvars: int
    terms: tuple[tuple[int, int], ...]

    @classmethod
    def make(cls, nvars: int, terms: Iterable[tuple[int, int]]) -> "Dnf":
        # a contradictory term accepts nothing
        uniq = {(pos, neg) for pos, neg in terms if not pos & neg}
        ordered = sorted(
            uniq, key=lambda t: (bin(t[0]).count("1") + bin(t[1]).count("1"), t[0], t[1])
        )
        return cls(nvars, tuple(ordered))

    def truth_table(self) -> int:
        """The OR over terms of the AND of their literals' truth tables, read
        off the flip table: x_j = 0 is `zero`, x_j = 1 its complement."""
        out, full, flips = 0, (1 << (1 << self.nvars)) - 1, flip_masks(self.nvars)
        for pos, neg in self.terms:
            term = 0 if pos >> self.nvars else full  # x_j for j >= nvars is 0
            for j, (_, zero) in enumerate(flips):
                if pos >> j & 1:
                    term &= ~zero
                if neg >> j & 1:
                    term &= zero
            out |= term
        return out

    def has_negative_literals(self) -> bool:
        return any(neg for _, neg in self.terms)

    def to_circuit(self) -> Circuit:
        b = Builder(self.nvars)
        ins = [b.input(i) for i in range(self.nvars)]
        term_gates = []
        for pos, neg in self.terms:
            lits = [ins[i] for i in range(self.nvars) if (pos >> i) & 1]
            lits += [b.not_(ins[i]) for i in range(self.nvars) if (neg >> i) & 1]
            term_gates.append(b.and_(lits))
        return b.build([b.or_(term_gates)])


def monotone_violation(nvars: int, table: int) -> tuple[int, int] | None:
    """A pair x <= y with f(x)=1 and f(y)=0, or None when f is monotone.

    The witness is the smallest such x, then the smallest flipped bit j.
    """
    best = None
    for j, (shift, zero) in enumerate(flip_masks(nvars)):
        bad = table & ~(table >> shift) & zero  # x_j = 0, f(x) = 1, f(x | 2^j) = 0
        if bad:
            x = (bad & -bad).bit_length() - 1
            if best is None or x < best[0]:
                best = (x, x | 1 << j)
    return best


@functools.lru_cache(maxsize=64)
def flip_masks(nvars: int) -> tuple[tuple[int, int], ...]:
    """The flip table over 2**nvars inputs: per variable j, (2**j, the truth
    table of "x_j = 0"), the pattern of x_j moved down by one block.

    Flipping x_j in a table (or in a set of inputs) t is
    ((t & zero) << shift) | ((t >> shift) & zero).
    """
    return tuple((1 << j, input_pattern(j, nvars) >> (1 << j)) for j in range(nvars))


def monotone_tables(nvars: int) -> list[int]:
    """Every monotone truth table over 0 <= nvars <= 4 variables, ascending,
    found by testing all 2**2**nvars tables in blocks of at most 4,096: lane
    i of a block's word (max(8, 2**nvars) bits) holds table start + i, and
    monotone_violation's `t & ~(t >> shift) & zero`, with `zero` in every
    lane, leaves the lanes of exactly the monotone tables 0."""
    if not 0 <= nvars <= 4:
        raise ValueError(f"monotone_tables takes 0 <= nvars <= 4, not {nvars}")
    bits, count = max(8, 1 << nvars), 1 << (1 << nvars)
    ramp, ones, lanes = 0, 1, 1  # lane i of ramp holds i, and of ones 1
    while lanes < min(count, 4096):
        ramp |= (ramp + lanes * ones) << (bits * lanes)
        ones |= ones << (bits * lanes)
        lanes *= 2
    flips = [(shift, zero * ones) for shift, zero in flip_masks(nvars)]
    found = []
    for start in range(0, count, lanes):
        word, bad = ramp + start * ones, 0
        for shift, zeros in flips:
            bad |= word & ~(word >> shift) & zeros
        for k in reversed(range(bits.bit_length() - 1)):  # OR each lane down into its bit 0
            bad |= bad >> (1 << k)
        good = ones & ~bad
        while good:
            low = good & -good
            found.append(start + (low.bit_length() - 1) // bits)
            good ^= low
    return found


def _require_monotone(nvars: int, table: int, what: str) -> None:
    """MonotonePreconditionError with a violating input pair unless f is monotone."""
    bad = monotone_violation(nvars, table)
    if bad is not None:
        lo, hi = bad
        raise MonotonePreconditionError(f"{what}: f({lo:b}) > f({hi:b})", lo, hi)


def quine_strip(d: Dnf) -> Dnf:
    """Drop every negative literal; sound exactly for monotone functions.

    Raises MonotonePreconditionError with a violating input pair otherwise.
    """
    table = d.truth_table()
    _require_monotone(d.nvars, table, "DNF computes a non-monotone function")
    stripped = Dnf.make(d.nvars, ((pos, 0) for pos, _ in d.terms))
    assert stripped.truth_table() == table
    return stripped


def _minimal_ones(nvars: int, table: int) -> Iterator[int]:
    """The 1-inputs of table, lowest first, with no 1-input one bit below
    them (x with one set bit cleared); for a monotone table these are its
    minimal 1-inputs.  Each flip moves the 1-inputs with x_j = 0 up by 2**j."""
    rest = table & ((1 << (1 << nvars)) - 1)
    for shift, zero in flip_masks(nvars):
        rest &= ~((table & zero) << shift)
    while rest:
        low = rest & -rest
        yield low.bit_length() - 1
        rest ^= low


def minterm_dnf(nvars: int, table: int) -> Dnf:
    """Canonical DNF of a monotone function: one positive term per minterm."""
    _require_monotone(nvars, table, "not monotone")
    return Dnf.make(nvars, ((x, 0) for x in _minimal_ones(nvars, table)))


def monotone_table_to_circuit(nvars: int, table: int) -> Circuit:
    """Monotone circuit (minterm DNF form) for a monotone truth table."""
    if table == 0:
        b = Builder(nvars)
        return b.build([b.const(0)])
    return minterm_dnf(nvars, table).to_circuit()


def count_minterms(nvars: int, table: int) -> int:
    """Number of minimal 1-inputs of a monotone function under the bitwise
    order, minterm_dnf's terms; MonotonePreconditionError otherwise."""
    return len(minterm_dnf(nvars, table).terms)


# Decision-tree 1-path DNFs.

def _cofactor(k: int, table: int, bit: int) -> int:
    """The subfunction of variables 1..k-1 with variable 0 fixed to bit."""
    sub = 0
    for pos in range(1 << (k - 1)):
        sub |= ((table >> (2 * pos + bit)) & 1) << pos
    return sub


def build_decision_tree(nvars: int, table: int) -> Dnf:
    """The DNF of the 1-paths of f's decision tree, one term per 1-leaf: the
    variables tested on the way to it, as (positive mask, negative mask).

    The tree splits on the smallest remaining variable index, pruning
    constant subfunctions and splits whose cofactors agree.  Its paths are
    disjoint, so every input satisfies at most one term.
    """
    terms: list[tuple[int, int]] = []
    stack = [(0, table, 0, 0)]  # (var, tbl, pos, neg); Dnf.make sorts the terms
    while stack:
        var, tbl, pos, neg = stack.pop()
        # tbl is a function of variables var..nvars-1, variable var lowest
        k = nvars - var
        if tbl == (1 << (1 << k)) - 1:
            terms.append((pos, neg))
        elif tbl:
            lo_t = _cofactor(k, tbl, 0)
            hi_t = _cofactor(k, tbl, 1)
            if lo_t == hi_t:
                stack.append((var + 1, lo_t, pos, neg))
            else:
                stack.append((var + 1, lo_t, pos, neg | 1 << var))
                stack.append((var + 1, hi_t, pos | 1 << var, neg))
    return Dnf.make(nvars, terms)
