"""Explicit circuit constructions, each verified against brute-force oracles.

Covers the checkpoint depth reduction of layered branching programs,
threshold circuits, the induced-subgraph extractor, graph-property padding,
dummy-input padding, and the monotone CSP-SAT circuits for the tractable
fragments (forward chaining and transitive closure by repeated squaring).
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from typing import Sequence

from .boolfun import RelationSet, json_int, json_list
from .circuit import (
    BOUNDED2,
    UNBOUNDED,
    Builder,
    Circuit,
    input_pattern,
    monotone_violation,
    truth_tables,
)
from .clone_lattice import DEPTH_EASY_CLONES
from .config import budgets
from .csp import TRACTABLE, CspInstance, first_clone, fragment_table, or_fragment_side
from .errors import BudgetExceededError, FragmentMismatchError
from .graphlab import pair_index
from .record import Frozen
from .reductions import BitReduction

PARITY = "parity"
REACH = "reach"

CONST_GUARD = "const"
LIT_GUARD = "lit"

# checkpoint_circuit recurses once per level and hits Python's default
# recursion limit near d = 500; d stops well below that (depth 512)
MAX_CHECKPOINT_D = 256


class LayeredBP(Frozen):
    """Layered branching program: nodes (t, i) with 0 <= i < widths[t], edges
    only between consecutive layers, guarded by a literal or a constant.

    edges[t] lists (u, v, guard) from layer t to t+1; guards are
    ("const", b) or ("lit", var, positive) with positive a bool.  Every
    start-accept path has length len(widths) - 1.
    """

    __slots__ = ("n", "widths", "edges", "start", "accept")
    n: int
    widths: tuple[int, ...]
    edges: tuple[tuple[tuple[int, int, tuple], ...], ...]
    start: int
    accept: int

    def __init__(self, n, widths, edges, start=0, accept=0):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "widths", widths)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "accept", accept)
        if len(self.widths) < 2:
            raise ValueError("need at least two layers")
        if len(self.edges) != len(self.widths) - 1:
            raise ValueError("edge layer count mismatch")
        for t, layer in enumerate(self.edges):
            for u, v, guard in layer:
                if not (0 <= u < self.widths[t] and 0 <= v < self.widths[t + 1]):
                    raise ValueError(f"edge out of range in layer {t}")
                if guard[0] == CONST_GUARD:
                    if len(guard) != 2 or guard[1] not in (0, 1):
                        raise ValueError(f'constant guard {list(guard)} is not ["const", 0|1]')
                elif guard[0] == LIT_GUARD:
                    if len(guard) != 3 or not isinstance(guard[2], bool):
                        raise ValueError(
                            f'literal guard {list(guard)} is not ["lit", var, true|false]'
                        )
                    if not 0 <= guard[1] < self.n:
                        raise ValueError("guard variable out of range")
                else:
                    raise ValueError(f"unknown guard {guard[0]!r}")
        if not 0 <= self.start < self.widths[0]:
            raise ValueError("start out of range")
        if not 0 <= self.accept < self.widths[-1]:
            raise ValueError("accept out of range")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LayeredBP) and (self.n, self.widths, self.edges, self.start, self.accept) == (
            other.n, other.widths, other.edges, other.start, other.accept
        )

    @property
    def length(self) -> int:
        return len(self.widths) - 1

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "widths": list(self.widths),
            "start": self.start,
            "accept": self.accept,
            "edges": [
                [[u, v, list(guard)] for u, v, guard in layer] for layer in self.edges
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "LayeredBP":
        edges = tuple(
            tuple(_edge_from_json(edge) for edge in json_list(layer, "edge layer", "a list of edges"))
            for layer in json_list(obj["edges"], "edges", "a list of edge layers")
        )
        return cls(
            json_int(obj["n"], "n"),
            tuple(json_int(w, "width") for w in json_list(obj["widths"], "widths")),
            edges,
            json_int(obj["start"], "start"),
            json_int(obj["accept"], "accept"),
        )


def _edge_from_json(edge) -> tuple:
    u, v, guard = json_list(edge, "edge", "[source, target, guard]", (3,))
    return (json_int(u, "edge source"), json_int(v, "edge target"), _guard_from_json(guard))


def _guard_from_json(guard) -> tuple:
    shape = '["const", 0|1] or ["lit", var, true|false]'
    kind, value, *rest = json_list(guard, "guard", shape, (2, 3))
    what = "guard constant" if kind == CONST_GUARD else "guard variable"
    return (kind, json_int(value, what), *rest)


def bp_truth_table(bp: LayeredBP, mode: str = PARITY) -> int:
    """Truth table over all 2**n inputs: bit x is the parity of the accepting
    paths on x (PARITY) or whether one exists (REACH).  The layer-by-layer
    path count keeps one word per node, with one bit per input."""
    combine = {PARITY: operator.xor, REACH: operator.or_}[mode]
    full = (1 << (1 << bp.n)) - 1
    holds = {(CONST_GUARD, 0): 0, (CONST_GUARD, 1): full}
    for var in range(bp.n):
        word = input_pattern(var, bp.n)
        holds[LIT_GUARD, var, True], holds[LIT_GUARD, var, False] = word, full ^ word
    words = [0] * bp.widths[0]
    words[bp.start] = full
    for t, layer in enumerate(bp.edges):
        nxt = [0] * bp.widths[t + 1]
        for u, v, guard in layer:
            nxt[v] = combine(nxt[v], words[u] & holds[guard])
        words = nxt
    return words[bp.accept]


def checkpoint_circuit(bp: LayeredBP, d: int, mode: str = PARITY) -> Circuit:
    """Unbounded fan-in circuit of depth exactly 2*d for the guarded BP.

    Each of the d recursion levels splits its interval into about L**(1/r)
    balanced segments, sums (XOR in parity mode, OR in reach mode) over all
    checkpoint choices the AND of the segment subcircuits, and bottoms out by
    enumerating full paths.  Depth is exactly 2*d whenever some start-accept
    path exists structurally.
    """
    if mode not in (PARITY, REACH):
        raise ValueError(f"unknown mode {mode!r}")
    if not 1 <= d <= MAX_CHECKPOINT_D:
        raise ValueError(f"d must be between 1 and {MAX_CHECKPOINT_D}, got {d}")
    b = Builder(bp.n, UNBOUNDED)
    combine = b.xor_ if mode == PARITY else b.or_

    guards: dict[tuple, int] = {}  # one gate per distinct guard, not one per path occurrence

    def guard_gate(guard: tuple) -> int:
        got = guards.get(guard)
        if got is None:
            if guard[0] == CONST_GUARD:
                got = b.const(guard[1])
            else:
                _, var, positive = guard
                got = b.input(var) if positive else b.not_(b.input(var))
            guards[guard] = got
        return got

    adjacency: list[dict[int, list[tuple[int, tuple]]]] = []
    for layer in bp.edges:
        adj: dict[int, list[tuple[int, tuple]]] = {}
        for u, v, guard in layer:
            adj.setdefault(u, []).append((v, guard))
        adjacency.append(adj)

    def enumerate_paths(t0: int, t1: int, s: int, t: int) -> list[list[tuple]]:
        if t0 == t1:
            return [[]] if s == t else []
        out = []
        for v, guard in adjacency[t0].get(s, ()):
            for rest in enumerate_paths(t0 + 1, t1, v, t):
                out.append([guard] + rest)
        return out

    memo: dict[tuple[int, int, int, int, int], int] = {}

    def build(t0: int, t1: int, s: int, t: int, r: int) -> int:
        key = (t0, t1, s, t, r)
        got = memo.get(key)
        if got is not None:
            return got
        length = t1 - t0
        if r == 1:
            paths = enumerate_paths(t0, t1, s, t)
            gate = combine([b.and_([guard_gate(g) for g in p]) for p in paths])
        else:
            segments = max(1, math.ceil(length ** (1.0 / r)))
            segments = min(segments, max(length, 1))
            base, extra = divmod(length, segments)
            boundaries = [t0]
            for i in range(segments):
                boundaries.append(boundaries[-1] + base + (1 if i < extra else 0))
            inner = boundaries[1:-1]
            choices = itertools.product(*(range(bp.widths[t_]) for t_ in inner))
            terms = []
            for choice in choices:
                nodes = (s,) + choice + (t,)
                terms.append(
                    b.and_(
                        [
                            build(boundaries[i], boundaries[i + 1], nodes[i], nodes[i + 1], r - 1)
                            for i in range(segments)
                        ]
                    )
                )
            gate = combine(terms)
        memo[key] = gate
        return gate

    top = build(0, bp.length, bp.start, bp.accept, d)
    return b.build([top])


_BP_MAX_LENGTH = 9
_BP_MAX_WIDTH = 3


def random_layered_bp(rng: random.Random, n: int) -> LayeredBP:
    """Random layered BP with at least one structural start-accept path."""
    length = rng.randrange(1, _BP_MAX_LENGTH + 1)
    widths = [rng.randrange(1, _BP_MAX_WIDTH + 1) for _ in range(length + 1)]
    start = rng.randrange(widths[0])
    accept = rng.randrange(widths[-1])
    spine = [start]
    for t in range(1, length):
        spine.append(rng.randrange(widths[t]))
    spine.append(accept)

    def rand_guard():
        roll = rng.random()
        if roll < 0.12:
            return (CONST_GUARD, 1)
        if roll < 0.18:
            return (CONST_GUARD, 0)
        return (LIT_GUARD, rng.randrange(n), rng.random() < 0.5)

    edges = []
    for t in range(length):
        layer = {(spine[t], spine[t + 1]): rand_guard()}
        for _ in range(rng.randrange(0, 2 * _BP_MAX_WIDTH)):
            u = rng.randrange(widths[t])
            v = rng.randrange(widths[t + 1])
            layer.setdefault((u, v), rand_guard())
        edges.append(tuple((u, v, g) for (u, v), g in sorted(layer.items())))
    return LayeredBP(n, tuple(widths), tuple(edges), start, accept)


# Threshold circuits.

def _at_least(b: Builder, bits: Sequence[int], t: int) -> int:
    """Gate computing (number of set bits >= t), shaped by b's fan-in mode.

    UNBOUNDED: the OR, over the t-subsets of bits, of their AND (depth 2).
    BOUNDED2: a tree of counting merges, each cut off at t (depth at most
    ceil(log2 len) * (1 + ceil(log2 (t + 1)))).
    """
    if t <= 0:
        return b.const(1)
    if t > len(bits):
        return b.const(0)
    if b.fanin_mode == UNBOUNDED:
        if math.comb(len(bits), t) > budgets().flat_threshold_terms:
            raise BudgetExceededError(f"C({len(bits)},{t}) terms exceed the flat threshold budget")
        return b.or_([b.and_(subset) for subset in itertools.combinations(bits, t)])
    return _sorted_unary(b, bits, t)[t - 1]


def _sorted_unary(b: Builder, bits: Sequence[int], cap: int) -> list[int]:
    """bits sorted descending and cut off at cap: entry s - 1 computes
    (count >= s) for s <= min(len(bits), cap)."""
    if len(bits) <= 1:
        return list(bits)
    mid = 1 << ((len(bits) - 1).bit_length() - 1)
    left = _sorted_unary(b, bits[:mid], cap)
    right = _sorted_unary(b, bits[mid:], cap)
    la, lb = len(left), len(right)
    out = []
    for s in range(1, min(la + lb, cap) + 1):
        terms = []
        for i in range(max(0, s - lb), min(la, s) + 1):
            j = s - i
            if i == 0:
                terms.append(right[j - 1])
            elif j == 0:
                terms.append(left[i - 1])
            else:
                terms.append(b.and_([left[i - 1], right[j - 1]]))
        out.append(b.or_(terms))
    return out


def threshold_circuit(k: int, n: int, fanin_mode: str = BOUNDED2) -> Circuit:
    """Monotone circuit for THR_{k,n}(x) = 1 iff weight(x) >= k.

    BOUNDED2: fan-in-two tree of counting merges (depth about log^2 n at
    this scale).  UNBOUNDED: OR over all k-subsets (depth 2).
    """
    if n < 0:
        raise ValueError(f"threshold needs n >= 0, got n={n}")
    if not 0 <= k <= n + 1:
        raise ValueError(f"threshold needs 0 <= k <= n + 1, got k={k}")
    b = Builder(n, fanin_mode)
    return b.build([_at_least(b, [b.input(i) for i in range(n)], k)])


# Induced subgraph extraction.

def induced_subgraph_circuit(n: int, k: int, fanin_mode: str = BOUNDED2) -> Circuit:
    """Inputs: C(n,2) adjacency bits then n selector bits; outputs the
    adjacency of the subgraph induced by the selected vertices in selection
    order, padded with isolated vertices below k.

    Output bit for pair (i, j) ORs, over vertex pairs a < b, the test that a
    is the i-th selected vertex, b the j-th, and the edge ab present.  When
    more than k vertices are selected the outputs describe the first k, which
    callers must guard against (the padding construction does).  The
    selector counts come from _at_least, so UNBOUNDED gives constant depth
    and BOUNDED2 depth O(log n log k).  UNBOUNDED counts with up to
    C(n-1, k) terms, which flat_threshold_terms limits: at the default
    2^18, k = 4 builds up to n = 52.
    """
    if n < 0:
        raise ValueError(f"induced subgraph needs n >= 0, got n={n}")
    if not 0 <= k <= n:
        raise ValueError(f"induced subgraph needs 0 <= k <= n, got k={k}")
    ne = n * (n - 1) // 2
    b = Builder(ne + n, fanin_mode)
    edge_in = [b.input(i) for i in range(ne)]
    alpha = [b.input(ne + a) for a in range(n)]
    # sel[i][a]: alpha_a is set and exactly i selector bits before it are
    sel = [[0] * n for _ in range(k)]
    for a in range(n):
        # largest t first: the pinned gate order emits const(1) (t = 0) last
        count = [_at_least(b, alpha[:a], t) for t in range(k, -1, -1)][::-1]
        for i in range(k):
            sel[i][a] = b.and_([alpha[a], count[i], b.not_(count[i + 1])])
    outputs = []
    for i in range(k):
        for j in range(i + 1, k):
            terms = []
            for a in range(n):
                for bb in range(a + 1, n):
                    terms.append(
                        b.and_([sel[i][a], sel[j][bb], edge_in[pair_index(a, bb, n)]])
                    )
            outputs.append(b.or_(terms))
    return b.build(outputs)


# Graph-property padding.

class GraphPropertyCircuit(Frozen):
    __slots__ = ("vertices", "circuit", "name")
    vertices: int
    circuit: Circuit
    name: str

    def __init__(self, vertices, circuit, name=""):
        expect = vertices * (vertices - 1) // 2
        if circuit.n != expect:
            raise ValueError(f"circuit must take {expect} edge inputs")
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "circuit", circuit)
        object.__setattr__(self, "name", name)


def padded_graph_property(
    prop: GraphPropertyCircuit, big_n: int, fanin_mode: str = BOUNDED2
) -> tuple[GraphPropertyCircuit, BitReduction]:
    """Lift an n-vertex monotone graph property to big_n vertices.

    The lifted property accepts when more than n vertices are non-isolated,
    or the original property holds on the subgraph induced by the
    non-isolated vertices (padded with isolated vertices).  No edge count is
    needed: at most n non-isolated vertices carry at most C(n,2) edges.
    Also returns the planted-copy embedding, a monotone projection with
    f(G) = g(embed(G)).  UNBOUNDED builds a constant-depth circuit (the
    paper's AC0 profile), BOUNDED2 one of depth O(log big_n) for fixed n.
    UNBOUNDED's vertex count has C(big_n, n+1) terms, which
    flat_threshold_terms limits: at the default 2^18, n = 4 builds up to
    big_n = 33.
    """
    n = prop.vertices
    if big_n <= n:
        raise ValueError("padding needs big_n > n")
    small_edges = n * (n - 1) // 2
    viol = monotone_violation(small_edges, truth_tables(prop.circuit)[0]) if small_edges <= 16 else None
    if viol is not None:
        raise FragmentMismatchError("property is not monotone; padding needs monotone f")
    ne = big_n * (big_n - 1) // 2
    b = Builder(ne, fanin_mode)
    edge_in = [b.input(i) for i in range(ne)]
    alpha = []
    for i in range(big_n):
        alpha.append(b.or_([edge_in[pair_index(i, j, big_n)] for j in range(big_n) if j != i]))
    weight_over = _at_least(b, alpha, n + 1)
    extractor = induced_subgraph_circuit(big_n, n, fanin_mode)
    induced = b.emit_circuit(extractor, edge_in + alpha)
    f_out = b.emit_circuit(prop.circuit, induced)[0]
    g = b.or_([weight_over, f_out])
    circuit = b.build([g])
    planted = itertools.combinations(range(n), 2)  # in pair_index order, as the inputs are
    embedding = BitReduction(ne, 0, tuple(1 << pair_index(i, j, big_n) for i, j in planted))
    name = f"{prop.name}_padded{big_n}" if prop.name else f"padded{big_n}"
    return GraphPropertyCircuit(big_n, circuit, name), embedding


def pad_dummy_inputs(c: Circuit, extra: int) -> Circuit:
    """Same circuit over extra ignored input variables; measures unchanged."""
    if extra < 0:
        raise ValueError("extra must be >= 0")
    return Circuit(c.n + extra, c.gates, c.outputs, c.fanin_mode)


# Monotone CSP-SAT circuits for the tractable fragments.

def detect_fragment(sset: RelationSet) -> str:
    """The emitter of the first clone inside Pol(sset), read off csp.TRACTABLE.

    The depth-EASY clones go first: I1 and I0 (a constant circuit), S00 and
    S10 (the OR/NAND menu) and D2 (2-SAT), then E2 (Horn) and V2
    (anti-Horn).  Raises FragmentMismatchError on the size-HARD sets.
    """
    clone = first_clone(sset, DEPTH_EASY_CLONES + ("E2", "V2"))
    if clone is None:
        raise FragmentMismatchError("relation set fits no supported monotone-circuit fragment")
    return TRACTABLE[clone][2]


def emit_monotone_csp_circuit(
    sset: RelationSet, n: int, fragment: str = "auto"
) -> Circuit:
    """Syntactically monotone circuit over the N instance bits computing CSP-SAT.

    Horn/anti-Horn unroll n rounds of forward-chain marking; the 2-SAT and
    OR-fragment emitters build the implication (or entailment) graph, whose
    edges are ORs of instance bits, and close it by repeated squaring,
    skipped when the graph has no edge.  fragment names an emitter of the
    last column of csp.TRACTABLE; the constant circuit of the I0/I1 sets is
    chosen by "auto" only.  The Horn, anti-Horn and 2-SAT emitters read
    csp.fragment_table, so they refuse a set at every n exactly when their
    solvers do, with the same FragmentMismatchError.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if fragment == "auto":
        fragment = detect_fragment(sset)
    elif fragment == "constant" or fragment not in _EMITTERS:
        raise ValueError(f"unknown fragment {fragment!r}")
    return _EMITTERS[fragment](sset, n)


def _bit_inputs(sset: RelationSet, n: int, table):
    """A builder over the N instance bits, and (input gate, table entry) for
    each of the N applications, in bit order."""
    size = CspInstance(sset, n).size
    b = Builder(size, UNBOUNDED)
    return b, [(b.input(j), table[j]) for j in range(size)]


def _emit_constant(sset: RelationSet, n: int) -> Circuit:
    """I0/I1 sets: like csp's trivial solver, only an empty clause refutes."""
    b, bits = _bit_inputs(sset, n, fragment_table(sset, n, "I2"))
    return b.build([b.or_([bit for bit, entry in bits if ((), ()) in entry])])


def _emit_horn(sset: RelationSet, n: int, clone: str = "E2") -> Circuit:
    """Forward chaining over the Horn rules of fragment_table: clone E2 for
    the Horn emitter, V2 (the negated relations) for the anti-Horn one."""
    b, bits = _bit_inputs(sset, n, fragment_table(sset, n, clone))
    direct = []
    seeds: dict[int, list[int]] = {}
    implications: list[tuple[int, int, list[int]]] = []  # (bit, head, body)
    violations: list[tuple[int, list[int]]] = []
    for bit, rules in bits:
        for body_mask, head_mask in rules:
            body = [v for v in range(n) if (body_mask >> v) & 1]
            head = head_mask.bit_length() - 1
            if head_mask and not body:
                seeds.setdefault(head, []).append(bit)
            elif head_mask:
                implications.append((bit, head, body))
            elif body:
                violations.append((bit, body))
            else:
                direct.append(bit)
    marks = [b.or_(seeds.get(v, [])) for v in range(n)]
    for _ in range(n):
        new = list(marks)
        for bit, head, body in implications:
            term = b.and_([bit] + [marks[v] for v in body])
            new[head] = b.or_([new[head], term])
        marks = new
    refuted = [b.and_([bit] + [marks[v] for v in body]) for bit, body in violations]
    return b.build([b.or_(direct + refuted)])


def _closure_by_squaring(
    b: Builder, edge_bits: dict[tuple[int, int], list[int]], size: int
) -> list[list[int]]:
    """Reachability matrix of the graph on range(size) whose edge (u, v) is
    the OR of edge_bits[u, v]: the reflexive base matrix squared
    max(1, ceil(log2 size)) times, or not at all when the graph has no edge."""
    reach = [
        [b.const(1) if u == v else b.or_(edge_bits.get((u, v), [])) for v in range(size)]
        for u in range(size)
    ]
    rounds = max(1, (size - 1).bit_length()) if edge_bits else 0
    for _ in range(rounds):
        nxt = [[None] * size for _ in range(size)]
        for u in range(size):
            for v in range(size):
                terms = [reach[u][v]]
                terms.extend(b.and_([reach[u][w], reach[w][v]]) for w in range(size))
                nxt[u][v] = b.or_(terms)
        reach = nxt
    return reach


def _emit_twosat(sset: RelationSet, n: int) -> Circuit:
    b, bits = _bit_inputs(sset, n, fragment_table(sset, n, "D2"))
    direct = []
    # literal node: 2v for x_v, 2v + 1 for not x_v, as in csp._implications
    edge_bits: dict[tuple[int, int], list[int]] = {}
    for bit, edges in bits:
        if edges is None:
            direct.append(bit)
            continue
        # a unit clause lists its one edge twice; the bit joins it once
        for source, target in dict.fromkeys(edges):
            edge_bits.setdefault((source, target.bit_length() - 1), []).append(bit)
    reach = _closure_by_squaring(b, edge_bits, 2 * n)
    contradictions = [
        b.and_([reach[2 * v][2 * v + 1], reach[2 * v + 1][2 * v]]) for v in range(n)
    ]
    return b.build([b.or_(direct + contradictions)])


def _emit_or_fragment(sset: RelationSet, n: int) -> Circuit:
    side = or_fragment_side(sset)
    b, bits = _bit_inputs(sset, n, fragment_table(sset, n, "I2"))
    edge_bits: dict[tuple[int, int], list[int]] = {}
    unit_bits: dict[int, list[int]] = {}
    disjunctions: list[tuple[int, tuple[int, ...]]] = []
    for bit, entry in bits:
        for pos, neg in entry:
            if len(pos) == len(neg) == 1:
                edge_bits.setdefault((neg[0], pos[0]), []).append(bit)
            elif len(pos) + len(neg) == 1 and bool(pos) == (side == "nand"):
                unit_bits.setdefault((pos + neg)[0], []).append(bit)
            else:
                disjunctions.append((bit, pos + neg))
    reach = _closure_by_squaring(b, edge_bits, n)
    units = [b.or_(unit_bits.get(v, [])) for v in range(n)]
    if side == "or":
        bad = [b.or_([b.and_([reach[v][w], units[w]]) for w in range(n)]) for v in range(n)]
    else:
        bad = [b.or_([b.and_([reach[u][v], units[u]]) for u in range(n)]) for v in range(n)]
    failures = [
        b.and_([bit] + [bad[v] for v in vars_]) for bit, vars_ in disjunctions
    ]
    return b.build([b.or_(failures)])


_EMITTERS = {
    "constant": _emit_constant,
    "horn": _emit_horn,
    "antihorn": lambda sset, n: _emit_horn(sset, n, "V2"),
    "2sat": _emit_twosat,
    "or_fragment": _emit_or_fragment,
}
