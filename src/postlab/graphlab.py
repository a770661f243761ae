"""Simple graphs, odd factors, Tseitin systems, and their brute-force oracles.

Vertices are 0-based.  The text format is a `v <count>` line followed by
`e <i> <j>` lines; a count above MAX_GRAPH_VERTICES is refused before any
edge mask is built.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Sequence

from .boolfun import reach
from .circuit import flip_masks
from .config import Budgets, budgets
from .csp import XorSystem
from .errors import BudgetExceededError, RelationParseError
from .record import Frozen


class Graph(Frozen):
    """A simple graph on vertices 0..v-1 as its edge mask: bit
    pair_index(a, b, v) is set iff (a, b) is an edge."""

    v: int
    mask: int

    def __init__(self, v, mask):
        if v < 0:
            raise ValueError(f"graph needs v >= 0, got v={v}")
        if not 0 <= mask < 1 << v * (v - 1) // 2:
            raise ValueError(f"edge mask wider than the pairs of {v} vertices")
        state = self.__dict__  # the edges cached_property needs the dict anyway
        state["v"], state["mask"] = v, mask

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and (self.v, self.mask) == (other.v, other.mask)

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(_edge_pairs(self))

    @classmethod
    def from_edges(cls, v: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Loops are dropped and repeated edges merge."""
        buf = bytearray(-(-v * (v - 1) // 16))  # one bit per pair
        for a, b in edges:
            if a != b:
                i = pair_index(a, b, v)
                buf[i >> 3] |= 1 << (i & 7)
        return cls(v, int.from_bytes(buf, "little"))

    @classmethod
    def complete(cls, v: int) -> "Graph":
        return cls(v, (1 << v * (v - 1) // 2) - 1)

    @classmethod
    def from_edge_mask(cls, v: int, mask: int) -> "Graph":
        return cls(v, mask)

    def adjacency(self) -> list[int]:
        """Each vertex's neighbour bitset."""
        v = self.v
        if v > _TABLE_VERTICES:
            adj = [0] * v
            for a, b in _edge_pairs(self):
                adj[a] |= 1 << b
                adj[b] |= 1 << a
            return adj
        _, adjacency, _ = _byte_tables(v)
        packed = 0
        for table, byte in zip(adjacency, self.mask.to_bytes(len(adjacency), "little")):
            packed |= table[byte]
        return list(packed.to_bytes(v, "little"))

    def permuted(self, perm: list[int]) -> "Graph":
        """The image of each edge (a, b) is (perm[a], perm[b])."""
        v = self.v
        if sorted(perm) != list(range(v)):
            raise ValueError(f"{perm} is not a permutation of range({v})")
        if v > _TABLE_VERTICES:
            return Graph.from_edges(v, ((perm[a], perm[b]) for a, b in _edge_pairs(self)))
        *_, pair_bits = _byte_tables(v)
        mask = 0
        for a, b in _edge_pairs(self):
            mask |= pair_bits[perm[a]][perm[b]]
        return Graph(v, mask)


# Graphs on at most this many vertices (at most 28 pairs, four mask bytes)
# read their edges and adjacency from per-byte tables, a vertex's neighbours
# in one byte, and their permuted edges from a pair-bit table; larger graphs
# walk their mask.
_TABLE_VERTICES = 8


@lru_cache(maxsize=_TABLE_VERTICES + 1)
def _byte_tables(v: int) -> tuple[tuple, tuple, tuple[tuple[int, ...], ...]]:
    """Per byte k of an edge mask on v vertices and per value of that byte:
    its edges in pair order, and their adjacency with vertex u's neighbours
    in byte u.  Then the pair-bit table: row a, column b holds
    1 << pair_index(a, b, v), and 0 on the diagonal."""
    pairs = tuple(itertools.combinations(range(v), 2))  # in pair order
    edges, adjacency = [], []
    for k in range(0, len(pairs), 8):
        byte_pairs = pairs[k : k + 8]
        table = tuple(
            tuple(p for j, p in enumerate(byte_pairs) if byte >> j & 1) for byte in range(256)
        )
        edges.append(table)
        adjacency.append(tuple(sum(1 << 8 * a + b | 1 << 8 * b + a for a, b in e) for e in table))
    pair_bits = tuple(tuple(0 if a == b else 1 << pair_index(a, b, v) for b in range(v)) for a in range(v))
    return tuple(edges), tuple(adjacency), pair_bits


def _edge_pairs(g: Graph) -> tuple[tuple[int, int], ...]:
    """The edges in pair order, that is sorted."""
    if g.v > _TABLE_VERTICES:  # one C-level pass over the pairs
        bits = map(int, format(g.mask, "b")[::-1])
        return tuple(itertools.compress(itertools.combinations(range(g.v), 2), bits))
    edges, _, _ = _byte_tables(g.v)
    out: tuple[tuple[int, int], ...] = ()
    for table, byte in zip(edges, g.mask.to_bytes(len(edges), "little")):
        out += table[byte]
    return out


class BipGraph(Frozen):
    """Bipartite graph with n vertices on each side, as an n*n biadjacency mask."""

    __slots__ = ("n", "mask")
    n: int
    mask: int

    def __init__(self, n, mask):
        if n < 1:
            raise ValueError(f"bipartite graph needs n >= 1, got n={n}")
        if mask < 0 or mask >> (n * n):
            raise ValueError(f"biadjacency mask must lie in [0, 2^{n * n})")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mask", mask)

    def to_graph(self) -> Graph:
        """Cell i*n + j is the edge (i, n + j), so row i of the matrix lands
        on the consecutive pairs (i, n), ..., (i, 2n - 1)."""
        n = self.n
        full, mask, start = (1 << n) - 1, 0, n - 1  # start: pair_index(i, n, 2n)
        for i in range(n):
            mask |= ((self.mask >> i * n) & full) << start
            start += 2 * n - 2 - i
        return Graph(2 * n, mask)


# The text format's vertex limit: the edge mask of v vertices has v(v-1)/2
# bits, 64 KB at the limit.
MAX_GRAPH_VERTICES = 1024


def parse_graph(text: str) -> Graph:
    v = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "v" and len(parts) == 2:
            v = _parse_int(parts[1], lineno)
            if v > MAX_GRAPH_VERTICES:
                raise RelationParseError(
                    f"line {lineno}: v={v} is above the limit of {MAX_GRAPH_VERTICES} vertices"
                )
        elif parts[0] == "e" and len(parts) == 3:
            if v is None:
                raise RelationParseError(f"line {lineno}: edge before vertex count")
            edges.append((_parse_int(parts[1], lineno), _parse_int(parts[2], lineno)))
        else:
            raise RelationParseError(f"line {lineno}: expected `v <count>` or `e <i> <j>`")
    if v is None:
        raise RelationParseError("missing `v <count>` line")
    try:
        return Graph.from_edges(v, edges)
    except ValueError as exc:
        raise RelationParseError(str(exc)) from exc


def _parse_int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError as exc:
        raise RelationParseError(f"line {lineno}: bad integer {token!r}") from exc


def odd_factor_fast(g: Graph) -> bool:
    """Component-parity test: an odd factor exists iff every connected
    component has an even number of vertices."""
    adj = g.adjacency()
    seen = 0
    for s in range(g.v):
        if (seen >> s) & 1:
            continue
        comp = reach(adj, 1 << s)
        if comp.bit_count() % 2 == 1:
            return False
        seen |= comp
    return True


def _check_oracle_budget(edges: int, v: int, b: Budgets, held: int = 1) -> None:
    """A subset oracle walks 2**edges subsets and holds `held` parity
    bitmasks of 2**v bits each; both are bounded by oracle_edges."""
    limit = b.oracle_edges
    if edges > limit:
        raise BudgetExceededError(f"{edges} edges above oracle budget (oracle_edges={limit})")
    if v + (held - 1).bit_length() > limit:  # held * 2**v bits in all
        raise BudgetExceededError(f"{v} vertices above oracle budget (oracle_edges={limit})")


def odd_factor_oracle(g: Graph, budget: Budgets | None = None) -> bool:
    """Ground truth by enumeration over edge subsets.

    Walks the subset lattice edge by edge, keeping the set of degree-parity
    vectors achievable by the subsets considered so far (as a bitmask over
    all 2**v parity vectors); an odd factor exists iff the all-ones vector is
    achievable.  Independent of both the component-parity decider and
    Gaussian elimination.  `budget` is a budgets() snapshot for a sweep that
    reads POSTLAB_BUDGET once per chunk of graphs instead of once per graph.
    """
    _check_oracle_budget(g.mask.bit_count(), g.v, budget or budgets())
    flips = flip_masks(g.v)
    achievable = 1  # only the all-zeros parity vector
    for a, bv in _edge_pairs(g):
        shifted = achievable
        for vertex in (a, bv):
            shift, low = flips[vertex]
            shifted = ((shifted & low) << shift) | ((shifted >> shift) & low)
        achievable |= shifted
    return bool((achievable >> ((1 << g.v) - 1)) & 1)


def odd_factor_verdicts(v: int, edges: Sequence[tuple[int, int]]) -> Iterator[bool]:
    """Odd-factor existence on v vertices for every subset of `edges`, in
    mask order: mask m takes edges[c] for each set bit c of m.

    `odd_factor_oracle`'s subset-lattice enumeration, shared across masks:
    the achievable parity sets of all subsets of the low half of `edges` and
    of the high half are each built once, by doubling a list edge by edge.
    Mask m has an odd factor iff some x achievable by its low part and y by
    its high part have x ^ y all ones, that is iff its low set meets the high
    set reflected through the all-ones vector (bit p to bit 2**v - 1 - p).
    """
    half = len(edges) // 2
    _check_oracle_budget(len(edges), v, budgets(), held=(1 << half) + (1 << len(edges) - half))
    low = _achievable_sets(v, edges[:half])
    for high in _achievable_sets(v, edges[half:]):
        reflected = int(format(high, f"0{1 << v}b")[::-1], 2)
        yield from map(bool, map(reflected.__and__, low))


def _achievable_sets(v: int, edges: Sequence[tuple[int, int]]) -> list[int]:
    """The achievable parity set of each subset of `edges`, by subset mask."""
    flips = flip_masks(v)
    sets = [1]  # the empty subset reaches only the all-zeros vector
    for a, b in edges:
        (sa, la), (sb, lb) = flips[a], flips[b]
        flipped = [((s & la) << sa) | ((s >> sa) & la) for s in sets]
        sets += [s | ((t & lb) << sb) | ((t >> sb) & lb) for s, t in zip(sets, flipped)]
    return sets


def tseitin_system(g: Graph) -> XorSystem:
    """The Tseitin encoding of odd-factor existence: one variable per edge
    (sorted order), one parity-1 equation per vertex over its incident edges.

    `csp.xor_system_to_instance` turns it into a 3-XOR-SAT instance.
    """
    incidence = [0] * g.v
    for i, (a, b) in enumerate(_edge_pairs(g)):
        incidence[a] |= 1 << i
        incidence[b] |= 1 << i
    return XorSystem(max(g.mask.bit_count(), 1), tuple((mask, 1) for mask in incidence))


def bip_odd_factor(graph: BipGraph) -> bool:
    """Odd factor existence in a bipartite graph, via the general-graph embedding."""
    return odd_factor_fast(graph.to_graph())


def pair_index(i: int, j: int, v: int) -> int:
    """Position of the unordered pair (i, j) in lexicographic pair order."""
    if i > j:
        i, j = j, i
    if not 0 <= i < j < v:
        raise ValueError(f"bad pair ({i},{j}) for {v} vertices")
    return i * v - i * (i + 1) // 2 + (j - i - 1)

