"""Simple graphs, odd factors, Tseitin systems, and their brute-force oracles.

Vertices are 0-based.  The text format is a `v <count>` line followed by
`e <i> <j>` lines.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from .config import Budgets, budgets
from .csp import XorSystem
from .errors import BudgetExceededError, RelationParseError


@dataclass(frozen=True)
class Graph:
    v: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        for a, b in self.edges:
            if not (0 <= a < b < self.v):
                raise ValueError(f"bad edge ({a},{b}) for {self.v} vertices")

    @classmethod
    def from_edges(cls, v: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        norm = frozenset((min(a, b), max(a, b)) for a, b in edges if a != b)
        return cls(v, norm)

    @classmethod
    def complete(cls, v: int) -> "Graph":
        return cls(v, frozenset(itertools.combinations(range(v), 2)))

    @classmethod
    def from_edge_mask(cls, v: int, mask: int) -> "Graph":
        pairs = list(itertools.combinations(range(v), 2))
        return cls(v, frozenset(p for i, p in enumerate(pairs) if (mask >> i) & 1))

    def adjacency(self) -> list[int]:
        adj = [0] * self.v
        for a, b in self.edges:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        return adj

    def permuted(self, perm: list[int]) -> "Graph":
        return Graph.from_edges(self.v, ((perm[a], perm[b]) for a, b in self.edges))


@dataclass(frozen=True)
class BipGraph:
    """Bipartite graph with n vertices on each side, as an n*n biadjacency mask."""

    n: int
    mask: int

    def __post_init__(self):
        if self.mask < 0 or self.mask >> (self.n * self.n):
            raise ValueError("biadjacency mask larger than n*n")

    def has_edge(self, i: int, j: int) -> bool:
        return bool((self.mask >> (i * self.n + j)) & 1)

    def to_graph(self) -> Graph:
        edges = [
            (i, self.n + j)
            for i in range(self.n)
            for j in range(self.n)
            if self.has_edge(i, j)
        ]
        return Graph.from_edges(2 * self.n, edges)


def parse_graph(text: str) -> Graph:
    v = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "v" and len(parts) == 2:
            v = int(parts[1])
        elif parts[0] == "e" and len(parts) == 3:
            if v is None:
                raise RelationParseError(f"line {lineno}: edge before vertex count")
            edges.append((int(parts[1]), int(parts[2])))
        else:
            raise RelationParseError(f"line {lineno}: expected `v <count>` or `e <i> <j>`")
    if v is None:
        raise RelationParseError("missing `v <count>` line")
    try:
        return Graph.from_edges(v, edges)
    except ValueError as exc:
        raise RelationParseError(str(exc)) from exc


def format_graph(g: Graph) -> str:
    lines = [f"v {g.v}"]
    lines.extend(f"e {a} {b}" for a, b in sorted(g.edges))
    return "\n".join(lines) + "\n"


def odd_factor_fast(g: Graph) -> bool:
    """Component-parity test: an odd factor exists iff every connected
    component has an even number of vertices."""
    adj = g.adjacency()
    seen = 0
    for s in range(g.v):
        if (seen >> s) & 1:
            continue
        comp = 1 << s
        frontier = 1 << s
        while frontier:
            nxt = 0
            m = frontier
            while m:
                low = m & -m
                nxt |= adj[low.bit_length() - 1]
                m ^= low
            frontier = nxt & ~comp
            comp |= frontier
        if bin(comp).count("1") % 2 == 1:
            return False
        seen |= comp
    return True


@lru_cache(maxsize=64)
def _xor_shuffle_masks(v: int) -> tuple[tuple[int, int, int], ...]:
    # for each vertex bit: (shift, low-half mask, high-half mask) over the
    # 2**v positions, used to permute an achievable-set bitmask by xor
    out = []
    size = 1 << v
    full = (1 << size) - 1
    for b in range(v):
        shift = 1 << b
        low = 0
        for p in range(size):
            if not (p >> b) & 1:
                low |= 1 << p
        out.append((shift, low, full & ~low))
    return tuple(out)


def odd_factor_oracle(g: Graph, budget: Budgets | None = None) -> bool:
    """Ground truth by enumeration over edge subsets.

    Walks the subset lattice edge by edge, keeping the set of degree-parity
    vectors achievable by the subsets considered so far (as a bitmask over
    all 2**v parity vectors); an odd factor exists iff the all-ones vector is
    achievable.  Independent of both the component-parity decider and
    Gaussian elimination.
    """
    b = budgets(budget)
    if len(g.edges) > b.oracle_edges:
        raise BudgetExceededError(f"{len(g.edges)} edges above oracle budget")
    if g.v == 0:
        return True
    shuffles = _xor_shuffle_masks(g.v)
    achievable = 1  # only the all-zeros parity vector
    for a, bv in g.edges:
        shifted = achievable
        for vertex in (a, bv):
            shift, low, high = shuffles[vertex]
            shifted = ((shifted & low) << shift) | ((shifted & high) >> shift)
        achievable |= shifted
    return bool((achievable >> ((1 << g.v) - 1)) & 1)


def tseitin_system(g: Graph) -> XorSystem:
    """One variable per edge (sorted order), one parity-1 equation per vertex."""
    edges = sorted(g.edges)
    index = {e: i for i, e in enumerate(edges)}
    rows = []
    for v in range(g.v):
        mask = 0
        for e in edges:
            if v in e:
                mask |= 1 << index[e]
        rows.append((mask, 1))
    return XorSystem(max(len(edges), 1), tuple(rows))


def bip_odd_factor(graph: BipGraph, method: str = "fast", budget: Budgets | None = None) -> bool:
    """Odd factor existence in a bipartite graph, via the general-graph
    embedding (fast) or direct subset enumeration (oracle)."""
    g = graph.to_graph()
    if method == "fast":
        return odd_factor_fast(g)
    if method == "oracle":
        b = budgets(budget)
        if graph.n > 5:
            raise BudgetExceededError("oracle mode limited to n <= 5")
        return odd_factor_oracle(g, b)
    raise ValueError(f"unknown method {method!r}")


def pair_index(i: int, j: int, v: int) -> int:
    """Position of the unordered pair (i, j) in lexicographic pair order."""
    if i > j:
        i, j = j, i
    if not 0 <= i < j < v:
        raise ValueError("bad pair")
    return i * v - i * (i + 1) // 2 + (j - i - 1)


def edge_mask(g: Graph) -> int:
    """Edge-indicator input (one bit per pair, lexicographic) for circuits."""
    mask = 0
    for a, b in g.edges:
        mask |= 1 << pair_index(a, b, g.v)
    return mask


def enumerate_graphs(v: int) -> Iterator[Graph]:
    for mask in range(1 << (v * (v - 1) // 2)):
        yield Graph.from_edge_mask(v, mask)
