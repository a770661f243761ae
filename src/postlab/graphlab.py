"""Simple graphs, odd factors, Tseitin systems, and their brute-force oracles.

Vertices are 0-based.  The text format is a `v <count>` line followed by
`e <i> <j>` lines.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .config import Budgets, budgets
from .csp import XorSystem, reach
from .errors import BudgetExceededError, RelationParseError


@dataclass(frozen=True)
class Graph:
    v: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.v < 0:
            raise ValueError(f"graph needs v >= 0, got v={self.v}")
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
        if self.n < 1:
            raise ValueError(f"bipartite graph needs n >= 1, got n={self.n}")
        if self.mask < 0 or self.mask >> (self.n * self.n):
            raise ValueError("biadjacency mask larger than n*n")

    def to_graph(self) -> Graph:
        """Cell i*n + j is the edge (i, n + j)."""
        mask = self.mask
        edges = frozenset(p for cell, p in enumerate(_bip_pairs(self.n)) if (mask >> cell) & 1)
        return Graph(2 * self.n, edges)


@lru_cache(maxsize=16)
def _bip_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The edge (i, n + j) of each cell i*n + j, in cell order."""
    return tuple((i, n + j) for i in range(n) for j in range(n))


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


@lru_cache(maxsize=64)
def _xor_shuffle_masks(v: int) -> tuple[tuple[int, int], ...]:
    # for each vertex bit b: (2**b, mask of the positions p < 2**v with bit b
    # of p clear), used to permute an achievable-set bitmask by xor
    out = []
    for b in range(v):
        shift = 1 << b
        low, width = (1 << shift) - 1, 2 * shift
        while width < 1 << v:
            low |= low << width
            width *= 2
        out.append((shift, low))
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
    if g.v > b.oracle_edges:  # the parity bitmask has 2**v bits
        raise BudgetExceededError(f"{g.v} vertices above oracle budget")
    if g.v == 0:
        return True
    shuffles = _xor_shuffle_masks(g.v)
    achievable = 1  # only the all-zeros parity vector
    for a, bv in g.edges:
        shifted = achievable
        for vertex in (a, bv):
            shift, low = shuffles[vertex]
            shifted = ((shifted & low) << shift) | ((shifted >> shift) & low)
        achievable |= shifted
    return bool((achievable >> ((1 << g.v) - 1)) & 1)


def tseitin_system(g: Graph) -> XorSystem:
    """The Tseitin encoding of odd-factor existence: one variable per edge
    (sorted order), one parity-1 equation per vertex over its incident edges.

    `csp.xor_system_to_instance` turns it into a 3-XOR-SAT instance.
    """
    incidence = [0] * g.v
    for i, (a, b) in enumerate(sorted(g.edges)):
        incidence[a] |= 1 << i
        incidence[b] |= 1 << i
    return XorSystem(max(len(g.edges), 1), tuple((mask, 1) for mask in incidence))


def bip_odd_factor(graph: BipGraph) -> bool:
    """Odd factor existence in a bipartite graph, via the general-graph embedding."""
    return odd_factor_fast(graph.to_graph())


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
