"""Graphs, odd factors, Tseitin systems."""

import itertools
import random

import pytest

from postlab import graphlab
from postlab.config import budgets
from postlab.csp import solve_xor
from postlab.errors import BudgetExceededError, RelationParseError
from postlab.graphlab import (
    MAX_GRAPH_VERTICES,
    BipGraph,
    Graph,
    bip_odd_factor,
    odd_factor_fast,
    odd_factor_oracle,
    odd_factor_verdicts,
    pair_index,
    parse_graph,
    tseitin_system,
)


def test_odd_factor_examples():
    k2 = Graph.from_edges(2, [(0, 1)])
    assert odd_factor_fast(k2) and odd_factor_oracle(k2)
    tri = Graph.complete(3)
    assert not odd_factor_fast(tri) and not odd_factor_oracle(tri)
    assert odd_factor_oracle(Graph.complete(4))
    assert not odd_factor_oracle(Graph(1, 0))
    both = Graph.from_edges(5, [(0, 1), (2, 3), (2, 4), (3, 4)])
    assert not odd_factor_fast(both)  # K2 plus a triangle: one odd component


def test_oracle_budget():
    with pytest.raises(BudgetExceededError, match=r"^28 edges .* \(oracle_edges=24\)$"):
        odd_factor_oracle(Graph.complete(8))
    # 2**v parity vectors: the vertex count is bounded by the same budget
    with pytest.raises(BudgetExceededError):
        odd_factor_oracle(Graph(25, 0))
    assert odd_factor_oracle(Graph.from_edges(20, [(i, i + 1) for i in range(0, 20, 2)]))


def test_verdicts_read_the_budget_once_at_the_first_verdict(monkeypatch):
    k44 = [(i, 4 + j) for i in range(4) for j in range(4)]
    reads = []
    monkeypatch.setattr(graphlab, "budgets", lambda: reads.append(1) or budgets())
    verdicts = odd_factor_verdicts(8, k44)
    assert not reads
    assert len(list(verdicts)) == 1 << 16 and len(reads) == 1
    monkeypatch.setenv("POSTLAB_BUDGET", "oracle_edges=8")
    with pytest.raises(BudgetExceededError, match=r"16 edges .*\(oracle_edges=8\)"):
        next(odd_factor_verdicts(8, k44))


def test_verdicts_bound_the_bitmasks_they_hold():
    # two lists of 2**4 achievable sets of 2**20 bits: past 2**24 bits in all,
    # although one graph of 20 vertices is within the oracle's budget
    edges = [(i, i + 1) for i in range(0, 16, 2)]
    assert odd_factor_oracle(Graph.from_edges(20, edges)) is False
    with pytest.raises(BudgetExceededError, match="20 vertices above oracle budget"):
        next(odd_factor_verdicts(20, edges))
    assert next(odd_factor_verdicts(16, edges)) is False


def test_verdicts_match_the_oracle_on_every_small_graph():
    for v in range(7):
        pairs = list(itertools.combinations(range(v), 2))
        want = [odd_factor_oracle(Graph(v, m)) for m in range(1 << len(pairs))]
        assert list(odd_factor_verdicts(v, pairs)) == want
    assert list(odd_factor_verdicts(0, [])) == [True]
    assert list(odd_factor_verdicts(1, [])) == [False]


def test_verdicts_match_bip_odd_factor_on_the_cell_embedding():
    for n, step in ((1, 1), (2, 1), (3, 1), (4, 61)):
        cells = [(i, n + j) for i in range(n) for j in range(n)]  # bit i*n + j
        verdicts = list(odd_factor_verdicts(2 * n, cells))
        assert len(verdicts) == 1 << n * n
        for mask in range(0, 1 << n * n, step):
            assert verdicts[mask] == bip_odd_factor(BipGraph(n, mask))


def test_claim_exhaustive_small():
    for v in range(1, 6):
        for mask in range(1 << (v * (v - 1) // 2)):
            g = Graph.from_edge_mask(v, mask)
            fast = odd_factor_fast(g)
            assert fast == odd_factor_oracle(g)
            assert fast == solve_xor(tseitin_system(g))


def test_tseitin_examples():
    k2 = Graph.from_edges(2, [(0, 1)])
    sys_k2 = tseitin_system(k2)
    assert sys_k2.rows == ((1, 1), (1, 1))
    assert solve_xor(sys_k2)
    # edges in sorted order (0,1), (0,3), (1,2); vertex 4 is isolated
    paw = tseitin_system(Graph.from_edges(5, [(1, 2), (3, 0), (0, 1)]))
    assert paw.nvars == 3
    assert paw.rows == ((0b011, 1), (0b101, 1), (0b100, 1), (0b010, 1), (0, 1))
    assert tseitin_system(Graph(2, 0)).nvars == 1
    assert not solve_xor(tseitin_system(Graph.complete(3)))


def test_isomorphism_invariance():
    rng = random.Random(21)
    for _ in range(30):
        v = rng.randrange(2, 7)
        g = Graph.from_edge_mask(v, rng.getrandbits(v * (v - 1) // 2))
        want = odd_factor_fast(g)
        for _ in range(20):
            perm = list(range(v))
            rng.shuffle(perm)
            assert odd_factor_fast(g.permuted(perm)) == want


def test_bip_odd_factor():
    eye = BipGraph(2, 0b1001)
    assert bip_odd_factor(eye)
    assert odd_factor_oracle(eye.to_graph())
    assert not bip_odd_factor(BipGraph(2, 0))
    with pytest.raises(BudgetExceededError):  # 36 edges
        odd_factor_oracle(BipGraph(6, (1 << 36) - 1).to_graph())


def test_bipgraph_shape():
    with pytest.raises(ValueError):
        BipGraph(1, 0b10)
    for n in (0, -1):
        with pytest.raises(ValueError):
            BipGraph(n, 0)
    with pytest.raises(ValueError):
        Graph(-1, 0)


def test_bipgraph_to_graph_edges():
    # cell i*n + j is the edge (i, n + j), as a per-cell edge list normalised
    for n, step in ((1, 1), (2, 1), (3, 1), (4, 97)):
        for mask in range(0, 1 << (n * n), step):
            cells = [(i, n + j) for i in range(n) for j in range(n) if (mask >> (i * n + j)) & 1]
            assert BipGraph(n, mask).to_graph() == Graph.from_edges(2 * n, cells)


def test_graph_text_roundtrip():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert parse_graph("v 4\ne 0 1\ne 3 2  # comment\n") == g
    assert Graph.from_edge_mask(4, g.mask) == g
    with pytest.raises(RelationParseError):
        parse_graph("e 0 1\n")
    with pytest.raises(RelationParseError):
        parse_graph("v 2\ne 0 5\n")


def test_graph_text_vertex_limit():
    big = MAX_GRAPH_VERTICES + 1
    top = MAX_GRAPH_VERTICES - 1
    assert parse_graph(f"v {MAX_GRAPH_VERTICES}\ne 0 {top}\n").edges == {(0, top)}
    with pytest.raises(RelationParseError, match=f"v={big} is above the limit of {top + 1}"):
        parse_graph(f"v {big}\ne {big - 2} {big - 1}\n")


def test_pair_index_and_edge_mask():
    assert pair_index(0, 1, 4) == 0
    assert pair_index(2, 3, 4) == 5
    assert pair_index(3, 2, 4) == 5
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert g.mask == 0b100001


# Frozenset references: the edge set of a mask, and what each mask-reading
# function computed from that set before graphs stored their mask.

def ref_edges(v, mask):
    pairs = itertools.combinations(range(v), 2)
    return frozenset(p for i, p in enumerate(pairs) if (mask >> i) & 1)


def ref_adjacency(v, edges):
    adj = [0] * v
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return adj


def ref_tseitin_rows(v, edges):
    incidence = [0] * v
    for i, (a, b) in enumerate(sorted(edges)):
        incidence[a] |= 1 << i
        incidence[b] |= 1 << i
    return tuple((mask, 1) for mask in incidence)


def ref_odd_factor(v, edges):
    """The all-ones degree parity vector is the sum of some edges' vectors."""
    achievable = {0}
    for a, b in edges:
        achievable |= {x ^ (1 << a) ^ (1 << b) for x in achievable}
    return (1 << v) - 1 in achievable


def assert_matches_references(g, oracle=True):
    edges = ref_edges(g.v, g.mask)
    assert g.edges == edges
    assert g.adjacency() == ref_adjacency(g.v, edges)
    system = tseitin_system(g)
    assert system.rows == ref_tseitin_rows(g.v, edges)
    assert system.nvars == max(len(edges), 1)
    if oracle:
        assert odd_factor_oracle(g) == ref_odd_factor(g.v, edges)


def test_mask_readers_match_the_frozenset_references():
    for v in range(7):
        for mask in range(1 << (v * (v - 1) // 2)):
            assert_matches_references(Graph.from_edge_mask(v, mask))


def test_large_sparse_graph_matches_the_references():
    # above the per-byte tables' vertex count, so the set-bit walk runs
    rng = random.Random(40)
    edges = [(rng.randrange(40), rng.randrange(40)) for _ in range(30)]
    g = Graph.from_edges(40, edges)
    assert g.edges == frozenset((min(a, b), max(a, b)) for a, b in edges if a != b)
    assert_matches_references(g, oracle=False)
    assert odd_factor_fast(Graph.from_edges(40, [(i, i + 1) for i in range(0, 40, 2)]))
    assert not odd_factor_fast(Graph.from_edges(40, [(i, i + 1) for i in range(0, 38, 2)]))
