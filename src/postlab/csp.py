"""CSP-SAT instances as monotone Boolean inputs, oracles, and fragment solvers.

An instance over a relation set S with n variables is a bitmask of length
N = sum(n**arity_i): the bit for constraint application (relation r, variable
tuple V) sits at offset(r) + rank(V), where ranks run lexicographically with
variable slot 0 fastest-varying and offsets follow relation-set order.
CSP-SAT accepts exactly the unsatisfiable instances; that function is
monotone in the instance bits.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Callable, Iterator

from .boolfun import (
    UNIT_FALSE,
    UNIT_TRUE,
    XOR3_0,
    XOR3_1,
    EQ2,
    IMP2,
    Relation,
    RelationSet,
    clause_relation,
    nand_relation,
    negate_relations,
    or_relation,
    relation_set_from_json,
    relation_set_to_json,
)
from .clone_lattice import in_pol
from .config import Budgets, budgets
from .errors import BudgetExceededError, FragmentMismatchError, RelationParseError

if TYPE_CHECKING:
    from .graphlab import Graph


_BYTE_BITS = tuple(tuple(p for p in range(8) if (b >> p) & 1) for b in range(256))
_NONZERO_BYTE = bytes([0] + [1] * 255)


def _set_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of a non-negative mask, ascending.

    The mask is read as bytes and a table lists each byte's set bits.  Masks
    of up to 32 bytes (the dichotomy sweep's 16-256-bit instances) visit
    every byte.  Longer ones flag their nonzero bytes in one C-level pass and
    jump between them with `find`, so a sparse 128,000-bit mask costs about
    its byte count, not one big-integer operation per set bit.
    """
    data = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    if len(data) <= 32:
        for i, b in enumerate(data):
            if b:
                base = 8 * i
                for p in _BYTE_BITS[b]:
                    yield base + p
        return
    flags = data.translate(_NONZERO_BYTE)
    i = flags.find(1)
    while i >= 0:
        base = 8 * i
        for p in _BYTE_BITS[data[i]]:
            yield base + p
        i = flags.find(1, i + 1)


@dataclass(frozen=True)
class CspInstance:
    sset: RelationSet
    n: int
    bits: int = 0

    @cached_property
    def _layout(self) -> tuple[tuple[int, ...], int]:
        """(offsets, N): relation r's n**arity applications start at offsets[r]."""
        offsets = []
        total = 0
        for rel in self.sset:
            offsets.append(total)
            total += self.n**rel.arity
        return tuple(offsets), total

    @property
    def size(self) -> int:
        return self._layout[1]

    def encode(self, r: int, variables: tuple[int, ...]) -> int:
        k = self.sset[r].arity
        if len(variables) != k:
            raise ValueError("tuple length does not match relation arity")
        rank = 0
        for j in reversed(range(k)):
            v = variables[j]
            if not 0 <= v < self.n:
                raise ValueError("variable index out of range")
            rank = rank * self.n + v
        return self._layout[0][r] + rank

    def decode(self, j: int) -> tuple[int, tuple[int, ...]]:
        offsets, size = self._layout
        if not 0 <= j < size:
            raise IndexError("constraint index out of range")
        r = bisect_right(offsets, j) - 1
        rank = j - offsets[r]
        n = self.n
        variables = []
        for _ in range(self.sset[r].arity):
            variables.append(rank % n)
            rank //= n
        return r, tuple(variables)

    def with_constraint(self, r: int, variables: tuple[int, ...]) -> "CspInstance":
        return replace(self, bits=self.bits | (1 << self.encode(r, variables)))

    def iter_constraints(self) -> Iterator[tuple[int, tuple[int, ...]]]:
        """(relation index, variable tuple) of each present constraint, in bit order."""
        for j in _set_bits(self.bits):
            yield self.decode(j)

    def constraint_count(self) -> int:
        return bin(self.bits).count("1")

    def to_json(self) -> dict:
        return {
            "relation_set": relation_set_to_json(self.sset),
            "n": self.n,
            "set_bits": list(_set_bits(self.bits)),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CspInstance":
        """Parse an instance, rejecting n < 1 and set bits outside [0, N)."""
        sset = relation_set_from_json(obj["relation_set"])
        n = int(obj["n"])
        if n < 1:
            raise RelationParseError(f"instance needs n >= 1, got n={n}")
        size = cls(sset, n).size
        bits = 0
        for j in map(int, obj["set_bits"]):
            if not 0 <= j < size:
                raise RelationParseError(f"set bit {j} outside [0, {size})")
            bits |= 1 << j
        return cls(sset, n, bits)

    def listing(self) -> str:
        lines = []
        for r, variables in self.iter_constraints():
            name = self.sset[r].name or f"R{r}"
            args = ", ".join(f"x{v}" for v in variables)
            lines.append(f"{name}({args})")
        return "\n".join(lines) + ("\n" if lines else "")


def eval_constraint(inst: CspInstance, j: int, assignment: int) -> bool:
    """Whether assignment satisfies the j-th possible constraint application."""
    r, variables = inst.decode(j)
    rel = inst.sset[r]
    enc = 0
    for pos, v in enumerate(variables):
        if (assignment >> v) & 1:
            enc |= 1 << pos
    return rel.member(enc)


_VIOL_FAST_VARS = 10


@lru_cache(maxsize=512)
def _relation_violation_segments(rel: Relation, n: int) -> tuple[int, ...]:
    """For each assignment, the mask of applications of rel violated by it."""
    segments = []
    for a in range(1 << n):
        seg = 0
        for rank, variables in enumerate(itertools.product(range(n), repeat=rel.arity)):
            enc = 0
            # itertools.product varies the LAST position fastest; our rank
            # varies slot 0 fastest, so walk tuples in transposed order.
            for pos, v in enumerate(reversed(variables)):
                if (a >> v) & 1:
                    enc |= 1 << pos
            if not rel.member(enc):
                seg |= 1 << rank
        segments.append(seg)
    return tuple(segments)


def violation_masks(inst: CspInstance) -> list[int]:
    """Per-assignment masks over all N applications; the instance is
    satisfiable iff some assignment mask misses all set bits."""
    masks = [0] * (1 << inst.n)
    for off, rel in zip(inst._layout[0], inst.sset):
        segs = _relation_violation_segments(rel, inst.n)
        for a in range(1 << inst.n):
            masks[a] |= segs[a] << off
    return masks


def satisfiable_brute(inst: CspInstance, budget: Budgets | None = None) -> bool:
    b = budgets(budget)
    if inst.n > b.brute_force_vars:
        raise BudgetExceededError(
            f"n={inst.n} above brute-force budget {b.brute_force_vars}; "
            "use a fragment solver"
        )
    if inst.n <= _VIOL_FAST_VARS:
        bits = inst.bits
        return any(bits & v == 0 for v in violation_masks(inst))
    constraints = [
        (inst.sset[r], variables) for r, variables in inst.iter_constraints()
    ]
    for a in range(1 << inst.n):
        ok = True
        for rel, variables in constraints:
            enc = 0
            for pos, v in enumerate(variables):
                if (a >> v) & 1:
                    enc |= 1 << pos
            if not rel.member(enc):
                ok = False
                break
        if ok:
            return True
    return False


def csp_sat_value(inst: CspInstance, budget: Budgets | None = None) -> bool:
    """The monotone function CSP-SAT: accept iff the instance is unsatisfiable."""
    return not satisfiable_brute(inst, budget)


# Linear systems over GF(2).

@dataclass(frozen=True)
class XorSystem:
    """Rows (variable mask, rhs bit) of a linear system over GF(2)."""

    nvars: int
    rows: tuple[tuple[int, int], ...]

    def satisfiable(self) -> bool:
        return gf2_satisfiable(self.rows)


def gf2_satisfiable(rows) -> bool:
    pivots: dict[int, tuple[int, int]] = {}
    for mask, rhs in rows:
        m, b = mask, rhs
        while m:
            top = m.bit_length() - 1
            if top in pivots:
                pm, pb = pivots[top]
                m ^= pm
                b ^= pb
            else:
                pivots[top] = (m, b)
                break
        else:
            if b:
                return False
    return True


@lru_cache(maxsize=512)
def _affine_rows(rel: Relation) -> tuple[tuple[int, int], ...] | None:
    """All parity checks (coefficients, rhs) satisfied by rel, or None if the
    checks do not cut out exactly rel (i.e. the relation is not affine)."""
    tuples = rel.tuples()
    if not tuples:
        return None
    rows = []
    for c in range(1, 1 << rel.arity):
        par = bin(c & tuples[0]).count("1") & 1
        if all(bin(c & t).count("1") & 1 == par for t in tuples):
            rows.append((c, par))
    solutions = sum(
        1
        for t in range(1 << rel.arity)
        if all(bin(c & t).count("1") & 1 == par for c, par in rows)
    )
    if solutions != len(tuples):
        return None
    return tuple(rows)


@lru_cache(maxsize=4096)
def _xor_rows(sset: RelationSet, n: int, j: int) -> tuple[tuple[int, int], ...]:
    """GF(2) rows (variable mask, rhs) of the j-th application over (sset, n)."""
    r, variables = CspInstance(sset, n).decode(j)
    checks = _affine_rows(sset[r])
    if checks is None:
        raise FragmentMismatchError(
            f"relation {sset[r].name or r} is not an affine parity relation"
        )
    rows = []
    for c, par in checks:
        mask = 0
        for pos, v in enumerate(variables):
            if (c >> pos) & 1:
                mask ^= 1 << v  # repeated variables cancel over GF(2)
        rows.append((mask, par))
    return tuple(rows)


def instance_to_xor_system(inst: CspInstance) -> XorSystem:
    rows = []
    for j in _set_bits(inst.bits):
        rows.extend(_xor_rows(inst.sset, inst.n, j))
    return XorSystem(inst.n, tuple(rows))


def solve_xor(inst: "CspInstance | XorSystem") -> bool:
    """Satisfiability of a parity instance by Gaussian elimination."""
    if isinstance(inst, XorSystem):
        return inst.satisfiable()
    return instance_to_xor_system(inst).satisfiable()


# Forward-chaining solver for AND-closed (Horn-like) relation sets.

def solve_horn(inst: CspInstance) -> bool:
    """Least-model forward chaining; works for any AND-closed relations.

    Variables are marked forced-true when every still-compatible tuple of some
    constraint sets them; a constraint with no compatible tuple refutes the
    instance.  The AND of compatible tuples stays in the relation, so the
    marking is exactly the GEN-style least model.
    """
    for rel in inst.sset:
        if not in_pol("E2", rel):
            raise FragmentMismatchError(
                f"relation {rel.name or rel} is not AND-closed (Horn fragment)"
            )
    constraints = []
    for r, variables in inst.iter_constraints():
        rel = inst.sset[r]
        constraints.append((rel.tuples(), variables, rel.arity))
    forced = 0
    while True:
        changed = False
        for tuples, variables, k in constraints:
            meet = -1
            for t in tuples:
                compatible = True
                for j in range(k):
                    if (forced >> variables[j]) & 1 and not (t >> j) & 1:
                        compatible = False
                        break
                if compatible:
                    meet &= t
            if meet == -1:
                # no tuple is compatible with the forced variables
                return False
            for j in range(k):
                if (meet >> j) & 1 and not (forced >> variables[j]) & 1:
                    forced |= 1 << variables[j]
                    changed = True
        if not changed:
            return True


def negate_instance(inst: CspInstance) -> CspInstance:
    """Same bits over the coordinatewise-negated relations; satisfiability is
    preserved by negating assignments."""
    return CspInstance(negate_relations(inst.sset), inst.n, inst.bits)


def solve_antihorn(inst: CspInstance) -> bool:
    """Greatest-model dual of solve_horn for OR-closed relation sets."""
    for rel in inst.sset:
        if not in_pol("V2", rel):
            raise FragmentMismatchError(
                f"relation {rel.name or rel} is not OR-closed (anti-Horn fragment)"
            )
    return solve_horn(negate_instance(inst))


def _reachability(adj: list[int]) -> list[int]:
    """Reflexive-transitive closure of a digraph given by out-neighbour
    bitsets, by repeated squaring."""
    size = len(adj)
    reach = [adj[u] | (1 << u) for u in range(size)]
    for _ in range(max(1, (size - 1).bit_length())):
        for u in range(size):
            acc = reach[u]
            m = acc
            while m:
                low = m & -m
                acc |= reach[low.bit_length() - 1]
                m ^= low
            reach[u] = acc
    return reach


# 2-SAT via the implication graph.

@lru_cache(maxsize=2048)
def _binary_clauses(rel: Relation, pattern: tuple[int, ...]):
    """Clause decomposition of rel instantiated with duplicate pattern.

    pattern maps coordinate j to a group id (repeated variables share one).
    Returns clauses over group ids, or None when the pairwise projections do
    not cut out the induced relation exactly (not bijunctive).
    """
    d = max(pattern) + 1
    induced = []
    for p in range(1 << d):
        enc = 0
        for j, g in enumerate(pattern):
            if (p >> g) & 1:
                enc |= 1 << j
        if rel.member(enc):
            induced.append(p)
    clauses = []
    if not induced:
        return (("false",),)
    for g in range(d):
        proj = {(p >> g) & 1 for p in induced}
        if len(proj) == 1:
            clauses.append(("unit", g, proj.pop()))
    for g1 in range(d):
        for g2 in range(g1 + 1, d):
            proj = {((p >> g1) & 1, (p >> g2) & 1) for p in induced}
            for a in (0, 1):
                for b in (0, 1):
                    if (a, b) not in proj:
                        clauses.append(("pair", g1, 1 - a, g2, 1 - b))
    # exactness: the conjunction of emitted clauses must equal the induced set
    count = 0
    for p in range(1 << d):
        ok = True
        for cl in clauses:
            if cl[0] == "unit":
                _, g, v = cl
                if (p >> g) & 1 != v:
                    ok = False
                    break
            else:
                _, g1, v1, g2, v2 = cl
                if (p >> g1) & 1 != v1 and (p >> g2) & 1 != v2:
                    ok = False
                    break
        count += ok
    if count != len(induced):
        return None
    return tuple(clauses)


def _dup_pattern(variables: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    groups: dict[int, int] = {}
    pattern = []
    for v in variables:
        if v not in groups:
            groups[v] = len(groups)
        pattern.append(groups[v])
    order = sorted(groups, key=groups.get)
    return tuple(pattern), tuple(order)


def solve_2sat(inst: CspInstance) -> bool:
    """Implication-graph reachability for majority-closed (bijunctive) sets."""
    for rel in inst.sset:
        if not in_pol("D2", rel):
            raise FragmentMismatchError(
                f"relation {rel.name or rel} is not majority-closed (2-SAT fragment)"
            )
    n = inst.n
    # literal node for (variable v, value b): 2v + (1 - b)
    adj = [0] * (2 * n)

    def lit(v: int, b: int) -> int:
        return 2 * v + (1 - b)

    def add_clause(v1: int, b1: int, v2: int, b2: int) -> None:
        adj[lit(v1, 1 - b1)] |= 1 << lit(v2, b2)
        adj[lit(v2, 1 - b2)] |= 1 << lit(v1, b1)

    for r, variables in inst.iter_constraints():
        rel = inst.sset[r]
        pattern, order = _dup_pattern(variables)
        clauses = _binary_clauses(rel, pattern)
        if clauses is None:
            raise FragmentMismatchError(
                f"relation {rel.name or r} has no exact 2-clause decomposition"
            )
        for cl in clauses:
            if cl[0] == "false":
                return False
            if cl[0] == "unit":
                _, g, v = cl
                var = order[g]
                add_clause(var, v, var, v)
            else:
                _, g1, v1, g2, v2 = cl
                add_clause(order[g1], v1, order[g2], v2)
    reach = _reachability(adj)
    for v in range(n):
        t, f = 2 * v, 2 * v + 1
        if (reach[t] >> f) & 1 and (reach[f] >> t) & 1:
            return False
    return True


# The OR/NAND-with-units fragment.

@lru_cache(maxsize=512)
def menu_kind(rel: Relation) -> str | None:
    """rel's entry on the OR/NAND-with-units menu ("or", "nand", "imp",
    "imp_rev" or "eq"), or None when it is not on the menu."""
    full = (1 << (1 << rel.arity)) - 1
    if rel.mask == full - 1:
        return "or"  # everything except all-zeros (covers (x) at arity 1)
    if rel.mask == full - (1 << ((1 << rel.arity) - 1)):
        return "nand"  # everything except all-ones (covers (not x) at arity 1)
    if rel.arity == 2:
        if rel.mask == IMP2.mask:
            return "imp"
        if rel.mask == 0b1101:
            return "imp_rev"
        if rel.mask == EQ2.mask:
            return "eq"
    return None


def or_fragment_side(sset: RelationSet) -> str:
    """Whether a menu set's disjunctions are ORs ("or") or NANDs ("nand").

    Raises FragmentMismatchError off the menu or when it mixes the two.
    """
    kinds = [menu_kind(rel) for rel in sset]
    if any(k is None for k in kinds):
        bad = sset[kinds.index(None)]
        raise FragmentMismatchError(
            f"relation {bad.name or bad} is outside the OR/NAND-with-units menu"
        )
    has_or = any(k == "or" and rel.arity >= 2 for k, rel in zip(kinds, sset))
    has_nand = any(k == "nand" and rel.arity >= 2 for k, rel in zip(kinds, sset))
    if has_or and has_nand:
        raise FragmentMismatchError("mixed OR and NAND disjunctions")
    return "nand" if has_nand else "or"


def solve_or_fragment(inst: CspInstance) -> bool:
    """Path test for {OR^k, x, not-x, imp, eq} formulas (and the NAND dual).

    A disjunction fails only when every one of its variables reaches, through
    implication/equality arcs, some variable constrained to 0; the instance is
    unsatisfiable iff some disjunction fails entirely.  Dually for NAND with
    variables forced to 1.
    """
    side = or_fragment_side(inst.sset)
    n = inst.n
    adj = [0] * n
    sources = 0  # unit-constrained variables (0-units on OR side, 1-units on NAND side)
    disjunctions = []
    unit_kind = "nand" if side == "or" else "or"
    for r, variables in inst.iter_constraints():
        kind = menu_kind(inst.sset[r])
        if kind == "imp":
            a, b = variables
            if a != b:
                adj[a] |= 1 << b
        elif kind == "imp_rev":
            b, a = variables
            if a != b:
                adj[a] |= 1 << b
        elif kind == "eq":
            a, b = variables
            if a != b:
                adj[a] |= 1 << b
                adj[b] |= 1 << a
        elif kind == unit_kind and inst.sset[r].arity == 1:
            sources |= 1 << variables[0]
        else:
            disjunctions.append(frozenset(variables))
    reach = _reachability(adj)
    if side == "or":
        # blocked: reaches a variable constrained to 0
        bad = [bool(reach[v] & sources) for v in range(n)]
    else:
        # forced: reached from a variable constrained to 1
        bad = [any((reach[u] >> v) & 1 for u in range(n) if (sources >> u) & 1) for v in range(n)]
    for vars_ in disjunctions:
        if all(bad[v] for v in vars_):
            return False
    return True


# Monotonicity of the CSP-SAT map itself.

def monotonicity_check(
    sset: RelationSet,
    n: int,
    fn: Callable[[int], bool] | None = None,
    budget: Budgets | None = None,
    samples: int = 2000,
    seed: int = 0,
) -> bool:
    """Verify w <= w' implies fn(w) <= fn(w'), exhaustively when 2**N fits the
    budget and on sampled chains otherwise.  fn defaults to CSP-SAT."""
    b = budgets(budget)
    inst = CspInstance(sset, n)
    size = inst.size
    if fn is None:
        viol = violation_masks(inst)

        def fn(bits: int) -> bool:
            return not any(bits & v == 0 for v in viol)

    if size <= b.monotonicity_bits:
        table = [fn(w) for w in range(1 << size)]
        for w in range(1 << size):
            if not table[w]:
                continue
            for j in range(size):
                if not (w >> j) & 1 and not table[w | (1 << j)]:
                    return False
        return True
    rng = random.Random(seed)
    for _ in range(samples):
        w = rng.getrandbits(size)
        w_hi = w | rng.getrandbits(size)
        if fn(w) and not fn(w_hi):
            return False
    return True


# Catalog relation sets and instance generators.

def xor3_set() -> RelationSet:
    return RelationSet((XOR3_0, XOR3_1), "xor3")


def hornt_set() -> RelationSet:
    return RelationSet(
        (
            clause_relation(3, [2], [0, 1], "horn_imp"),
            clause_relation(3, [], [0, 1, 2], "horn_neg"),
            UNIT_TRUE,
        ),
        "hornt",
    )


def ahornt_set() -> RelationSet:
    return RelationSet(
        (
            clause_relation(3, [0, 1], [2], "ahorn_imp"),
            clause_relation(3, [0, 1, 2], [], "ahorn_pos"),
            UNIT_FALSE,
        ),
        "ahornt",
    )


def twosat_set() -> RelationSet:
    return RelationSet(
        (
            or_relation(2),
            clause_relation(2, [0], [1], "or_mixed"),
            nand_relation(2),
        ),
        "twosat",
    )


def or_fragment_set(k: int = 2) -> RelationSet:
    return RelationSet(
        (or_relation(k), UNIT_TRUE, UNIT_FALSE, IMP2, EQ2), f"or{k}_fragment"
    )


def nand_fragment_set(k: int = 2) -> RelationSet:
    return RelationSet(
        (nand_relation(k), UNIT_TRUE, UNIT_FALSE, IMP2, EQ2), f"nand{k}_fragment"
    )


def make_xorsat(n: int) -> CspInstance:
    """Empty parity instance; its bit space has length 2*n**3."""
    return CspInstance(xor3_set(), n, 0)


def make_hornsat(n: int) -> CspInstance:
    return CspInstance(hornt_set(), n, 0)


def random_instance(
    sset: RelationSet, n: int, density: float, rng: random.Random
) -> CspInstance:
    """Each of the N applications present with probability density, drawn
    from rng in bit order."""
    inst = CspInstance(sset, n)
    bits = 0
    for j in range(inst.size):
        if rng.random() < density:
            bits |= 1 << j
    return replace(inst, bits=bits)


def make_random(sset: RelationSet, n: int, density: float, seed: int) -> CspInstance:
    return random_instance(sset, n, density, random.Random(seed))


def make_tseitin(graph: "Graph", allow_chains: bool = True) -> CspInstance:
    """Tseitin parity system of a graph over the two 3-XOR relations.

    One variable per edge (sorted order), one parity-1 constraint per vertex.
    Degree-1 and degree-3 vertices are encoded with repeated variables;
    other degrees need auxiliary chain variables, appended after the edge
    variables in vertex order (rejected when allow_chains is False).
    """
    edges = sorted(graph.edges)
    edge_var = {e: i for i, e in enumerate(edges)}
    incident: list[list[int]] = [[] for _ in range(graph.v)]
    for e in edges:
        incident[e[0]].append(edge_var[e])
        incident[e[1]].append(edge_var[e])
    aux = len(edges)
    needed = []
    for v in range(graph.v):
        d = len(incident[v])
        if d not in (1, 3):
            if not allow_chains:
                raise FragmentMismatchError(
                    f"vertex {v} has degree {d}; enable chain rewriting"
                )
            needed.append(v)
    n_vars = len(edges)
    chain_base = {}
    for v in needed:
        d = len(incident[v])
        chain_base[v] = n_vars
        n_vars += max(1, d - 1)
    inst = CspInstance(xor3_set(), max(n_vars, 1), 0)
    bits = 0
    for v in range(graph.v):
        ev = incident[v]
        d = len(ev)
        if d == 1:
            bits |= 1 << inst.encode(1, (ev[0], ev[0], ev[0]))
        elif d == 3:
            bits |= 1 << inst.encode(1, (ev[0], ev[1], ev[2]))
        elif d == 0:
            a = chain_base[v]
            bits |= 1 << inst.encode(0, (a, a, a))  # a = 0
            bits |= 1 << inst.encode(1, (a, a, a))  # a = 1: contradiction
        elif d == 2:
            z = chain_base[v]
            bits |= 1 << inst.encode(0, (z, ev[0], ev[1]))
            bits |= 1 << inst.encode(1, (z, z, z))
        else:
            z = chain_base[v]
            bits |= 1 << inst.encode(0, (z, ev[0], ev[1]))
            for t in range(1, d - 1):
                bits |= 1 << inst.encode(0, (z + t, z + t - 1, ev[t + 1]))
            bits |= 1 << inst.encode(1, (z + d - 2,) * 3)
    return replace(inst, bits=bits)


def _trivial(inst: CspInstance) -> bool:
    """I0/I1 sets: a constant assignment satisfies every nonempty relation."""
    return all(not inst.sset[r].is_empty for r, _ in inst.iter_constraints())


# Schaefer's tractable cases as clones of Post's lattice, in order of choice.
_DESIGNATED = (
    ("I1", "trivial", _trivial),
    ("I0", "trivial", _trivial),
    ("E2", "horn", solve_horn),
    ("V2", "antihorn", solve_antihorn),
    ("D2", "2sat", solve_2sat),
)


def pick_solver(sset: RelationSet) -> tuple[str, Callable[[CspInstance], bool]] | None:
    """The solver of the first tractable clone inside Pol(sset), or None.

    None covers the size-HARD sets, parity sets among them (`solve_xor`
    decides those).
    """
    for clone, name, solver in _DESIGNATED:
        if all(in_pol(clone, rel) for rel in sset):
            return f"{name}({clone})", solver
    return None
