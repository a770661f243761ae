"""Executable monotone reductions between CSP-SAT instances.

Every emitted BitReduction is a fixed map in which each output bit is a
constant, a projection, or a disjunction of input bits, held as the masks
apply reads.  Equality elimination is the one stage here that is not
expressible that way (each of its output bits is a monotone function of the
inputs computed through graph reachability); pol_reduce therefore reports
its OR-stage reduction and the composed instance separately.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache, reduce
from .boolfun import EQ2, Relation, RelationSet, negate_relation, reach, solution_table
from .circuit import flip_masks
from .config import budgets
from .csp import CspInstance, gf2_reduce, instance_to_xor_system, xor_system_to_instance
from .errors import BudgetExceededError, FragmentMismatchError
from .graphlab import BipGraph, tseitin_system
from .record import Frozen


class BitReduction(Frozen):
    """A monotone OR-reduction: output bit j is 1 when j is in ones, or when
    some set input bit i has j in targets[i]."""

    out_len: int
    ones: int  # the mask of the constant-1 output bits
    targets: tuple[int, ...]  # per input bit, the mask of the output bits it is ORed into

    def __init__(self, out_len, ones, targets):
        limit = 1 << out_len
        for mask in (ones, *targets):
            if not 0 <= mask < limit:
                raise ValueError(f"mask {mask:#x} is not within the {out_len} output bits")
        for i, mask in enumerate(targets):
            if mask & ones:
                raise ValueError(f"input bit {i} targets a constant-1 output bit")
        state = self.__dict__  # is_projection_only, a cached_property, needs the dict
        state["out_len"], state["ones"], state["targets"] = out_len, ones, targets

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BitReduction) and (self.out_len, self.ones, self.targets) == (
            other.out_len, other.ones, other.targets
        )

    @property
    def in_len(self) -> int:
        return len(self.targets)

    def apply(self, x: int) -> int:
        """The output bits of input x; bits of x at or above in_len are
        ignored.  Costs one step per set input bit, not one per output bit."""
        out, targets = self.ones, self.targets
        x &= (1 << len(targets)) - 1
        while x:
            low = x & -x
            out |= targets[low.bit_length() - 1]
            x ^= low
        return out

    @cached_property
    def is_projection_only(self) -> bool:
        """Whether no output bit reads two input bits: the targets are
        pairwise disjoint, so their bit counts add up to that of their OR."""
        targets = self.targets
        return sum(map(int.bit_count, targets)) == reduce(int.__or__, targets, 0).bit_count()

    def to_json(self) -> dict:
        """Per output bit {"const": 0 or 1}, {"input": i} or {"or": [i, ...]}
        with the inputs ascending."""
        sources: dict[int, list[int]] = {}
        for i, mask in enumerate(self.targets):
            while mask:
                low = mask & -mask
                sources.setdefault(low.bit_length() - 1, []).append(i)
                mask ^= low
        ones = f"{self.ones:0{self.out_len}b}"[::-1]
        bits = [{"const": 1} if c == "1" else {"const": 0} for c in ones]
        for j, s in sources.items():
            bits[j] = {"or": s} if len(s) > 1 else {"input": s[0]}
        return {"in_len": self.in_len, "out_len": self.out_len, "bits": bits}

# Equality elimination.

def eliminate_equality(inst: CspInstance) -> CspInstance:
    """Rewrite an instance over S + {=} into one over S.

    Builds the undirected graph of present equality constraints and sets
    every application reachable coordinatewise from a present one (the
    generation rule); present non-equality constraints generate themselves.
    Equi-unsatisfiable, and monotone as a map on instance bits.
    """
    eq_indices = {r for r, rel in enumerate(inst.sset) if rel == EQ2}  # equality ignores names
    keep = [r for r in range(len(inst.sset)) if r not in eq_indices]
    out_set = RelationSet(tuple(inst.sset[r] for r in keep), inst.sset.name)
    out = CspInstance(out_set, inst.n, 0)
    new_index = {r: i for i, r in enumerate(keep)}
    adj = [0] * inst.n  # per variable, the bitset of its equality neighbours
    non_eq = []
    for r, variables in inst.iter_constraints():
        if r in eq_indices:
            a, b = variables
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        else:
            non_eq.append((r, variables))
    members: dict[int, list[int]] = {}  # per variable, its equality class
    for v in range(inst.n):
        if v not in members:
            cls = reach(adj, 1 << v)
            pool = [u for u in range(v, cls.bit_length()) if (cls >> u) & 1]
            members.update(dict.fromkeys(pool, pool))
    bits = 0
    for r, variables in non_eq:
        pools = [members[v] for v in variables]
        for generated in itertools.product(*pools):
            bits |= 1 << out.encode(new_index[r], generated)
    return CspInstance(out_set, inst.n, bits)


# Conjunctive queries.

def _project(sols: int, k: int) -> int:
    """The tuple mask of the first k variables of a solution table: tuple t
    is in it iff some assignment whose low k bits are t is.  The assignments
    that share their low k bits lie 2**k lanes apart."""
    width = 1 << k
    low = (1 << width) - 1
    mask = 0
    while sols:
        mask |= sols & low
        sols >>= width
    return mask


class CQDefinition(Frozen):
    """target(x0..xk-1) = exists y0..y{aux-1}: conjunction of atoms.

    Atom variable indices 0..k-1 are target variables, k.. are auxiliaries.
    Equal definitions (equal in every field) share a cq_rewrite layout.
    """

    target: Relation
    over: RelationSet
    aux_count: int
    atoms: tuple[tuple[int, tuple[int, ...]], ...]

    def __init__(self, target, over, aux_count, atoms):
        state = self.__dict__  # _semantics_ok, a cached_property, needs the dict
        state["target"], state["over"], state["aux_count"], state["atoms"] = target, over, aux_count, atoms

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CQDefinition) and (self.target, self.over, self.aux_count, self.atoms) == (
            other.target, other.over, other.aux_count, other.atoms
        )

    def __hash__(self) -> int:
        return hash((self.target, self.over, self.aux_count, self.atoms))

    def defined_relation(self) -> Relation:
        k = self.target.arity
        v = k + self.aux_count
        sols = (1 << (1 << v)) - 1
        for rel_idx, variables in self.atoms:
            sols &= solution_table(self.over[rel_idx], variables, v)
        return Relation(k, _project(sols, k))

    @cached_property
    def _semantics_ok(self) -> bool:
        return self.defined_relation().mask == self.target.mask

    def semantics_ok(self) -> bool:
        """Whether the query defines its target; computed once per definition."""
        return self._semantics_ok

    def to_json(self) -> dict:
        return {
            "target": {"arity": self.target.arity, "tuples": list(self.target.tuple_strings())},
            "aux_count": self.aux_count,
            "atoms": [[r, list(v)] for r, v in self.atoms],
        }


class CQSearchOverflow(BudgetExceededError):
    """The bounded conjunctive-query search ran out of its state budget."""


def find_cq(target: Relation, over: RelationSet) -> CQDefinition | None:
    """Exhaustive bounded search for a conjunctive query defining target.

    Tries auxiliary-variable counts in increasing order; within one count,
    breadth-first over sets of atoms by intersection state, deduplicated.
    Returns None when the bounded space holds no definition; raises
    CQSearchOverflow when the state budget is exhausted.  The CQ budgets key
    the cache, so a tightened one searches again and raises on every call.
    """
    b = budgets()
    return _find_cq(target, over, b.cq_aux_vars, b.cq_max_atoms, b.cq_states)


@lru_cache(maxsize=64)
def _find_cq(
    target: Relation, over: RelationSet, cq_aux_vars: int, cq_max_atoms: int, cq_states: int
) -> CQDefinition | None:
    k = target.arity
    tried = 0  # intersections, charged a whole pass over the atoms per state
    for aux in range(cq_aux_vars + 1):
        v = k + aux
        if v > 12:
            raise CQSearchOverflow("too many query variables")
        full = (1 << (1 << v)) - 1
        if _project(full, k) == target.mask:
            return CQDefinition(target, over, aux, ())
        count = sum(v**rel.arity for rel in over)  # the atoms, counted before they are built
        atoms = None
        frontier: dict[int, tuple] = {full: ()}
        seen = {full}
        for _ in range(cq_max_atoms):
            nxt: dict[int, tuple] = {}
            for state, chosen in frontier.items():
                tried += count
                if tried > cq_states:
                    raise CQSearchOverflow("state budget exhausted")
                if atoms is None:
                    atoms = [
                        (rel_idx, variables, solution_table(rel, variables, v))
                        for rel_idx, rel in enumerate(over)
                        for variables in itertools.product(range(v), repeat=rel.arity)
                    ]
                for rel_idx, variables, sols in atoms:
                    new = state & sols
                    if new in seen:
                        continue
                    seen.add(new)
                    grown = chosen + ((rel_idx, variables),)
                    if _project(new, k) == target.mask:
                        return CQDefinition(target, over, aux, grown)
                    nxt[new] = grown
            frontier = nxt
            if not frontier:
                break
    return None


def cq_rewrite(
    inst: CspInstance, over: RelationSet, defs: dict[int, CQDefinition]
) -> tuple[CspInstance, BitReduction]:
    """Replace each constraint by its conjunctive-query image over the target
    set over; defs[r] defines relation r of the instance over it.

    Every possible input application owns a fixed block of fresh auxiliary
    variables (constant blow-up per constraint), so each output bit is an OR
    over the input bits whose queries mention it.
    """
    for r in range(len(inst.sset)):
        if r not in defs:
            raise FragmentMismatchError(f"missing definition for relation {r}")
        d = defs[r]
        if d.over.relations != over.relations:
            raise ValueError("definitions target different relation sets")
        if d.target.mask != inst.sset[r].mask or d.target.arity != inst.sset[r].arity:
            raise ValueError(f"definition {r} does not define its relation")
        if not d.semantics_ok():
            raise ValueError(f"definition {r} fails its semantics check")
    red, n_out = _cq_layout(inst.sset, inst.n, over, tuple(defs[r] for r in range(len(inst.sset))))
    return CspInstance(over, n_out, red.apply(inst.bits)), red


@lru_cache(maxsize=16)
def _cq_layout(
    sset: RelationSet, n: int, over: RelationSet, defs: tuple[CQDefinition, ...]
) -> tuple[BitReduction, int]:
    """cq_rewrite's reduction and output variable count at (sset, n, defs).

    Name-free on purpose: relation equality ignores names, so one entry serves
    callers whose relations carry different names, and cq_rewrite builds the
    output instance over each caller's own relation set.
    """
    base = CspInstance(sset, n, 0)
    n_out = n + sum(n**rel.arity * d.aux_count for rel, d in zip(sset, defs))
    out0 = CspInstance(over, n_out, 0)
    targets = [0] * base.size
    block = n  # application j's auxiliaries follow those of the applications before it
    for j in range(base.size):
        r, variables = base.decode(j)
        d = defs[r]
        k = d.target.arity
        for rel_idx, qvars in d.atoms:
            mapped = tuple(variables[q] if q < k else block + q - k for q in qvars)
            targets[j] |= 1 << out0.encode(rel_idx, mapped)
        block += d.aux_count
    return BitReduction(out0.size, 0, tuple(targets)), n_out


class PolReduction(Frozen):
    """Result of the polymorphism-based reduction chain.

    or_stage is the monotone OR-reduction into CSP-SAT(S2 + {=}); the final
    instance additionally went through equality elimination, which is a
    monotone map but not an OR-reduction.
    """

    __slots__ = ("instance", "or_stage")
    instance: CspInstance
    or_stage: BitReduction

    def __init__(self, instance, or_stage):
        object.__setattr__(self, "instance", instance)
        object.__setattr__(self, "or_stage", or_stage)


def pol_reduce(inst: CspInstance, target_set: RelationSet) -> PolReduction | None:
    """Reduce an instance to one over target_set via conjunctive queries over
    target_set + {=} followed by equality elimination.

    Sound whenever the returned definitions pass their semantics checks
    (which is guaranteed); returns None when the bounded query search finds
    no definition for some relation.
    """
    with_eq = RelationSet(target_set.relations + (EQ2,), target_set.name)
    defs: dict[int, CQDefinition] = {}
    for r, rel in enumerate(inst.sset):
        d = find_cq(rel, with_eq)
        if d is None:
            return None
        defs[r] = d
    mid, or_stage = cq_rewrite(inst, with_eq, defs)
    final = eliminate_equality(mid)
    return PolReduction(final, or_stage)


# The selector-variable transform.

def l2_to_l3_transform(inst: CspInstance) -> tuple[CspInstance, BitReduction]:
    """Add one fresh selector variable that complements every constraint.

    Each relation R becomes R' of arity k+1 with tuples (a, t xor a^k); every
    present constraint R(V) becomes R'(alpha, V) for the single new variable
    alpha.  Setting alpha = 0 recovers the instance and alpha = 1 its full
    complement, so satisfiability is preserved on n+1 variables, and R' is
    additionally invariant under complementation.  The emitted reduction is a
    monotone projection.
    """
    primes, red = _selector_layout(inst.sset, inst.n)
    named = tuple(
        Relation(p.arity, p.mask, f"{rel.name}'" if rel.name else "") for p, rel in zip(primes, inst.sset)
    )
    out_set = RelationSet(named, f"{inst.sset.name}'" if inst.sset.name else "")
    return CspInstance(out_set, inst.n + 1, red.apply(inst.bits)), red


@lru_cache(maxsize=16)
def _selector_layout(sset: RelationSet, n: int) -> tuple[tuple[Relation, ...], BitReduction]:
    """l2_to_l3_transform's R' per relation of sset, unnamed, and its
    projection at (sset, n): R(V) -> R'(alpha, V).

    Neither carries a name, so one entry serves relation sets that differ in
    names alone.
    """
    primes = []
    for rel in sset:
        # R' holds (0, t) for t in R and (1, u) for u in the negation of R
        mask = sum(1 << 2 * t for t in rel.tuples())
        mask |= sum(2 << 2 * u for u in negate_relation(rel).tuples())
        primes.append(Relation(rel.arity + 1, mask))
    alpha = n
    out0 = CspInstance(RelationSet(primes), n + 1, 0)
    base = CspInstance(sset, n, 0)
    applications = map(base.decode, range(base.size))
    targets = tuple(1 << out0.encode(r, (alpha,) + variables) for r, variables in applications)
    return out0.sset.relations, BitReduction(out0.size, 0, targets)


# The bipartite odd-factor to 3-XOR-SAT projection.

class BipOddFactorReduction(Frozen):
    """The width-3 parity system of one biadjacency matrix, plus the layout
    shared by every matrix of the same dimension.

    instance holds the system (alpha) of the matrix the reduction was built
    from: bit j is set iff the j-th 3-XOR application participates.  beta is
    the complement vector as a monotone projection of M.

    The Tseitin rows of K_{n,n} are consistent, because K_{n,n} has a perfect
    matching (an odd factor), so M's system is inconsistent exactly when 0 = 1
    lies in the span of the forms of its missing cells: each cell's zeroing
    row fully reduced modulo the echelon basis of those Tseitin rows, so that
    it has no bit at a pivot position.  The cells split into a low half (the
    first k = n*(n//2)) and a high half.  verdict_words holds one word of 2^k
    bits per pattern of the high half's cells: bit p is set iff the system of
    the matrix with that high pattern and low pattern p is satisfiable.
    """

    __slots__ = ("instance", "beta", "n", "always_bits", "always_positions", "row_tables", "verdict_words")
    instance: CspInstance
    beta: BitReduction
    n: int
    always_bits: int  # mask of the Tseitin applications of K_{n,n}, present for every M
    always_positions: tuple[int, ...]  # the set bits of always_bits, ascending
    # per matrix row i and per pattern of its n cells: (the mask of the
    # zeroing applications of the row's missing cells, their bits ascending)
    row_tables: tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]
    verdict_words: tuple[int, ...]

    def __init__(self, instance, beta, n, always_bits, always_positions, row_tables, verdict_words):
        object.__setattr__(self, "instance", instance)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "always_bits", always_bits)
        object.__setattr__(self, "always_positions", always_positions)
        object.__setattr__(self, "row_tables", row_tables)
        object.__setattr__(self, "verdict_words", verdict_words)

    def alpha_bits(self, graph_mask: int) -> int:
        n, full, missing = self.n, (1 << self.n) - 1, 0
        for i, table in enumerate(self.row_tables):
            missing |= table[(graph_mask >> i * n) & full][0]
        return self.always_bits | missing

    def instance_for(self, graph_mask: int) -> CspInstance:
        """alpha(M), its set bits merged from the recorded positions, not walked."""
        n, full, positions = self.n, (1 << self.n) - 1, list(self.always_positions)
        for i, table in enumerate(self.row_tables):
            positions += table[(graph_mask >> i * n) & full][1]
        positions.sort()
        bits, layout = self.alpha_bits(graph_mask), self.instance
        return CspInstance(layout.sset, layout.n, bits, known_set_bits=tuple(positions))

    def dual_of_xorsat(self, graph_mask: int) -> bool:
        """dual(XOR-SAT) evaluated at beta(M): since XOR-SAT accepts the
        unsatisfiable systems and alpha = not beta, this is satisfiability
        of the alpha system, read from the verdict word of M's high half."""
        k = self.n * (self.n // 2)
        word = self.verdict_words[(graph_mask >> k) & (len(self.verdict_words) - 1)]
        return bool(word >> (graph_mask & ((1 << k) - 1)) & 1)


def bip_oddfactor_to_xorsat(graph: BipGraph) -> BipOddFactorReduction:
    """Encode bipartite odd-factor existence as a width-3 parity system.

    The system is the width-3 Tseitin system of the complete bipartite graph
    K_{n,n}, whose edge variable i*n+j is cell (i, j), plus one zeroing
    equation x_c = 0 for each missing edge c.  The system (alpha) is
    anti-monotone in M; its complement (beta) is the emitted monotone
    projection, and odd-factor existence equals satisfiability of the
    system, i.e. dual(XOR-SAT) at beta.

    beta has one output bit per instance bit, 2*(3n^2 - 2n)^3 of them, so K_{n,n}
    may have at most `oracle_edges` edges (n <= 4 by default); above that
    BudgetExceededError is raised before anything is built.
    """
    n = graph.n
    limit = budgets().oracle_edges
    if n * n > limit:
        raise BudgetExceededError(
            f"K_{{{n},{n}}} has {n * n} edges, above the oracle_edges budget {limit}"
        )
    full = xor_system_to_instance(tseitin_system(BipGraph(n, (1 << n * n) - 1).to_graph()))
    always = tuple(full.encode(r, variables) for r, variables in full.iter_constraints())
    cell_bits = tuple(full.encode(0, (c, c, c)) for c in range(n * n))
    targets = tuple(1 << bit for bit in cell_bits)
    ones = ((1 << full.size) - 1) & ~(full.bits | sum(targets))
    beta = BitReduction(full.size, ones, targets)

    def full_reduce(row: tuple[int, int], basis: dict[int, tuple[int, int]]) -> tuple[int, int]:
        mask, rhs = row
        for top in sorted(basis, reverse=True):
            if (mask >> top) & 1:
                mask, rhs = mask ^ basis[top][0], rhs ^ basis[top][1]
        return mask, rhs

    pivots: dict[int, tuple[int, int]] = {}
    gf2_reduce(pivots, instance_to_xor_system(full).rows)
    # cell c is variable c, and its zeroing application xor3^0(c, c, c) is the row x_c = 0
    forms = [full_reduce((1 << c, 0), pivots) for c in range(n * n)]

    row_tables = []
    for i in range(n):
        table = []
        for pattern in range(1 << n):
            missing = tuple(cell_bits[i * n + j] for j in range(n) if not (pattern >> j) & 1)
            table.append((sum(1 << bit for bit in missing), missing))
        row_tables.append(tuple(table))

    # Modulo a consistent basis of the high half's missing forms, the low
    # half's missing forms are inconsistent iff some subset sums to exactly
    # 0 = 1 (packed mask << 1 | rhs = 1).  The bad subsets are closed upward,
    # then reflected, since low pattern p misses the cells of ~p.
    k = n * (n // 2)
    words = []
    for pattern in range(1 << (n * n - k)):
        basis: dict[int, tuple[int, int]] = {}
        if not gf2_reduce(basis, [forms[c] for c in range(k, n * n) if not (pattern >> (c - k)) & 1]):
            words.append(0)
            continue
        sums = [0]
        for mask, rhs in (full_reduce(forms[c], basis) for c in range(k)):
            sums += [s ^ (mask << 1 | rhs) for s in sums]
        bad = sum(1 << subset for subset, total in enumerate(sums) if total == 1)
        for shift, zero in flip_masks(k):
            bad |= (bad & zero) << shift
        good = ~bad & ((1 << len(sums)) - 1)
        words.append(int(format(good, f"0{len(sums)}b")[::-1], 2))
    shared = (beta, n, full.bits, always, tuple(row_tables), tuple(words))
    layout = BipOddFactorReduction(full, *shared)
    return BipOddFactorReduction(layout.instance_for(graph.mask), *shared)
