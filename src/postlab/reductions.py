"""Executable monotone reductions between CSP-SAT instances.

Every emitted BitReduction is a fixed map in which each output bit is a
constant, a projection, or a disjunction of input bits.  Equality
elimination is the one stage here that is not expressible that way (each of
its output bits is a monotone function of the inputs computed through graph
reachability); pol_reduce therefore reports its OR-stage reduction and the
composed instance separately.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from .boolfun import EQ2, Relation, RelationSet
from .config import Budgets, budgets
from .csp import CspInstance, solve_xor, xor3_set
from .errors import BudgetExceededError, FragmentMismatchError
from .graphlab import BipGraph

CONST = "const"
PROJ = "input"
ORBIT = "or"


@dataclass(frozen=True)
class BitReduction:
    """A monotone OR-reduction: per-output-bit definitions over input bits."""

    in_len: int
    out_len: int
    bits: tuple[tuple, ...]  # (CONST, 0|1) | (PROJ, i) | (ORBIT, (i, ...))

    def __post_init__(self):
        if len(self.bits) != self.out_len:
            raise ValueError("bit definition count != out_len")
        for d in self.bits:
            if d[0] == CONST:
                if d[1] not in (0, 1):
                    raise ValueError("bad constant")
            elif d[0] == PROJ:
                if not 0 <= d[1] < self.in_len:
                    raise ValueError("projection index out of range")
            elif d[0] == ORBIT:
                if not d[1] or any(not 0 <= i < self.in_len for i in d[1]):
                    raise ValueError("bad disjunction indices")
            else:
                raise ValueError(f"unknown bit definition {d[0]!r}")

    def apply(self, x: int) -> int:
        out = 0
        for j, d in enumerate(self.bits):
            if d[0] == CONST:
                bit = d[1]
            elif d[0] == PROJ:
                bit = (x >> d[1]) & 1
            else:
                bit = int(any((x >> i) & 1 for i in d[1]))
            out |= bit << j
        return out

    @property
    def is_projection_only(self) -> bool:
        return all(d[0] in (CONST, PROJ) for d in self.bits)

    def to_json(self) -> dict:
        out = []
        for d in self.bits:
            if d[0] == CONST:
                out.append({"const": d[1]})
            elif d[0] == PROJ:
                out.append({"input": d[1]})
            else:
                out.append({"or": list(d[1])})
        return {"in_len": self.in_len, "out_len": self.out_len, "bits": out}

    @classmethod
    def from_json(cls, obj: dict) -> "BitReduction":
        bits = []
        for d in obj["bits"]:
            if "const" in d:
                bits.append((CONST, int(d["const"])))
            elif "input" in d:
                bits.append((PROJ, int(d["input"])))
            else:
                bits.append((ORBIT, tuple(int(i) for i in d["or"])))
        return cls(int(obj["in_len"]), int(obj["out_len"]), tuple(bits))


# Equality elimination.

def _is_equality(rel: Relation) -> bool:
    return rel.arity == 2 and rel.mask == EQ2.mask


def eliminate_equality(inst: CspInstance) -> CspInstance:
    """Rewrite an instance over S + {=} into one over S.

    Builds the undirected graph of present equality constraints and sets
    every application reachable coordinatewise from a present one (the
    generation rule); present non-equality constraints generate themselves.
    Equi-unsatisfiable, and monotone as a map on instance bits.
    """
    eq_indices = {r for r, rel in enumerate(inst.sset) if _is_equality(rel)}
    keep = [r for r in range(len(inst.sset)) if r not in eq_indices]
    out_set = RelationSet(tuple(inst.sset[r] for r in keep), inst.sset.name)
    out = CspInstance(out_set, inst.n, 0)
    parent = list(range(inst.n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    members: dict[int, list[int]] = {}
    new_index = {r: i for i, r in enumerate(keep)}
    non_eq = []
    for r, variables in inst.iter_constraints():
        if r in eq_indices:
            a, b = find(variables[0]), find(variables[1])
            if a != b:
                parent[a] = b
        else:
            non_eq.append((r, variables))
    for v in range(inst.n):
        members.setdefault(find(v), []).append(v)
    bits = 0
    for r, variables in non_eq:
        pools = [members[find(v)] for v in variables]
        for generated in itertools.product(*pools):
            bits |= 1 << out.encode(new_index[r], generated)
    return CspInstance(out_set, inst.n, bits)


# Conjunctive queries.

@dataclass(frozen=True)
class CQDefinition:
    """target(x0..xk-1) = exists y0..y{aux-1}: conjunction of atoms.

    Atom variable indices 0..k-1 are target variables, k.. are auxiliaries.
    """

    target: Relation
    over: RelationSet
    aux_count: int
    atoms: tuple[tuple[int, tuple[int, ...]], ...]

    def defined_relation(self) -> Relation:
        k = self.target.arity
        v = k + self.aux_count
        mask = 0
        for assignment in range(1 << v):
            ok = True
            for rel_idx, variables in self.atoms:
                rel = self.over[rel_idx]
                enc = 0
                for pos, var in enumerate(variables):
                    if (assignment >> var) & 1:
                        enc |= 1 << pos
                if not rel.member(enc):
                    ok = False
                    break
            if ok:
                mask |= 1 << (assignment & ((1 << k) - 1))
        return Relation(k, mask)

    def semantics_ok(self) -> bool:
        return self.defined_relation().mask == self.target.mask

    def to_json(self) -> dict:
        return {
            "target": {"arity": self.target.arity, "tuples": list(self.target.tuple_strings())},
            "aux_count": self.aux_count,
            "atoms": [[r, list(v)] for r, v in self.atoms],
        }


class CQSearchOverflow(BudgetExceededError):
    """The bounded conjunctive-query search ran out of its state budget."""


def find_cq(
    target: Relation, over: RelationSet, budget: Budgets | None = None
) -> CQDefinition | None:
    """Exhaustive bounded search for a conjunctive query defining target.

    Tries auxiliary-variable counts in increasing order; within one count,
    breadth-first over sets of atoms by intersection state, deduplicated.
    Returns None when the bounded space holds no definition; raises
    CQSearchOverflow when the state budget is exhausted.
    """
    b = budgets(budget)
    k = target.arity
    for aux in range(b.cq_aux_vars + 1):
        v = k + aux
        if v > 12:
            raise CQSearchOverflow("too many query variables")
        atoms = []
        for rel_idx, rel in enumerate(over):
            for variables in itertools.product(range(v), repeat=rel.arity):
                sols = 0
                for assignment in range(1 << v):
                    enc = 0
                    for pos, var in enumerate(variables):
                        if (assignment >> var) & 1:
                            enc |= 1 << pos
                    if rel.member(enc):
                        sols |= 1 << assignment
                atoms.append((rel_idx, variables, sols))
        full = (1 << (1 << v)) - 1

        def project(sols: int) -> int:
            mask = 0
            for assignment in range(1 << v):
                if (sols >> assignment) & 1:
                    mask |= 1 << (assignment & ((1 << k) - 1))
            return mask

        if project(full) == target.mask:
            return CQDefinition(target, over, aux, ())
        frontier: dict[int, tuple] = {full: ()}
        seen = {full}
        for _ in range(b.cq_max_atoms):
            nxt: dict[int, tuple] = {}
            for state, chosen in frontier.items():
                for rel_idx, variables, sols in atoms:
                    new = state & sols
                    if new in seen:
                        continue
                    seen.add(new)
                    if len(seen) > b.cq_states:
                        raise CQSearchOverflow("state budget exhausted")
                    grown = chosen + ((rel_idx, variables),)
                    if project(new) == target.mask:
                        return CQDefinition(target, over, aux, grown)
                    nxt[new] = grown
            frontier = nxt
            if not frontier:
                break
    return None


def cq_rewrite(
    inst: CspInstance, defs: dict[int, CQDefinition]
) -> tuple[CspInstance, BitReduction]:
    """Replace each constraint by its conjunctive-query image over the target set.

    Every possible input application owns a fixed block of fresh auxiliary
    variables (constant blow-up per constraint), so each output bit is an OR
    over the input bits whose queries mention it.
    """
    if not defs:
        raise ValueError("no definitions supplied")
    over = next(iter(defs.values())).over
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
    base = CspInstance(inst.sset, inst.n, 0)
    block_base: dict[int, int] = {}
    n_out = inst.n
    for j in range(base.size):
        r, _ = base.decode(j)
        block_base[j] = n_out
        n_out += defs[r].aux_count
    out0 = CspInstance(over, n_out, 0)
    out_sources: dict[int, list[int]] = {}
    for j in range(base.size):
        r, variables = base.decode(j)
        d = defs[r]
        for rel_idx, qvars in d.atoms:
            mapped = tuple(
                variables[q] if q < d.target.arity else block_base[j] + (q - d.target.arity)
                for q in qvars
            )
            out_sources.setdefault(out0.encode(rel_idx, mapped), []).append(j)
    bit_defs: list[tuple] = [(CONST, 0)] * out0.size
    for out_bit, sources in out_sources.items():
        uniq = tuple(sorted(set(sources)))
        bit_defs[out_bit] = (PROJ, uniq[0]) if len(uniq) == 1 else (ORBIT, uniq)
    red = BitReduction(base.size, out0.size, tuple(bit_defs))
    return CspInstance(over, n_out, red.apply(inst.bits)), red


@dataclass(frozen=True)
class PolReduction:
    """Result of the polymorphism-based reduction chain.

    or_stage is the monotone OR-reduction into CSP-SAT(S2 + {=}); the final
    instance additionally went through equality elimination, which is a
    monotone map but not an OR-reduction.
    """

    instance: CspInstance
    or_stage: BitReduction
    mid_instance: CspInstance
    definitions: dict[int, CQDefinition]


def pol_reduce(
    inst: CspInstance, target_set: RelationSet, budget: Budgets | None = None
) -> PolReduction | None:
    """Reduce an instance to one over target_set via conjunctive queries over
    target_set + {=} followed by equality elimination.

    Sound whenever the returned definitions pass their semantics checks
    (which is guaranteed); returns None when the bounded query search finds
    no definition for some relation.
    """
    with_eq = RelationSet(target_set.relations + (EQ2,), target_set.name)
    defs: dict[int, CQDefinition] = {}
    for r, rel in enumerate(inst.sset):
        d = find_cq(rel, with_eq, budget)
        if d is None:
            return None
        defs[r] = d
    mid, or_stage = cq_rewrite(inst, defs)
    final = eliminate_equality(mid)
    return PolReduction(final, or_stage, mid, defs)


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
    new_rels = []
    for rel in inst.sset:
        full = (1 << rel.arity) - 1
        mask = 0
        for t in rel.tuples():
            mask |= 1 << (t << 1)
            mask |= 1 << (((t ^ full) << 1) | 1)
        new_rels.append(Relation(rel.arity + 1, mask, f"{rel.name}'" if rel.name else ""))
    out_set = RelationSet(tuple(new_rels), f"{inst.sset.name}'" if inst.sset.name else "")
    alpha = inst.n
    out0 = CspInstance(out_set, inst.n + 1, 0)
    base = CspInstance(inst.sset, inst.n, 0)
    bit_defs: list[tuple] = [(CONST, 0)] * out0.size
    for j in range(base.size):
        r, variables = base.decode(j)
        bit_defs[out0.encode(r, (alpha,) + variables)] = (PROJ, j)
    red = BitReduction(base.size, out0.size, tuple(bit_defs))
    return CspInstance(out_set, inst.n + 1, red.apply(inst.bits)), red


# The bipartite odd-factor to 3-XOR-SAT projection.

@dataclass(frozen=True)
class BipOddFactorReduction:
    """The width-3 parity system of one biadjacency matrix, plus the layout
    shared by every matrix of the same dimension.

    instance holds the system (alpha) of the matrix the reduction was built
    from: bit j is set iff the j-th 3-XOR application participates.  beta is
    the complement vector as a monotone projection of M.
    """

    instance: CspInstance
    beta: BitReduction
    n: int
    always_bits: tuple[int, ...]
    cell_bits: tuple[tuple[int, int], ...]  # (cell index i*n+j, application bit)

    def alpha_bits(self, graph_mask: int) -> int:
        bits = 0
        for b in self.always_bits:
            bits |= 1 << b
        for cell, bit in self.cell_bits:
            if not (graph_mask >> cell) & 1:
                bits |= 1 << bit
        return bits

    def instance_for(self, graph_mask: int) -> CspInstance:
        return CspInstance(self.instance.sset, self.instance.n, self.alpha_bits(graph_mask))

    def dual_of_xorsat(self, graph_mask: int) -> bool:
        """dual(XOR-SAT) evaluated at beta(M): since XOR-SAT accepts the
        unsatisfiable systems and alpha = not beta, this is satisfiability
        of the alpha system."""
        return solve_xor(self.instance_for(graph_mask))


def bip_oddfactor_to_xorsat(graph: BipGraph) -> BipOddFactorReduction:
    """Encode bipartite odd-factor existence as a width-3 parity system.

    Row and column sums are chained through fresh variables so every equation
    touches at most three variables; each missing edge contributes a zeroing
    equation.  The system (alpha) is anti-monotone in M; its complement
    (beta) is the emitted monotone projection, and odd-factor existence
    equals satisfiability of the system, i.e. dual(XOR-SAT) at beta.
    """
    n = graph.n
    if n == 1:
        inst0 = CspInstance(xor3_set(), 1)
        always = [inst0.encode(1, (0, 0, 0))]
        cell_bits = {0: inst0.encode(0, (0, 0, 0))}
    else:
        inst0 = CspInstance(xor3_set(), n * n + 2 * n * (n - 1))

        def x(i: int, j: int) -> int:
            return i * n + j

        def z(i: int, t: int) -> int:
            return n * n + i * (n - 1) + t

        def w(j: int, t: int) -> int:
            return n * n + n * (n - 1) + j * (n - 1) + t

        always = []
        for i in range(n):
            always.append(inst0.encode(0, (z(i, 0), x(i, 0), x(i, 1))))
            for t in range(1, n - 1):
                always.append(inst0.encode(0, (z(i, t), z(i, t - 1), x(i, t + 1))))
            always.append(inst0.encode(1, (z(i, n - 2),) * 3))
        for j in range(n):
            always.append(inst0.encode(0, (w(j, 0), x(0, j), x(1, j))))
            for t in range(1, n - 1):
                always.append(inst0.encode(0, (w(j, t), w(j, t - 1), x(t + 1, j))))
            always.append(inst0.encode(1, (w(j, n - 2),) * 3))
        cell_bits = {
            i * n + j: inst0.encode(0, (x(i, j),) * 3)
            for i in range(n)
            for j in range(n)
        }
    beta_defs: list[tuple] = [(CONST, 1)] * inst0.size
    for b in always:
        beta_defs[b] = (CONST, 0)
    for cell, bit in cell_bits.items():
        beta_defs[bit] = (PROJ, cell)
    beta = BitReduction(n * n, inst0.size, tuple(beta_defs))
    layout = BipOddFactorReduction(inst0, beta, n, tuple(always), tuple(sorted(cell_bits.items())))
    return replace(layout, instance=layout.instance_for(graph.mask))
