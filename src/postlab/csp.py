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
from functools import cached_property, lru_cache, reduce
from typing import Callable, Iterator

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
    json_int,
    json_list,
    nand_relation,
    negate_relations,
    or_relation,
    reach,
    relation_set_from_json,
    relation_set_to_json,
    solution_table,
)
from .clone_lattice import CLONE_BITS, SIZE_EASY_CLONES, in_pol, pol_mask
from .config import budgets
from .errors import BudgetExceededError, FragmentMismatchError, RelationParseError
from .record import Frozen


_BYTE_BITS = tuple(tuple(p for p in range(8) if (b >> p) & 1) for b in range(256))
_NONZERO_BYTE = bytes([0] + [1] * 255)


def _set_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of a non-negative mask, ascending.

    The mask is read as bytes and a table lists each byte's set bits.  Masks
    of up to 32 bytes (the dichotomy sweep's 16-256-bit instances) visit
    every byte.  Longer ones flag their nonzero bytes in one C-level pass and
    jump between them with `find`, so a sparse 128,000-bit mask costs about
    its byte count, not one big-integer operation per set bit.  An instance
    walks its bits once and keeps the tuple (`CspInstance._set_bit_tuple`);
    a maker that knows the positions passes them and skips the walk.
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


class CspInstance(Frozen):
    """Equal instances have equal relation sets, n and bits."""

    sset: RelationSet
    n: int
    bits: int

    def __init__(
        self, sset: RelationSet, n: int, bits: int = 0, known_set_bits: tuple[int, ...] | None = None
    ) -> None:
        """known_set_bits: the ascending set bits of `bits`, when the maker
        knows them: taken as given (not checked), so a sparse mask is never
        walked.  An instance made from this one's fields, as
        `with_constraint` makes one, has no known set bits."""
        state = self.__dict__  # written directly: the dichotomy sweep makes one instance per draw
        state["sset"], state["n"], state["bits"] = sset, n, bits
        if known_set_bits is not None:
            state["_set_bit_tuple"] = known_set_bits

    @cached_property
    def _set_bit_tuple(self) -> tuple[int, ...]:
        return tuple(_set_bits(self.bits))  # the instance's one walk

    @cached_property
    def _layout(self) -> tuple[tuple[int, ...], int]:
        return _layout(self.sset, self.n)

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
        return CspInstance(self.sset, self.n, self.bits | (1 << self.encode(r, variables)))

    def iter_constraints(self) -> Iterator[tuple[int, tuple[int, ...]]]:
        """(relation index, variable tuple) of each present constraint, in bit order."""
        for j in self._set_bit_tuple:
            yield self.decode(j)

    def to_json(self) -> dict:
        return {
            "relation_set": relation_set_to_json(self.sset),
            "n": self.n,
            "set_bits": list(self._set_bit_tuple),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CspInstance":
        """Parse an instance, rejecting non-integer n and set bits, n < 1 and
        set bits outside [0, N)."""
        sset = relation_set_from_json(obj["relation_set"])
        n = json_int(obj["n"], "n")
        if n < 1:
            raise RelationParseError(f"instance needs n >= 1, got n={n}")
        size = cls(sset, n).size
        bits = 0
        for j in json_list(obj["set_bits"], "set_bits", "a list of bit indices"):
            j = json_int(j, "set bit")
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


@lru_cache(maxsize=64)
def _layout(sset: RelationSet, n: int) -> tuple[tuple[int, ...], int]:
    """(offsets, N): relation r's n**arity applications start at offsets[r]."""
    offsets = []
    total = 0
    for rel in sset:
        offsets.append(total)
        total += n**rel.arity
    return tuple(offsets), total


_VIOL_FAST_VARS = 10


@lru_cache(maxsize=512)
def _relation_violation_segments(rel: Relation, n: int) -> tuple[str, ...]:
    """For each assignment, the mask of applications of rel violated by it,
    as n**arity binary digits, the highest rank first."""
    full = (1 << (1 << n)) - 1
    # itertools.product varies the LAST position fastest; our rank varies
    # slot 0 fastest, so each product tuple is read reversed.  Row `rank`
    # holds the violating assignments of that application, highest first;
    # column a, read from the last row up, is the segment of assignment a.
    rows = [
        format(full & ~solution_table(rel, variables[::-1], n), f"0{1 << n}b")
        for variables in itertools.product(range(n), repeat=rel.arity)
    ]
    return tuple("".join(col)[::-1] for col in zip(*rows))[::-1]


@lru_cache(maxsize=512)
def _relation_lanes(rel: Relation, n: int, width: int) -> tuple[int, int]:
    """(word, AND): rel's per-assignment masks as the lanes of one word,
    assignment a's at byte a * width, and their AND."""
    masks = [int(digits, 2) for digits in _relation_violation_segments(rel, n)]
    word = int.from_bytes(b"".join(m.to_bytes(width, "little") for m in masks), "little")
    return word, reduce(int.__and__, masks)


class _ViolationMasks:
    """The 2**n per-assignment masks side by side in one int, `lanes`: lane a
    starts at byte a * width, width = N // 8 + 1, and holds the applications
    that assignment a violates; its bit N, the guard, is clear.  `fill` holds
    2**N - 1 and `guards` bit N in every lane.  `always` is the lanes' AND,
    the applications that every assignment violates."""

    __slots__ = ("count", "width", "full", "lanes", "always", "fill", "guards")

    def __init__(self, n: int, size: int, lanes: int, always: int):
        self.count, self.width, self.full = 1 << n, size // 8 + 1, (1 << size) - 1
        self.lanes, self.always = lanes, always
        self.fill, self.guards = self._spread(self.full), self._spread(1 << size)

    def _spread(self, word: int) -> int:
        """word, below 2**(8 * width), copied into every lane."""
        return int.from_bytes(word.to_bytes(self.width, "little") * self.count, "little")

    def __iter__(self) -> Iterator[int]:
        """The per-assignment masks, in assignment order."""
        data, width = self.lanes.to_bytes(self.width * self.count, "little"), self.width
        return (int.from_bytes(data[i : i + width], "little") for i in range(0, len(data), width))

    def satisfiable(self, bits: int) -> bool:
        """Whether some assignment satisfies the instance with these bits: no
        bit is always violated, and some lane misses them all.  With bits
        copied into every lane, adding `fill` sets exactly the guards of the
        lanes that meet them."""
        if bits & self.always:
            return False
        return ((self.lanes & self._spread(bits & self.full)) + self.fill) & self.guards != self.guards


def violation_masks(inst: CspInstance) -> "_ViolationMasks | None":
    """Per-assignment masks over all N applications, as the lanes of one
    word; the instance is satisfiable iff some mask misses all set bits.
    They depend only on (relation set, n) and are built once for each, from
    each relation's cached lane word; above _DENSE_TABLE_BITS applications
    they are not built (None), since 2**n masks of N bits cost more than the
    solution tables of one instance.  `satisfiable` reads every lane: about
    1.5 ms at n = 10 and N near 2**12, under 1 us at n = 4."""
    return _violation_masks(inst.sset, inst.n)


@lru_cache(maxsize=8)
def _violation_masks(sset: RelationSet, n: int) -> "_ViolationMasks | None":
    offsets, size = _layout(sset, n)
    if size > _DENSE_TABLE_BITS:
        return None
    lanes = always = 0
    width = size // 8 + 1
    # a lane word of more than 2**16 bytes is built per call, not kept
    lanes_of = _relation_lanes if width << n <= 1 << 16 else _relation_lanes.__wrapped__
    for rel, offset in zip(sset.relations, offsets):
        word, every = lanes_of(rel, n, width)
        lanes |= word << offset
        always |= every << offset
    return _ViolationMasks(n, size, lanes, always)


def satisfiable_brute(inst: CspInstance) -> bool:
    """Whether some assignment satisfies inst, by brute force: through the
    per-assignment masks while n <= _VIOL_FAST_VARS and they are built, else
    by ANDing the constraints' solution tables."""
    limit = budgets().brute_force_vars
    if inst.n > limit:
        raise BudgetExceededError(
            f"n={inst.n} above brute-force budget {limit}; "
            "use a fragment solver"
        )
    if inst.n <= _VIOL_FAST_VARS and (masks := violation_masks(inst)) is not None:
        return masks.satisfiable(inst.bits)
    solutions = (1 << (1 << inst.n)) - 1
    for r, variables in inst.iter_constraints():
        solutions &= solution_table(inst.sset[r], variables, inst.n)
        if not solutions:
            return False
    return True


def csp_sat_value(inst: CspInstance) -> bool:
    """The monotone function CSP-SAT: accept iff the instance is unsatisfiable."""
    return not satisfiable_brute(inst)


# Linear systems over GF(2).

class XorSystem(Frozen):
    """Rows (variable mask, rhs bit) of a linear system over GF(2)."""

    __slots__ = ("nvars", "rows")
    nvars: int
    rows: tuple[tuple[int, int], ...]


def gf2_reduce(pivots: dict[int, tuple[int, int]], rows) -> bool:
    """Add rows (variable mask, rhs bit) to the echelon basis pivots (top bit
    -> row), in place; False as soon as a row reduces to 0 = 1."""
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


def gf2_satisfiable(rows) -> bool:
    return gf2_reduce({}, rows)


@lru_cache(maxsize=512)
def _affine_rows(rel: Relation) -> tuple[tuple[int, int], ...]:
    """All parity checks (coefficients, rhs) satisfied by rel.  For an affine
    rel, the only kind fragment_table's L2 guard lets through, they cut out
    exactly rel.  The empty relation is the one equation 0 = 1."""
    tuples = rel.tuples()
    if not tuples:
        return ((0, 1),)
    rows = []
    for c in range(1, 1 << rel.arity):
        par = bin(c & tuples[0]).count("1") & 1
        if all(bin(c & t).count("1") & 1 == par for t in tuples):
            rows.append((c, par))
    return tuple(rows)


def _parity_rows(rel: Relation, variables: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """GF(2) rows (variable mask, rhs) of the affine rel applied to variables."""
    rows = []
    for c, par in _affine_rows(rel):
        mask = 0
        for pos, v in enumerate(variables):
            if (c >> pos) & 1:
                mask ^= 1 << v  # repeated variables cancel over GF(2)
        rows.append((mask, par))
    return tuple(rows)


def instance_to_xor_system(inst: CspInstance) -> XorSystem:
    """The parity rows of the set bits, from the L2 view of fragment_table."""
    table = fragment_table(inst.sset, inst.n, "L2")
    rows = []
    for j in inst._set_bit_tuple:
        rows += table[j]
    return XorSystem(inst.n, tuple(rows))


def xor_system_to_instance(system: XorSystem) -> CspInstance:
    """The width-3 form of a parity system, over xor3_set().

    Each row (mask, rhs) over variables v0 < v1 < ... becomes a chain
    z0 = v0 + v1, z_t = z_{t-1} + v_{t+1}, closed by z_last = rhs, with the
    k - 1 chain variables of a k-variable row appended after system.nvars,
    row by row.  A one-variable row is rhs on (v, v, v); an empty row with
    rhs 1 is both relations on one fresh variable.
    """
    n = system.nvars
    applications = []  # (relation index = parity, variable tuple)
    for mask, rhs in system.rows:
        vs = list(_set_bits(mask))
        if not vs:
            if rhs:
                applications += [(0, (n,) * 3), (1, (n,) * 3)]
                n += 1
            continue
        last = vs[0]
        for v in vs[1:]:
            applications.append((0, (n, last, v)))
            last, n = n, n + 1
        applications.append((rhs, (last,) * 3))
    inst = CspInstance(xor3_set(), max(n, 1))
    bits = 0
    for r, variables in applications:
        bits |= 1 << inst.encode(r, variables)
    return CspInstance(inst.sset, inst.n, bits)


def solve_xor(inst: CspInstance) -> bool:
    """Satisfiability of a parity instance by Gaussian elimination."""
    return gf2_satisfiable(instance_to_xor_system(inst).rows)


# The clause view: which clauses an application R(V) imposes.

def _dup_pattern(variables: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    groups: dict[int, int] = {}
    pattern = []
    for v in variables:
        if v not in groups:
            groups[v] = len(groups)
        pattern.append(groups[v])
    order = sorted(groups, key=groups.get)
    return tuple(pattern), tuple(order)


@lru_cache(maxsize=2048)
def _prime_clauses(rel: Relation, pattern: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """Prime implicates of rel with coordinate j read as group pattern[j], as
    (positive group mask, negative group mask) pairs.

    A clause is implied when no solution lies in the cube of assignments that
    falsify it, the cube where the groups of `care` take the values `val`;
    it is prime when dropping any one literal loses that.
    """
    d = max(pattern) + 1
    table = solution_table(rel, pattern, d)
    solutions = [p for p in range(1 << d) if (table >> p) & 1]
    implied = set()
    for care in range(1 << d):
        seen = {p & care for p in solutions}
        implied.update(
            (care, val) for val in range(care + 1) if val & ~care == 0 and val not in seen
        )
    return tuple(
        (care & ~val, val)
        for care, val in implied
        if not any(
            (care & ~(1 << g), val & ~(1 << g)) in implied
            for g in range(d)
            if (care >> g) & 1
        )
    )


def clauses(
    rel: Relation, variables: tuple[int, ...]
) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """The prime clauses of rel applied to variables.

    Each clause is a (positive variables, negative variables) pair, each side
    a sorted tuple of distinct variables.  () when the application constrains
    nothing; (((), ()),), the empty clause, when it is unsatisfiable.
    """
    pattern, order = _dup_pattern(variables)

    def side(mask: int) -> tuple[int, ...]:
        return tuple(sorted(v for g, v in enumerate(order) if (mask >> g) & 1))

    return tuple(sorted((side(pos), side(neg)) for pos, neg in _prime_clauses(rel, pattern)))


def _horn_rules(rel: Relation, variables: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """(body mask, head mask or 0) of each prime clause of rel on variables:
    its negative variables imply its positive one, or false."""
    return tuple(
        (sum(1 << v for v in neg), 1 << pos[0] if pos else 0)
        for pos, neg in clauses(rel, variables)
    )


def _implications(rel: Relation, variables: tuple[int, ...]) -> tuple[tuple[int, int], ...] | None:
    """(source node, 1 << target node) of the two implications of each prime
    clause (a | b) of rel on variables, or None when one clause is empty.
    Literal node 2v is x_v and 2v + 1 is not x_v, so node ^ 1 negates."""
    edges = []
    for pos, neg in clauses(rel, variables):
        lits = [2 * v for v in pos] + [2 * v + 1 for v in neg]
        if not lits:
            return None
        a, b = lits[0], lits[-1]
        edges += [(a ^ 1, 1 << b), (b ^ 1, 1 << a)]
    return tuple(edges)


# Per-bit tables: one view of every bit of one (sset, n), all served by
# fragment_table: the clause view (its I2 row) and the solver-ready Horn,
# anti-Horn, 2-SAT and parity views.

# Above this many bits a per-bit table reads bits lazily.  A dense table costs
# about 10 us per entry once per (relation, n): worth it when many instances
# share a layout (the dichotomy sweep's N is at most 256), not for one sparse
# solve, which at N = 54,030 would wait 0.5 s for the table.
_DENSE_TABLE_BITS = 1 << 12


@lru_cache(maxsize=64)
def _relation_block(view: Callable, rel: Relation, n: int) -> tuple[tuple, int]:
    """(view(rel, V) for each application V of rel over n variables, in rank
    order; the mask of the ranks whose application refutes on its own: its
    prime clauses hold the empty clause, whatever the view).  Relation sets
    share these blocks: equality ignores names."""
    inst = CspInstance(RelationSet((rel,)), n)
    applications = [inst.decode(j)[1] for j in range(inst.size)]
    refuting = sum(1 << j for j, v in enumerate(applications) if ((), ()) in clauses(rel, v))
    return tuple(view(rel, v) for v in applications), refuting


class _DenseTable(tuple):
    """A per-bit table up to _DENSE_TABLE_BITS bits, the relation blocks in
    layout order; `refuting` is the mask of its bits whose application no
    assignment satisfies."""

    refuting: int


class _LazyTable(dict):
    """A per-bit table above _DENSE_TABLE_BITS: a bit is decoded on its first
    lookup and kept while fewer than _DENSE_TABLE_BITS entries are.  It never
    enumerates its bits, so `refuting` is 0 and the solvers find an empty
    clause in the entries themselves."""

    refuting = 0

    def __init__(self, view: Callable, inst: CspInstance):
        self.view, self.inst = view, inst

    def __missing__(self, j: int):
        r, variables = self.inst.decode(j)
        entry = self.view(self.inst.sset[r], variables)
        if len(self) < _DENSE_TABLE_BITS:
            self[j] = entry
        return entry


# The clause view (I2: the projections lie inside every Pol(S), so it is
# never refused) and the solver views of the Horn (E2), anti-Horn (V2: the
# Horn view of the negated relations, each bit in its place), 2-SAT (D2) and
# affine (L2) fragments.  Each row holds the view and the wording of a
# mismatch.
_FRAGMENT_VIEWS: dict[str, tuple[Callable, str]] = {
    "I2": (clauses, "preserved by the projections"),
    "E2": (_horn_rules, "AND-closed (Horn fragment)"),
    "V2": (_horn_rules, "OR-closed (anti-Horn fragment)"),
    "D2": (_implications, "majority-closed (2-SAT fragment)"),
    "L2": (_parity_rows, "an affine parity relation"),
}


@lru_cache(maxsize=32)
def fragment_table(sset: RelationSet, n: int, clone: str) -> "_DenseTable | _LazyTable":
    """Entry j is the clone's view of bit j: for I2 the clauses of bit j,
    read by the trivial solver and the constant and OR/NAND emitters; for E2,
    V2 and D2 read by the clone's solver and emitter; L2 has a solver but no
    emitter, since parity is size-HARD.  The guard reads the clone's bit of
    clone_lattice.pol_mask; when it is clear, FragmentMismatchError names the
    first relation of sset that in_pol finds the clone does not preserve.
    lru_cache keeps no exception, so a set is checked once when it passes and
    raises on every call when it does not.

    The table is a tuple of per-relation blocks up to _DENSE_TABLE_BITS bits,
    else lazy, so a sparse instance costs its set bits.  `table.refuting` is
    the mask of the bits that refute on their own (0 on a lazy table); the
    solvers test it before they walk any bits."""
    view, wording = _FRAGMENT_VIEWS[clone]
    if not pol_mask(sset) & CLONE_BITS[clone]:
        rel = next(rel for rel in sset if not in_pol(clone, rel))
        raise FragmentMismatchError(f"relation {rel.name or rel} is not {wording}")
    inst = CspInstance(negate_relations(sset) if clone == "V2" else sset, n)
    if inst.size > _DENSE_TABLE_BITS:
        return _LazyTable(view, inst)
    entries: list = []
    refuting = 0
    for rel in inst.sset:
        block, mask = _relation_block(view, rel, n)
        refuting |= mask << len(entries)
        entries += block
    table = _DenseTable(entries)
    table.refuting = refuting
    return table


# Horn unit propagation for AND-closed relation sets.

def _propagate(table: "_DenseTable | _LazyTable", bits: int) -> bool:
    """Linear-time unit propagation (Dowling and Gallier) over a Horn view.

    The prime clauses of AND-closed relations are Horn: each is a rule
    "the negative variables all true imply the head", the head being the
    positive variable or, for a clause without one, false.  A rule waits
    on one body variable not yet forced; when that variable is forced it
    moves to the next, and fires once its whole body is forced.  The forced
    variables are the least model; the instance is unsatisfiable iff a rule
    without a head fires.
    """
    ready = []  # (body mask, head mask or 0): rules to look at again
    for j in _set_bits(bits):
        ready += table[j]
    forced = 0
    waiting: dict[int, list[tuple[int, int]]] = {}  # variable bit -> rules
    while ready:
        body, head = ready.pop()
        rest = body & ~forced
        if rest:
            waiting.setdefault(rest & -rest, []).append((body, head))
        elif not head:
            return False
        elif not forced & head:
            forced |= head
            ready.extend(waiting.pop(head, ()))
    return True


def solve_horn(inst: CspInstance) -> bool:
    """Least-model unit propagation for AND-closed relation sets."""
    table = fragment_table(inst.sset, inst.n, "E2")
    return not inst.bits & table.refuting and _propagate(table, inst.bits)


def negate_instance(inst: CspInstance) -> CspInstance:
    """Same bits over the coordinatewise-negated relations; satisfiability is
    preserved by negating assignments."""
    return CspInstance(negate_relations(inst.sset), inst.n, inst.bits)


def solve_antihorn(inst: CspInstance) -> bool:
    """Greatest-model dual of solve_horn for OR-closed relation sets: unit
    propagation over the negated relations."""
    table = fragment_table(inst.sset, inst.n, "V2")
    return not inst.bits & table.refuting and _propagate(table, inst.bits)


# 2-SAT via the implication graph.

def solve_2sat(inst: CspInstance) -> bool:
    """Implication-graph reachability for majority-closed (bijunctive) sets,
    whose prime clauses have width at most 2."""
    n = inst.n
    table = fragment_table(inst.sset, n, "D2")
    if inst.bits & table.refuting:
        return False
    adj = [0] * (2 * n)  # literal node: 2v for x_v, 2v + 1 for not x_v
    for j in _set_bits(inst.bits):
        edges = table[j]
        if edges is None:
            return False
        for source, target in edges:
            adj[source] |= target
    for v in range(n):
        t, f = 2 * v, 2 * v + 1
        if (reach(adj, 1 << t) >> f) & 1 and (reach(adj, 1 << f) >> t) & 1:
            return False
    return True


# The OR/NAND-with-units fragment.

def or_fragment_side(sset: RelationSet) -> str:
    """Whether a menu set's disjunctions are ORs ("or") or NANDs ("nand").

    The menu holds the sets whose Pol contains S00 ("or": every prime clause
    an implication, a unit or all-positive) or S10 ("nand": the same with
    all-negative).  Raises FragmentMismatchError off the menu.
    """
    clone = first_clone(sset, ("S00", "S10"))
    if clone is None:
        raise FragmentMismatchError("relation set is outside the OR/NAND-with-units menu")
    return "or" if clone == "S00" else "nand"


def solve_or_fragment(inst: CspInstance) -> bool:
    """OR/NAND-with-units menu sets.  S00 contains V2 and S10 contains E2,
    so the anti-Horn solver decides the OR side and the Horn solver the
    NAND side."""
    if or_fragment_side(inst.sset) == "or":
        return solve_antihorn(inst)
    return solve_horn(inst)


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
    return CspInstance(inst.sset, inst.n, bits)


def _trivial(inst: CspInstance) -> bool:
    """I0/I1 sets: a constant assignment satisfies every application of a
    nonempty relation, so only an empty relation's empty clause refutes."""
    table = fragment_table(inst.sset, inst.n, "I2")
    if inst.bits & table.refuting:
        return False
    return all(((), ()) not in table[j] for j in _set_bits(inst.bits))


# Schaefer's tractable cases as clones of Post's lattice.  A relation set
# whose Pol contains the clone is decided by the solver, and
# construct.emit_monotone_csp_circuit builds its circuit with the emitter.
TRACTABLE: dict[str, tuple[str, Callable[[CspInstance], bool], str]] = {
    "I1": ("trivial", _trivial, "constant"),
    "I0": ("trivial", _trivial, "constant"),
    "E2": ("horn", solve_horn, "horn"),
    "V2": ("antihorn", solve_antihorn, "antihorn"),
    "D2": ("2sat", solve_2sat, "2sat"),
    "S00": ("or_fragment", solve_or_fragment, "or_fragment"),
    "S10": ("or_fragment", solve_or_fragment, "or_fragment"),
}


def first_clone(sset: RelationSet, clones: tuple[str, ...]) -> str | None:
    """The first of clones that lies inside Pol(sset), or None."""
    pol = pol_mask(sset)
    return next((c for c in clones if pol & CLONE_BITS[c]), None)


def pick_solver(sset: RelationSet) -> tuple[str, Callable[[CspInstance], bool]] | None:
    """The solver of the first of I1, I0, E2, V2 and D2 inside Pol(sset) (S00
    and S10 contain V2 and E2), or None on the size-HARD sets, parity sets
    among them (`solve_xor` decides those)."""
    clone = first_clone(sset, SIZE_EASY_CLONES)
    if clone is None:
        return None
    name, solver, _ = TRACTABLE[clone]
    return f"{name}({clone})", solver
