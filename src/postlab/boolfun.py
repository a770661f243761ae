"""Truth-table Boolean functions and relations, polymorphisms, clone closure.

Bit conventions, fixed so serialized data is portable:

* A function of arity ``k`` is a bitmask of length ``2**k``; bit ``i`` is the
  value on the assignment whose binary encoding is ``i``, with variable 0 in
  the least significant bit.
* A relation of arity ``k`` is a bitmask of length ``2**k`` over tuple
  encodings; coordinate 0 of a tuple is the least significant bit.  In the
  text format a tuple is written as a bit string whose *leftmost* character is
  coordinate 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

from .circuit import monotone_violation
from .config import Budgets, budgets
from .errors import BudgetExceededError, RelationParseError


@dataclass(frozen=True, order=True)
class BoolFun:
    """A Boolean function of small arity as a packed truth table."""

    arity: int
    table: int
    name: str = field(default="", compare=False)

    def __post_init__(self):
        if self.arity < 0:
            raise ValueError("arity must be >= 0")
        if self.table < 0 or self.table >> (1 << self.arity):
            raise ValueError("table has bits beyond 2**arity")

    @classmethod
    def from_function(cls, arity: int, fn: Callable[..., int], name: str = "") -> "BoolFun":
        table = 0
        for i in range(1 << arity):
            bits = tuple((i >> j) & 1 for j in range(arity))
            if fn(*bits):
                table |= 1 << i
        return cls(arity, table, name)

    @classmethod
    def projection(cls, i: int, arity: int) -> "BoolFun":
        if not 0 <= i < arity:
            raise ValueError("projection index out of range")
        return cls(arity, _projection_table(i, arity), f"p{i}^{arity}")

    def __call__(self, *bits: int) -> int:
        idx = 0
        for j, b in enumerate(bits):
            if b:
                idx |= 1 << j
        return (self.table >> idx) & 1

    def __repr__(self):
        label = self.name or f"0x{self.table:x}"
        return f"BoolFun({self.arity}, {label})"


def _projection_table(i: int, arity: int) -> int:
    t = 0
    for x in range(1 << arity):
        if (x >> i) & 1:
            t |= 1 << x
    return t


# Distinguished functions (clone bases and test fixtures).

IDENTITY = BoolFun.from_function(1, lambda x: x, "id")
NEGATION = BoolFun.from_function(1, lambda x: 1 - x, "not")
CONST0 = BoolFun.from_function(1, lambda x: 0, "const0")
CONST1 = BoolFun.from_function(1, lambda x: 1, "const1")
AND2 = BoolFun.from_function(2, lambda x, y: x & y, "and")
OR2 = BoolFun.from_function(2, lambda x, y: x | y, "or")
XOR2 = BoolFun.from_function(2, lambda x, y: x ^ y, "xor")
IFF2 = BoolFun.from_function(2, lambda x, y: 1 - (x ^ y), "iff")
XOR3 = BoolFun.from_function(3, lambda x, y, z: x ^ y ^ z, "xor3")
MAJ3 = BoolFun.from_function(3, lambda x, y, z: (x + y + z) >= 2, "maj")


def majority(n: int) -> BoolFun:
    if n % 2 == 0:
        raise ValueError("majority wants odd arity")
    return BoolFun.from_function(n, lambda *b: sum(b) > n // 2, f"maj{n}")


@dataclass(frozen=True, order=True)
class Relation:
    """A k-ary Boolean relation as a set of accepted k-tuples."""

    arity: int
    mask: int
    name: str = field(default="", compare=False)

    def __post_init__(self):
        if self.arity < 1:
            raise ValueError("relation arity must be >= 1")
        if self.mask < 0 or self.mask >> (1 << self.arity):
            raise ValueError("tuple mask has bits beyond 2**arity")

    @classmethod
    def from_tuples(cls, arity: int, tuples: Iterable[Sequence[int]], name: str = "") -> "Relation":
        mask = 0
        for t in tuples:
            if len(t) != arity:
                raise ValueError("tuple length does not match arity")
            enc = 0
            for j, b in enumerate(t):
                if b:
                    enc |= 1 << j
            mask |= 1 << enc
        return cls(arity, mask, name)

    def tuples(self) -> tuple[int, ...]:
        """Accepted tuples as packed encodings, ascending."""
        return tuple(t for t in range(1 << self.arity) if (self.mask >> t) & 1)

    def member(self, enc: int) -> bool:
        return bool((self.mask >> enc) & 1)

    @property
    def is_empty(self) -> bool:
        return self.mask == 0

    @property
    def is_full(self) -> bool:
        return self.mask == (1 << (1 << self.arity)) - 1

    @property
    def is_degenerate(self) -> bool:
        """Empty or full relations trivialize the CSPs built on them."""
        return self.is_empty or self.is_full

    def tuple_strings(self) -> tuple[str, ...]:
        return tuple(
            "".join(str((t >> j) & 1) for j in range(self.arity)) for t in self.tuples()
        )

    def __repr__(self):
        label = self.name or ",".join(self.tuple_strings())
        return f"Relation({self.arity}, {{{label}}})"


@dataclass(frozen=True)
class RelationSet:
    """An ordered, named collection of relations; order fixes instance bit layout."""

    relations: tuple[Relation, ...]
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "relations", tuple(self.relations))

    def __iter__(self) -> Iterator[Relation]:
        return iter(self.relations)

    def __len__(self) -> int:
        return len(self.relations)

    def __getitem__(self, i: int) -> Relation:
        return self.relations[i]

    @property
    def degenerate(self) -> tuple[int, ...]:
        return tuple(i for i, r in enumerate(self.relations) if r.is_degenerate)


# Common relations.

def clause_relation(arity: int, positives: Sequence[int], negatives: Sequence[int], name: str = "") -> Relation:
    """Solution set of a single disjunctive clause over coordinates 0..arity-1."""
    pos, neg = set(positives), set(negatives)
    mask = 0
    for t in range(1 << arity):
        if any((t >> j) & 1 for j in pos) or any(not (t >> j) & 1 for j in neg):
            mask |= 1 << t
    return Relation(arity, mask, name)


def parity_relation(arity: int, rhs: int, name: str = "") -> Relation:
    mask = 0
    for t in range(1 << arity):
        if bin(t).count("1") % 2 == rhs:
            mask |= 1 << t
    return Relation(arity, mask, name or f"xor{arity}^{rhs}")


EQ2 = Relation.from_tuples(2, [(0, 0), (1, 1)], "eq")
IMP2 = Relation.from_tuples(2, [(0, 0), (0, 1), (1, 1)], "imp")
UNIT_TRUE = Relation.from_tuples(1, [(1,)], "T")
UNIT_FALSE = Relation.from_tuples(1, [(0,)], "F")
XOR3_0 = parity_relation(3, 0, "xor3^0")
XOR3_1 = parity_relation(3, 1, "xor3^1")


def negate_relation(rel: Relation) -> Relation:
    """Coordinatewise complement of every tuple."""
    full = (1 << rel.arity) - 1
    mask = 0
    for t in rel.tuples():
        mask |= 1 << (t ^ full)
    name = f"~{rel.name}" if rel.name else ""
    return Relation(rel.arity, mask, name)


def negate_relations(sset: RelationSet) -> RelationSet:
    """negate_relation applied to every relation of sset."""
    return RelationSet(
        tuple(negate_relation(r) for r in sset),
        f"~{sset.name}" if sset.name else "",
    )


def or_relation(arity: int) -> Relation:
    return clause_relation(arity, range(arity), [], f"or{arity}")


def nand_relation(arity: int) -> Relation:
    return clause_relation(arity, [], range(arity), f"nand{arity}")


# Preservation (polymorphism) test.

def preserves(f: BoolFun, rel: Relation, budget: Budgets | None = None) -> bool:
    """Whether f is a polymorphism of rel.

    Exhaustive over all |rel|**arity(f) choices of tuples (with repetition):
    applying f coordinatewise to every choice must land back in rel.
    """
    b = budgets(budget)
    size = bin(rel.mask).count("1")
    if size ** f.arity > b.preserves_combos:
        raise BudgetExceededError(
            f"{size}**{f.arity} tuple choices exceed preserves budget"
        )
    return violating_choice(f, rel) is None


@lru_cache(maxsize=1 << 16)
def violating_choice(f: BoolFun, rel: Relation) -> tuple[int, ...] | None:
    """The first tuple choice, in itertools.product order, that f maps
    outside rel; None if f preserves rel."""
    tuples = rel.tuples()
    for combo in itertools.product(tuples, repeat=f.arity):
        image = 0
        for j in range(rel.arity):
            idx = 0
            for i, t in enumerate(combo):
                idx |= ((t >> j) & 1) << i
            image |= ((f.table >> idx) & 1) << j
        if not (rel.mask >> image) & 1:
            return combo
    return None


def preserves_set(f: BoolFun, sset: RelationSet, budget: Budgets | None = None) -> bool:
    return all(preserves(f, rel, budget) for rel in sset)


def polymorphisms_up_to(sset: RelationSet, a: int, budget: Budgets | None = None) -> list[BoolFun]:
    """All functions of arity 1..a preserving every relation of sset, sorted.

    Always contains the projections.  Candidate count is sum(2**2**m for
    m <= a), guarded by the enumeration budget.
    """
    b = budgets(budget)
    if a > b.a_max:
        raise BudgetExceededError(f"arity {a} above a_max={b.a_max}")
    total = sum(1 << (1 << m) for m in range(1, a + 1))
    if total > b.enum_candidates:
        raise BudgetExceededError(f"{total} candidates exceed enumeration budget")
    out = []
    for m in range(1, a + 1):
        for table in range(1 << (1 << m)):
            f = BoolFun(m, table)
            if preserves_set(f, sset, b):
                out.append(f)
    return out


# Clone closure at bounded arity.

def closure_up_to(basis: Iterable[BoolFun], a: int, budget: Budgets | None = None) -> list[BoolFun]:
    """Least superset of basis plus projections of arity <= a, closed under
    composition with results of arity <= a.  Sorted, deterministic.

    Computed per arity as a fixpoint under basis gates: every composition
    through intermediate functions of arity <= a decomposes into iterated
    basis-gate applications over same-arity operands, with variable
    identification and permutation supplied by the projection seeds.
    """
    b = budgets(budget)
    if a > b.a_max:
        raise BudgetExceededError(f"arity {a} above a_max={b.a_max}")
    gates = sorted(set((g.arity, g.table) for g in basis))
    out: set[BoolFun] = set(BoolFun(ar, tb) for ar, tb in gates if ar <= a)
    steps = 0
    for m in range(1, a + 1):
        size = 1 << m
        tables = set(_projection_table(i, m) for i in range(m))
        tables.update(tb for ar, tb in gates if ar == m)
        frontier = set(tables)
        while frontier:
            new: set[int] = set()
            current = sorted(tables)
            for g_ar, g_tb in gates:
                for combo in itertools.product(current, repeat=g_ar):
                    if not any(t in frontier for t in combo):
                        continue
                    steps += 1
                    if steps > b.closure_steps:
                        raise BudgetExceededError("closure composition budget exceeded")
                    composed = 0
                    for x in range(size):
                        idx = 0
                        for i, t in enumerate(combo):
                            idx |= ((t >> x) & 1) << i
                        composed |= ((g_tb >> idx) & 1) << x
                    if composed not in tables and composed not in new:
                        new.add(composed)
            tables.update(new)
            frontier = new
        out.update(BoolFun(m, t) for t in tables)
    return sorted(out)


# Function property record (the clone-defining predicates).

@dataclass(frozen=True)
class FunctionProfile:
    monotone: bool
    linear: bool
    self_dual: bool
    reproducing_0: bool
    reproducing_1: bool
    # (a, k) -> f is a-separating of degree k, for a in {0,1}, 1 <= k <= arity
    separating: tuple[tuple[tuple[int, int], bool], ...]

    def separating_of_degree(self, a: int, k: int) -> bool:
        return dict(self.separating)[(a, k)]


def dual(f: BoolFun) -> BoolFun:
    """dual(f): x -> not f(not x).  An involution."""
    full = (1 << f.arity) - 1
    table = 0
    for x in range(1 << f.arity):
        if not (f.table >> (x ^ full)) & 1:
            table |= 1 << x
    name = f"dual({f.name})" if f.name else ""
    return BoolFun(f.arity, table, name)


def is_linear_table(arity: int, table: int) -> bool:
    b = table & 1
    coeffs = 0
    for j in range(arity):
        if ((table >> (1 << j)) & 1) ^ b:
            coeffs |= 1 << j
    for x in range(1 << arity):
        val = b ^ (bin(x & coeffs).count("1") & 1)
        if val != (table >> x) & 1:
            return False
    return True


def classify_function(f: BoolFun) -> FunctionProfile:
    """Decide the clone-defining predicates by exhaustive truth-table checks."""
    preimages = {0: [], 1: []}
    for x in range(1 << f.arity):
        preimages[(f.table >> x) & 1].append(x)
    separating = []
    for a in (0, 1):
        pool = preimages[a]
        for k in range(1, f.arity + 1):
            ok = True
            for group in itertools.combinations(pool, k):
                common = (1 << f.arity) - 1
                for x in group:
                    common &= x if a == 1 else ~x
                if common == 0:
                    ok = False
                    break
            separating.append(((a, k), ok))
    full = (1 << f.arity) - 1
    return FunctionProfile(
        monotone=monotone_violation(f.arity, f.table) is None,
        linear=is_linear_table(f.arity, f.table),
        self_dual=dual(f).table == f.table,
        reproducing_0=(f.table & 1) == 0,
        reproducing_1=bool((f.table >> full) & 1),
        separating=tuple(separating),
    )


# Relation text format: `rel <name> <arity> : t1 t2 ...` with tuples as bit
# strings, leftmost character = coordinate 0.

MAX_TEXT_ARITY = 6


def parse_relations(text: str, name: str = "") -> RelationSet:
    relations = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] != "rel" or len(parts) < 4 or parts[3] != ":":
            raise RelationParseError(f"line {lineno}: expected `rel <name> <arity> : tuples...`")
        rel_name = parts[1]
        try:
            arity = int(parts[2])
        except ValueError as exc:
            raise RelationParseError(f"line {lineno}: bad arity {parts[2]!r}") from exc
        if not 1 <= arity <= MAX_TEXT_ARITY:
            raise RelationParseError(f"line {lineno}: arity must be in 1..{MAX_TEXT_ARITY}")
        mask = 0
        for tok in parts[4:]:
            if len(tok) != arity or any(c not in "01" for c in tok):
                raise RelationParseError(f"line {lineno}: bad tuple {tok!r}")
            enc = 0
            for j, c in enumerate(tok):
                if c == "1":
                    enc |= 1 << j
            mask |= 1 << enc
        relations.append(Relation(arity, mask, rel_name))
    return RelationSet(tuple(relations), name)


def format_relations(sset: RelationSet) -> str:
    lines = []
    for i, rel in enumerate(sset):
        name = rel.name or f"R{i}"
        lines.append(f"rel {name} {rel.arity} : " + " ".join(rel.tuple_strings()))
    return "\n".join(lines) + "\n"


def relation_to_json(rel: Relation) -> dict:
    return {"name": rel.name, "arity": rel.arity, "tuples": list(rel.tuple_strings())}


def relation_from_json(obj: dict) -> Relation:
    arity = int(obj["arity"])
    tuples = [[int(c) for c in s] for s in obj["tuples"]]
    return Relation.from_tuples(arity, tuples, obj.get("name", ""))


def relation_set_to_json(sset: RelationSet) -> dict:
    return {"name": sset.name, "relations": [relation_to_json(r) for r in sset]}


def relation_set_from_json(obj: dict) -> RelationSet:
    return RelationSet(
        tuple(relation_from_json(r) for r in obj["relations"]), obj.get("name", "")
    )
