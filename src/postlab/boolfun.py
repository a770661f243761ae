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

import math
from typing import Callable, Iterable, Iterator, Sequence

from .circuit import input_pattern, substitute
from .config import budgets
from .errors import BudgetExceededError, RelationParseError
from .record import Frozen


class BoolFun(Frozen):
    """A Boolean function of small arity as a packed truth table.  Equality,
    hash and order read (arity, table): the name is a label only."""

    __slots__ = ("arity", "table", "name")
    arity: int
    table: int
    name: str

    def __init__(self, arity, table, name=""):
        if arity < 0:
            raise ValueError("arity must be >= 0")
        if table < 0 or table >> (1 << arity):
            raise ValueError("table has bits beyond 2**arity")
        Frozen.__init__(self, arity, table, name)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BoolFun) and (self.arity, self.table) == (other.arity, other.table)

    def __hash__(self) -> int:
        return hash((self.arity, self.table))

    def __lt__(self, other: BoolFun) -> bool:
        return (self.arity, self.table) < (other.arity, other.table)

    @classmethod
    def from_function(cls, arity: int, fn: Callable[..., int], name: str = "") -> "BoolFun":
        table = 0
        for i in range(1 << arity):
            bits = tuple((i >> j) & 1 for j in range(arity))
            if fn(*bits):
                table |= 1 << i
        return cls(arity, table, name)

    def __call__(self, *bits: int) -> int:
        idx = 0
        for j, b in enumerate(bits):
            if b:
                idx |= 1 << j
        return (self.table >> idx) & 1

    def __repr__(self):
        label = self.name or f"0x{self.table:x}"
        return f"BoolFun({self.arity}, {label})"


# Distinguished functions (clone bases).

NEGATION = BoolFun.from_function(1, lambda x: 1 - x, "not")
CONST0 = BoolFun.from_function(1, lambda x: 0, "const0")
CONST1 = BoolFun.from_function(1, lambda x: 1, "const1")
AND2 = BoolFun.from_function(2, lambda x, y: x & y, "and")
OR2 = BoolFun.from_function(2, lambda x, y: x | y, "or")
XOR2 = BoolFun.from_function(2, lambda x, y: x ^ y, "xor")
IFF2 = BoolFun.from_function(2, lambda x, y: 1 - (x ^ y), "iff")
XOR3 = BoolFun.from_function(3, lambda x, y, z: x ^ y ^ z, "xor3")
MAJ3 = BoolFun.from_function(3, lambda x, y, z: (x + y + z) >= 2, "maj")


class Relation(Frozen):
    """A k-ary Boolean relation as a set of accepted k-tuples.  Equality,
    hash and order read (arity, mask): the name is a label only."""

    __slots__ = ("arity", "mask", "name", "_hash")
    arity: int
    mask: int
    name: str

    def __init__(self, arity, mask, name=""):
        if arity < 1:
            raise ValueError("relation arity must be >= 1")
        if mask < 0 or mask >> (1 << arity):
            raise ValueError("tuple mask has bits beyond 2**arity")
        Frozen.__init__(self, arity, mask, name)
        # Cached: relations key many lru caches.  Integers only, so the hash is
        # the same in every process and survives pickling.
        object.__setattr__(self, "_hash", hash((arity, mask)))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Relation) and (self.arity, self.mask) == (other.arity, other.mask)

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: Relation) -> bool:
        return (self.arity, self.mask) < (other.arity, other.mask)

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


class RelationSet(Frozen):
    """An ordered, named collection of relations; order fixes instance bit
    layout.  Equal sets have equal relations and equal names."""

    __slots__ = ("relations", "name", "_hash")
    relations: tuple[Relation, ...]
    name: str

    def __init__(self, relations, name=""):
        relations = tuple(relations)
        Frozen.__init__(self, relations, name)
        # Cached like Relation's; the name is left out of the hash (equal sets
        # have equal relations), so it stays the same in every process.
        object.__setattr__(self, "_hash", hash(relations))

    def __hash__(self) -> int:
        return self._hash

    def __iter__(self) -> Iterator[Relation]:
        return iter(self.relations)

    def __len__(self) -> int:
        return len(self.relations)

    def __getitem__(self, i: int) -> Relation:
        return self.relations[i]


def solution_table(rel: Relation, variables: Sequence[int], n: int) -> int:
    """Truth table over the 2**n assignments of rel applied to variables:
    bit a is set iff the tuple whose coordinate j is bit variables[j] of a
    lies in rel."""
    words = [input_pattern(v, n) for v in variables]
    return substitute(rel.mask, words, (1 << (1 << n)) - 1)


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
    # tuple t becomes t ^ full == full - t: the mask's 2**arity bits reversed
    mask = int(f"{rel.mask:0{1 << rel.arity}b}"[::-1], 2)
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

def preserves(f: BoolFun, rel: Relation) -> bool:
    """Whether f is a polymorphism of rel.

    Exhaustive over all |rel|**arity(f) choices of tuples (with repetition):
    applying f coordinatewise to every choice must land back in rel.
    """
    return violating_choice(f, rel) is None


def check_tuple_choices(size: int, arity: int, limit: int) -> None:
    """Raise BudgetExceededError when a preservation check of a relation of
    size tuples by a function of the given arity would try more than limit
    tuple choices."""
    if size ** arity > limit:
        raise BudgetExceededError(f"{size}**{arity} tuple choices exceed preserves budget")


def violating_choice(f: BoolFun, rel: Relation) -> tuple[int, ...] | None:
    """The first tuple choice, in itertools.product order, that f maps
    outside rel; None if f preserves rel.

    Bit-parallel over the choices: lane L is the L-th choice of
    itertools.product(rel.tuples(), repeat=f.arity), whose position p reads
    the tuple of digit p of L in base |rel| (the last position fastest).
    Coordinate j of every image is one `substitute` of f over the lanes'
    coordinate-j words, and one `substitute` of rel's mask over the images
    marks the lanes that land inside rel.  BudgetExceededError when the
    choices are more than the preserves budget allows."""
    check_tuple_choices(rel.mask.bit_count(), f.arity, budgets().preserves_combos)
    tuples = rel.tuples()
    m, k = len(tuples), f.arity
    if not m**k:
        return None  # no choice to make
    full = (1 << m**k) - 1
    # words[p][j]: the lanes whose position-p tuple has coordinate j set; the
    # digit of position p repeats with period m * stride, m**p times
    words = [[0] * rel.arity for _ in range(k)]
    for p in range(k):
        stride = m ** (k - 1 - p)
        repeat = full // ((1 << m * stride) - 1)
        for c, t in enumerate(tuples):
            block = ((1 << stride) - 1) << c * stride
            for j in range(rel.arity):
                if (t >> j) & 1:
                    words[p][j] |= block
        words[p] = [w * repeat for w in words[p]]
    images = [substitute(f.table, [words[p][j] for p in range(k)], full) for j in range(rel.arity)]
    outside = full & ~substitute(rel.mask, images, full)
    if not outside:
        return None
    lane = (outside & -outside).bit_length() - 1
    digits = []
    for _ in range(k):
        lane, d = divmod(lane, m)
        digits.append(tuples[d])
    return tuple(reversed(digits))


# Clone closure at bounded arity.

def closure_up_to(basis: Iterable[BoolFun], a: int, targets: Iterable[BoolFun] | None = None) -> list[BoolFun]:
    """Least superset of basis plus projections of arity <= a, closed under
    composition with results of arity <= a.  Sorted, deterministic.

    Computed per arity as a fixpoint under basis gates: every composition
    through intermediate functions of arity <= a decomposes into iterated
    basis-gate applications over same-arity operands, with variable
    identification and permutation supplied by the projection seeds.

    Each round is semi-naive: it composes only operand tuples holding at
    least one table new in the last round, and every tuple whose first new
    operand sits at position i goes through one bit-parallel `substitute`
    call, one tuple per lane.

    With targets, an arity's rounds stop once it holds every target of that
    arity, and an arity with no target runs none: the result is a subset of
    the closure that holds each target the closure holds.
    """
    b = budgets()
    if a > b.a_max:
        raise BudgetExceededError(f"arity {a} above a_max={b.a_max}")
    gates = sorted(set((g.arity, g.table) for g in basis))
    out: set[BoolFun] = set(BoolFun(ar, tb) for ar, tb in gates if ar <= a)
    aims: dict[int, set[int]] = {}
    for f in targets or ():
        aims.setdefault(f.arity, set()).add(f.table)
    steps = 0
    for m in range(1, a + 1):
        aim = aims.get(m, set())
        if targets is not None and not aim:
            continue
        width = max(1, (1 << m) >> 3)  # bytes per lane
        lane_full = ((1 << (1 << m)) - 1).to_bytes(width, "little")
        tables = set(input_pattern(i, m) for i in range(m))
        tables.update(tb for ar, tb in gates if ar == m)
        old: list[int] = []
        frontier = sorted(tables)
        while frontier and not (aim and aim <= tables):
            known = sorted(tables)
            new: set[int] = set()
            for g_ar, g_tb in gates:
                for i in range(g_ar):
                    operands = [old] * i + [frontier] + [known] * (g_ar - 1 - i)
                    count = math.prod(map(len, operands))
                    if not count:
                        continue
                    steps += count
                    if steps > b.closure_steps:
                        raise BudgetExceededError("closure composition budget exceeded")
                    words = _lane_words(operands, width)
                    lanes = substitute(g_tb, words, int.from_bytes(lane_full * count, "little"))
                    new.update(_lane_values(lanes, count, width))
            new -= tables
            old = known
            tables.update(new)
            frontier = sorted(new)
        out.update(BoolFun(m, t) for t in tables)
    return sorted(out)


def _lane_words(operands: Sequence[Sequence[int]], width: int) -> list[int]:
    """One word per operand list, `width` bytes per lane, lane L holding the
    L-th tuple of itertools.product(*operands)."""
    words = []
    inner = math.prod(map(len, operands))
    outer = 1
    for values in operands:
        inner //= len(values)
        block = b"".join(v.to_bytes(width, "little") * inner for v in values)
        words.append(int.from_bytes(block * outer, "little"))
        outer *= len(values)
    return words


def _lane_values(lanes: int, count: int, width: int) -> set[int]:
    """The distinct values of `count` lanes of `width` bytes each."""
    raw = lanes.to_bytes(count * width, "little")
    if width == 1:
        return set(raw)
    return {
        int.from_bytes(chunk, "little")
        for chunk in {raw[j:j + width] for j in range(0, len(raw), width)}
    }


# Reachability in a digraph of bitsets.

def reach(adj: Sequence[int], frontier: int) -> int:
    """The nodes reachable from the node bitset `frontier`, frontier included,
    in a digraph given by out-neighbour bitsets: breadth-first search."""
    seen = frontier
    while frontier:
        step = 0
        while frontier:
            low = frontier & -frontier
            step |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = step & ~seen
        seen |= frontier
    return seen


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
        mask = _tuple_mask(parts[4:], arity, f"line {lineno}: ")
        relations.append(Relation(arity, mask, rel_name))
    return RelationSet(tuple(relations), name)


def _tuple_mask(tokens, arity: int, where: str = "") -> int:
    """Tuple mask of bit-string tuples, the one tuple parser of the text and
    JSON formats: each is `arity` characters of 0 and 1."""
    mask = 0
    for tok in tokens:
        if not isinstance(tok, str) or len(tok) != arity or any(c not in "01" for c in tok):
            raise RelationParseError(f"{where}bad tuple {tok!r}")
        mask |= 1 << int(tok[::-1], 2)
    return mask


def json_int(value, what: str) -> int:
    """value when it is a JSON integer; RelationParseError for a string,
    float, bool or anything else, which int() would read silently."""
    if type(value) is not int:
        raise RelationParseError(f"{what} must be an integer, got {value!r}")
    return value


def json_str(value, what: str) -> str:
    """value when it is a JSON string; RelationParseError for anything else."""
    if type(value) is not str:
        raise RelationParseError(f"{what} must be a string, got {value!r}")
    return value


def json_list(value, what: str, shape: str = "a list", sizes: tuple[int, ...] = ()) -> list:
    """value when it is a JSON list (of one of the lengths `sizes`, when given);
    otherwise RelationParseError naming the field and its expected shape, where
    iterating or unpacking would fail in Python's words or walk a string."""
    if type(value) is not list or (sizes and len(value) not in sizes):
        raise RelationParseError(f"{what} must be {shape}, got {value!r}")
    return value


def relation_to_json(rel: Relation) -> dict:
    return {"name": rel.name, "arity": rel.arity, "tuples": list(rel.tuple_strings())}


def relation_from_json(obj: dict) -> Relation:
    arity = json_int(obj["arity"], "relation arity")
    if not 1 <= arity <= MAX_TEXT_ARITY:  # before Relation computes 1 << arity
        raise RelationParseError(f"relation arity must be in 1..{MAX_TEXT_ARITY}, got {arity}")
    tuples = json_list(obj["tuples"], "relation tuples", "a list of bit strings")
    return Relation(arity, _tuple_mask(tuples, arity), json_str(obj.get("name", ""), "relation name"))


def relation_set_to_json(sset: RelationSet) -> dict:
    return {"name": sset.name, "relations": [relation_to_json(r) for r in sset]}


def relation_set_from_json(obj: dict) -> RelationSet:
    return RelationSet(
        tuple(relation_from_json(r) for r in json_list(obj["relations"], "relations")),
        json_str(obj.get("name", ""), "relation set name"),
    )
