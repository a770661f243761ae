"""Named Boolean clones, basis-preservation checks, and CSP-SAT verdicts.

The catalog encodes finite bases for the clones driving the two monotone
dichotomies.  Containment of a clone inside Pol(S) is decided soundly by
checking that every basis function preserves every relation of S: the set of
polymorphisms is closed under composition, so basis preservation implies the
whole clone is contained.

The recorded inclusions are re-proven once per process at arity 3: each
direct edge by one closure of the larger clone's basis that stops once it
holds the smaller clone's basis, every other inclusion by a path of edges.

The EASY/HARD sides are computed from the superclone checks exactly as the
dichotomy case analyses do; membership tests of the form "Pol(S) inside a
given clone" are never attempted directly.
"""

from __future__ import annotations

from functools import cache, lru_cache, reduce
from operator import and_

from .boolfun import (
    AND2,
    CONST0,
    CONST1,
    EQ2,
    IFF2,
    MAJ3,
    NEGATION,
    OR2,
    XOR2,
    XOR3,
    BoolFun,
    Relation,
    RelationSet,
    check_tuple_choices,
    closure_up_to,
    preserves,
    reach,
    relation_set_to_json,
    violating_choice,
)
from .config import budgets
from .errors import CatalogError, UnknownCloneError
from .record import Frozen

S00_FN = BoolFun.from_function(3, lambda x, y, z: x | (y & z), "x|(y&z)")
S10_FN = BoolFun.from_function(3, lambda x, y, z: x & (y | z), "x&(y|z)")
S02_FN = BoolFun.from_function(3, lambda x, y, z: x | (y & (1 - z)), "x|(y&~z)")
S12_FN = BoolFun.from_function(3, lambda x, y, z: x & (y | (1 - z)), "x&(y|~z)")
D1_FN = BoolFun.from_function(3, lambda x, y, z: (x + y + (1 - z)) >= 2, "maj(x,y,~z)")
D_FN = BoolFun.from_function(3, lambda x, y, z: (x + (1 - y) + (1 - z)) >= 2, "maj(x,~y,~z)")
R2_FN = BoolFun.from_function(3, lambda x, y, z: x & (1 - (y ^ z)), "x&(y<->z)")


class CloneDescriptor(Frozen):
    __slots__ = ("name", "basis", "known_subclones")
    name: str
    basis: tuple[BoolFun, ...]
    known_subclones: frozenset[str]


_BASES: dict[str, tuple[BoolFun, ...]] = {
    "I2": (),
    "I0": (CONST0,),
    "I1": (CONST1,),
    "N2": (NEGATION,),
    "E2": (AND2,),
    "V2": (OR2,),
    "L0": (XOR2,),
    "L1": (IFF2,),
    "L2": (XOR3,),
    "L3": (XOR3, NEGATION),
    "L": (XOR2, CONST1),
    "D2": (MAJ3,),
    "D1": (D1_FN,),
    "D": (D_FN,),
    "M2": (AND2, OR2),
    "S00": (S00_FN,),
    "S10": (S10_FN,),
    "S02": (S02_FN,),
    "S12": (S12_FN,),
    "R2": (OR2, R2_FN),
}

# Direct inclusion edges (sub, sup); transitively closed at catalog build.
_EDGES: tuple[tuple[str, str], ...] = (
    ("I0", "L0"),
    ("I1", "L1"),
    ("N2", "L3"),
    ("N2", "D"),
    ("L2", "L3"),
    ("L2", "L0"),
    ("L2", "L1"),
    ("L2", "D1"),
    ("L0", "L"),
    ("L1", "L"),
    ("L3", "L"),
    ("L3", "D"),
    ("V2", "S00"),
    ("V2", "M2"),
    ("S00", "M2"),
    ("E2", "S10"),
    ("E2", "M2"),
    ("S10", "M2"),
    ("S00", "S02"),
    ("S10", "S12"),
    ("S02", "R2"),
    ("S12", "R2"),
    ("D2", "D1"),
    ("D2", "M2"),
    ("D1", "D"),
    ("D1", "R2"),
    ("M2", "R2"),
)

# in the order csp.pick_solver and construct.detect_fragment try them; a
# Verdict names the first one its mask holds as trivial_via
_TRIVIAL_CLONES = ("I1", "I0")
SIZE_EASY_CLONES = _TRIVIAL_CLONES + ("E2", "V2", "D2")
DEPTH_EASY_CLONES = _TRIVIAL_CLONES + ("S00", "S10", "D2")


def _build_catalog() -> dict[str, CloneDescriptor]:
    for name, basis in _BASES.items():
        for f in basis:
            if f.arity > 3:
                raise CatalogError(f"basis of {name} has arity > 3")
    names = list(_BASES)
    index = {name: i for i, name in enumerate(names)}
    # per clone, its direct subclones as a bitset over names; I2 lies below every other
    down = [0 if name == "I2" else 1 << index["I2"] for name in names]
    for sub, sup in _EDGES:
        down[index[sup]] |= 1 << index[sub]
    below = [reach(down, d) for d in down]
    if any((b >> i) & 1 for i, b in enumerate(below)):
        raise CatalogError("inclusion order is not antisymmetric")
    return {
        name: CloneDescriptor(
            name, _BASES[name], frozenset(sub for j, sub in enumerate(names) if (b >> j) & 1)
        )
        for name, b in zip(names, below)
    }


CATALOG: dict[str, CloneDescriptor] = _build_catalog()

# A Pol mask is a set of catalog clones as one int: bit i stands for the i-th
# clone of CATALOG.
CLONE_BITS: dict[str, int] = {name: 1 << i for i, name in enumerate(CATALOG)}
_ALL_CLONES = (1 << len(CATALOG)) - 1
_SIZE_EASY_MASK = sum(CLONE_BITS[c] for c in SIZE_EASY_CLONES)
_DEPTH_EASY_MASK = sum(CLONE_BITS[c] for c in DEPTH_EASY_CLONES)
# the arity of the widest basis function: a relation's Pol bits try at most
# |R|**_WIDEST_BASIS tuple choices
_WIDEST_BASIS = max(f.arity for desc in CATALOG.values() for f in desc.basis)


def descriptor(label: str) -> CloneDescriptor:
    try:
        return CATALOG[label]
    except KeyError:
        raise UnknownCloneError(label) from None


class InclusionCheck(Frozen):
    __slots__ = ("sub", "sup", "ok", "missing")
    sub: str
    sup: str
    ok: bool
    missing: tuple[BoolFun, ...]


class CatalogReport(Frozen):
    __slots__ = ("checks",)
    checks: tuple[InclusionCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> tuple[InclusionCheck, ...]:
        return tuple(c for c in self.checks if not c.ok)


@lru_cache(maxsize=None)
def _missing(sub: str, sup: str) -> tuple[BoolFun, ...]:
    """The basis functions of sub that the arity-3 closure of sup's basis
    lacks, by a closure that stops once it holds them: none exactly when
    sub <= sup, as `_build_catalog` refuses a basis wider than 3."""
    basis = CATALOG[sub].basis
    found = set(closure_up_to(CATALOG[sup].basis, 3, basis))
    return tuple(f for f in basis if f not in found)


def validate_catalog() -> CatalogReport:
    """Check all 60 recorded inclusions at arity 3: each of the `_EDGES`,
    and I2 below every other clone, by `_missing`; every other pair by a
    path of proven edges (inclusion is transitive), or by `_missing` when a
    failing edge leaves no path."""
    names = list(CATALOG)
    index = {name: i for i, name in enumerate(names)}
    up = [0] * len(names)  # per clone, the clones one proven edge above it
    for sub, sup in _EDGES + tuple(("I2", name) for name in names if name != "I2"):
        if not _missing(sub, sup):
            up[index[sub]] |= 1 << index[sup]
    checks = []
    for name, desc in sorted(CATALOG.items()):
        for sub in sorted(desc.known_subclones):
            derived = reach(up, 1 << index[sub]) >> index[name] & 1
            missing = () if derived else _missing(sub, name)
            checks.append(InclusionCheck(sub, name, not missing, missing))
    return CatalogReport(tuple(checks))


@cache
def ensure_catalog_valid() -> None:
    """Validate the catalog once per process; the cache keeps no exception,
    so a failing catalog raises on every call."""
    report = validate_catalog()
    if not report.ok:
        bad = ", ".join(f"{c.sub}<={c.sup}" for c in report.failures())
        lacks = "; ".join(f"{c.sup} lacks {', '.join(map(repr, c.missing))}" for c in report.failures())
        raise CatalogError(f"clone catalog failed validation: {bad} ({lacks})")


def in_pol(label: str, rel: Relation) -> bool:
    """Whether the basis of clone `label` preserves rel, i.e. whether the
    clone lies inside Pol({rel}).

    The one preservation test of fragment membership: the Pol masks that
    classification, solver choice, solver guards and emitter choice read are
    built from it.  It checks only the named clone's basis and never
    validates the catalog, so a caller that needs one clone pays for one.
    It keeps no cache: every call tests the preserves budget.
    """
    return all(preserves(f, rel) for f in descriptor(label).basis)


@lru_cache(maxsize=1 << 14)
def _pol_bits(rel: Relation) -> int:
    return sum(bit for name, bit in CLONE_BITS.items() if in_pol(name, rel))


@lru_cache(maxsize=32)
def _pol_mask(sset: RelationSet, limit: int) -> int:
    relations = sset.relations
    if relations:
        check_tuple_choices(max(rel.mask.bit_count() for rel in relations), _WIDEST_BASIS, limit)
    return reduce(and_, map(_pol_bits, relations), _ALL_CLONES)


def pol_mask(sset: RelationSet) -> int:
    """Pol(sset) as a mask over CLONE_BITS: the catalog clones whose basis
    preserves every relation of sset.  The empty and full relations lie in
    every Pol.

    The mask is worked out once per (relation set, preserves limit), from
    bits kept per relation.  A miss tests the limit for the largest relation
    and the widest basis function before it reads any bits, and the limit is
    part of the key, so a cached mask raises exactly when a fresh one would."""
    return _pol_mask(sset, budgets().preserves_combos)


def clone_contained_in_pol(label: str, sset: RelationSet) -> tuple[bool, list[dict]]:
    """Whether the named clone is contained in Pol(sset), with witnesses.

    Every entry records one (basis function, relation) decision; a failed one
    carries the violating tuple choice, replayable through `preserves`.
    """
    witness = []
    for f in descriptor(label).basis:
        for idx, rel in enumerate(sset):
            choice = violating_choice(f, rel)
            entry = {
                "function": {"name": f.name, "arity": f.arity, "table": f.table},
                "relation": idx,
                "preserved": choice is None,
            }
            if choice is not None:
                entry["violating_tuples"] = [
                    "".join(str((t >> j) & 1) for j in range(rel.arity)) for t in choice
                ]
            witness.append(entry)
    return all(entry["preserved"] for entry in witness), witness


class Verdict(Frozen):
    """Classification record for CSP-SAT over one relation set: every label
    is read off `pol`, the Pol(S) clone mask; the rest are annotations."""

    __slots__ = ("relation_set", "pol", "hardness_notes", "equality", "equality_query", "witnesses")
    relation_set: RelationSet
    pol: int
    hardness_notes: tuple[str, ...]
    equality: str | None
    equality_query: dict | None
    witnesses: dict | None

    @property
    def preserved(self) -> tuple[str, ...]:
        return tuple(sorted(name for name, bit in CLONE_BITS.items() if self.pol & bit))

    @property
    def trivial_via(self) -> str | None:
        return next((c for c in _TRIVIAL_CLONES if self.pol & CLONE_BITS[c]), None)

    @property
    def degenerate(self) -> tuple[dict, ...]:
        """Full relations constrain nothing; a present empty relation makes
        the formula unsatisfiable outright, so it blocks `trivial`."""
        return tuple(
            {"relation": i, "name": r.name or f"R{i}", "kind": "empty" if r.is_empty else "full"}
            for i, r in enumerate(self.relation_set)
            if r.is_degenerate
        )

    @property
    def trivial(self) -> bool:
        return self.trivial_via is not None and not any(r.is_empty for r in self.relation_set)

    @property
    def size_side(self) -> str:
        return "EASY" if self.pol & _SIZE_EASY_MASK else "HARD"

    @property
    def depth_side(self) -> str:
        return "EASY" if self.pol & _DEPTH_EASY_MASK else "HARD"

    def to_json(self) -> dict:
        out = {
            "input": self.relation_set.name or "",
            "relation_set": relation_set_to_json(self.relation_set),
            "preserved": list(self.preserved),
            "trivial": self.trivial,
            "trivial_via": self.trivial_via,
            "degenerate": list(self.degenerate),
            "size_side": self.size_side,
            "depth_side": self.depth_side,
            "hardness_notes": list(self.hardness_notes),
            "equality": self.equality,
        }
        if self.equality_query is not None:
            out["equality_query"] = self.equality_query
        if self.witnesses is not None:
            out["witnesses"] = self.witnesses
        return out


def classify(sset: RelationSet, with_witnesses: bool = False) -> Verdict:
    """Dichotomy verdict from the decisive basis-preservation checks.  Every
    clone preserves the empty and full relations, so neither affects the
    dichotomy side of the others, and the witnesses leave them out."""
    ensure_catalog_valid()
    pol = pol_mask(sset)
    witnesses = None
    if with_witnesses:
        working = RelationSet(tuple(r for r in sset if not r.is_degenerate), sset.name)
        witnesses = {}
        for label in sorted(CATALOG):
            contained, entries = clone_contained_in_pol(label, working)
            witnesses[label] = {"contained": contained, "checks": entries}
    return Verdict(sset, pol, (), None, None, witnesses)


class EqualitySearch(Frozen):
    __slots__ = ("result", "query")
    result: str  # YES | NO_WITHIN_BOUNDS | UNKNOWN
    query: object | None  # reductions.CQDefinition on YES


def can_express_equality(sset: RelationSet) -> EqualitySearch:
    """Search for a conjunctive query over sset defining binary equality.

    Bounded by the budget's aux-variable and atom counts; incompleteness is
    explicit in the result shape.
    """
    # local import: reductions sits above this module
    from .reductions import CQSearchOverflow, find_cq

    try:
        query = find_cq(EQ2, sset)
    except CQSearchOverflow:
        return EqualitySearch("UNKNOWN", None)
    if query is None:
        return EqualitySearch("NO_WITHIN_BOUNDS", None)
    return EqualitySearch("YES", query)


def hardness_consequences(verdict: Verdict) -> Verdict:
    """Attach hardness labels implied by the dichotomy sides.

    Reporting only: a HARD depth side implies parity-L-hardness under AC0
    many-one reductions, and anything neither trivial nor inside the
    OR/NAND-with-units fragment is L-hard.  The fragment test is best-effort:
    when the bounded equality search is inconclusive, no label is attached
    and the verdict records the open outcome.
    """
    notes = list(verdict.hardness_notes)
    equality = verdict.equality
    equality_query = verdict.equality_query
    if verdict.depth_side == "HARD":
        notes.append("parity-L-hard under AC0 many-one reductions")
    if not verdict.trivial:
        if not verdict.pol & (CLONE_BITS["S02"] | CLONE_BITS["S12"]):
            notes.append("L-hard under AC0 many-one reductions")
        else:
            search = can_express_equality(verdict.relation_set)
            equality = search.result
            if search.result == "YES":
                notes.append("L-hard under AC0 many-one reductions")
                equality_query = search.query.to_json()
            elif search.result == "NO_WITHIN_BOUNDS":
                notes.append("no equality query within bounds; depth-3 monotone AC0 candidate")
            else:
                notes.append("equality expressibility undecided at budget")
    return Verdict(
        verdict.relation_set,
        verdict.pol,
        tuple(dict.fromkeys(notes)),
        equality,
        equality_query,
        verdict.witnesses,
    )
