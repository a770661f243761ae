"""Named Boolean clones, basis-preservation checks, and CSP-SAT verdicts.

The catalog encodes finite bases for the clones driving the two monotone
dichotomies.  Containment of a clone inside Pol(S) is decided soundly by
checking that every basis function preserves every relation of S: the set of
polymorphisms is closed under composition, so basis preservation implies the
whole clone is contained.

The EASY/HARD sides are computed from the superclone checks exactly as the
dichotomy case analyses do; membership tests of the form "Pol(S) inside a
given clone" are never attempted directly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

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
    closure_up_to,
    preserves,
    relation_set_to_json,
    violating_choice,
)
from .config import Budgets
from .errors import CatalogError, UnknownCloneError

S00_FN = BoolFun.from_function(3, lambda x, y, z: x | (y & z), "x|(y&z)")
S10_FN = BoolFun.from_function(3, lambda x, y, z: x & (y | z), "x&(y|z)")
S02_FN = BoolFun.from_function(3, lambda x, y, z: x | (y & (1 - z)), "x|(y&~z)")
S12_FN = BoolFun.from_function(3, lambda x, y, z: x & (y | (1 - z)), "x&(y|~z)")
D1_FN = BoolFun.from_function(3, lambda x, y, z: (x + y + (1 - z)) >= 2, "maj(x,y,~z)")
D_FN = BoolFun.from_function(3, lambda x, y, z: (x + (1 - y) + (1 - z)) >= 2, "maj(x,~y,~z)")
R2_FN = BoolFun.from_function(3, lambda x, y, z: x & (1 - (y ^ z)), "x&(y<->z)")


@dataclass(frozen=True)
class CloneDescriptor:
    name: str
    basis: tuple[BoolFun, ...]
    known_subclones: frozenset[str] = frozenset()
    known_superclones: frozenset[str] = frozenset()


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
    ("V2", "S00"),
    ("V2", "M2"),
    ("E2", "S10"),
    ("E2", "M2"),
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

SIZE_EASY_CLONES = ("I0", "I1", "E2", "V2", "D2")
DEPTH_EASY_CLONES = ("I0", "I1", "S00", "S10", "D2")


def _build_catalog() -> dict[str, CloneDescriptor]:
    for name, basis in _BASES.items():
        for f in basis:
            if f.arity > 3:
                raise CatalogError(f"basis of {name} has arity > 3")
    below: dict[str, set[str]] = {n: {"I2"} if n != "I2" else set() for n in _BASES}
    for sub, sup in _EDGES:
        below[sup].add(sub)
    changed = True
    while changed:
        changed = False
        for name in _BASES:
            grown = set(below[name])
            for sub in below[name]:
                grown |= below[sub]
            if grown != below[name]:
                below[name] = grown
                changed = True
    for name in _BASES:
        if name in below[name]:
            raise CatalogError("inclusion order is not antisymmetric")
    above: dict[str, set[str]] = {n: set() for n in _BASES}
    for name in _BASES:
        for sub in below[name]:
            above[sub].add(name)
    return {
        name: CloneDescriptor(
            name,
            _BASES[name],
            frozenset(below[name]),
            frozenset(above[name]),
        )
        for name in _BASES
    }


CATALOG: dict[str, CloneDescriptor] = _build_catalog()


def descriptor(label: str) -> CloneDescriptor:
    try:
        return CATALOG[label]
    except KeyError:
        raise UnknownCloneError(label) from None


@dataclass(frozen=True)
class InclusionCheck:
    sub: str
    sup: str
    ok: bool
    missing: tuple[BoolFun, ...] = ()


@dataclass(frozen=True)
class CatalogReport:
    checks: tuple[InclusionCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> tuple[InclusionCheck, ...]:
        return tuple(c for c in self.checks if not c.ok)


@lru_cache(maxsize=None)
def _closure3(label: str) -> frozenset[BoolFun]:
    return frozenset(closure_up_to(CATALOG[label].basis, 3))


def validate_catalog() -> CatalogReport:
    """Check every recorded inclusion by closure computation at arity 3."""
    checks = []
    for name, desc in sorted(CATALOG.items()):
        sup_closure = _closure3(name)
        for sub in sorted(desc.known_subclones):
            sub_closure = _closure3(sub)
            missing = tuple(sorted(sub_closure - sup_closure))
            checks.append(InclusionCheck(sub, name, not missing, missing))
    return CatalogReport(tuple(checks))


_CATALOG_VALIDATED = False


def ensure_catalog_valid() -> None:
    global _CATALOG_VALIDATED
    if _CATALOG_VALIDATED:
        return
    report = validate_catalog()
    if not report.ok:
        bad = ", ".join(f"{c.sub}<={c.sup}" for c in report.failures())
        raise CatalogError(f"clone catalog failed validation: {bad}")
    _CATALOG_VALIDATED = True


@lru_cache(maxsize=1 << 14)
def in_pol(label: str, rel: Relation) -> bool:
    """Whether the basis of clone `label` preserves rel, i.e. whether the
    clone lies inside Pol({rel}).

    The one test of fragment membership: classification, solver choice,
    solver guards and emitter choice all read it.  It checks only the named
    clone's basis and never validates the catalog, so a caller that needs
    one clone pays for one.
    """
    return all(preserves(f, rel) for f in descriptor(label).basis)


@lru_cache(maxsize=1 << 14)
def _preserved_labels(rel: Relation) -> frozenset[str]:
    return frozenset(name for name in CATALOG if in_pol(name, rel))


def clone_contained_in_pol(
    clone: str | CloneDescriptor, sset: RelationSet, budget: Budgets | None = None
) -> tuple[bool, list[dict]]:
    """Whether the named clone is contained in Pol(sset), with witnesses.

    Every entry records one (basis function, relation) decision; a failed one
    carries the violating tuple choice, replayable through `preserves`.
    """
    desc = clone if isinstance(clone, CloneDescriptor) else descriptor(clone)
    witness = []
    contained = True
    for f in desc.basis:
        for idx, rel in enumerate(sset):
            ok = preserves(f, rel, budget)
            entry = {
                "function": {"name": f.name, "arity": f.arity, "table": f.table},
                "relation": idx,
                "preserved": ok,
            }
            if not ok:
                contained = False
                choice = violating_choice(f, rel)
                entry["violating_tuples"] = [
                    "".join(str((t >> j) & 1) for j in range(rel.arity)) for t in choice
                ]
            witness.append(entry)
    return contained, witness


@dataclass(frozen=True)
class Verdict:
    """Classification record for CSP-SAT over one relation set."""

    input_name: str
    relation_set: RelationSet
    preserved: tuple[str, ...]
    trivial: bool
    trivial_via: str | None
    degenerate: tuple[dict, ...]
    size_side: str
    depth_side: str
    hardness_notes: tuple[str, ...] = ()
    equality: str | None = None
    equality_query: dict | None = None
    witnesses: dict | None = None

    def to_json(self) -> dict:
        out = {
            "input": self.input_name,
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


def classify(
    sset: RelationSet, with_witnesses: bool = False, budget: Budgets | None = None
) -> Verdict:
    """Dichotomy verdict from the decisive basis-preservation checks.

    Degenerate relations (empty or full) are flagged and set aside: full
    relations never constrain anything, and a present empty-relation
    constraint makes the formula unsatisfiable outright, so neither affects
    the dichotomy side of the remaining relations.
    """
    ensure_catalog_valid()
    degenerate = tuple(
        {
            "relation": i,
            "name": sset[i].name or f"R{i}",
            "kind": "empty" if sset[i].is_empty else "full",
        }
        for i in sset.degenerate
    )
    working = [r for r in sset if not r.is_degenerate]
    preserved = set(CATALOG)
    for rel in working:
        preserved &= _preserved_labels(rel)
    has_empty = any(d["kind"] == "empty" for d in degenerate)
    trivial_via = next((c for c in ("I0", "I1") if c in preserved), None)
    trivial = trivial_via is not None and not has_empty
    size_side = "EASY" if any(c in preserved for c in SIZE_EASY_CLONES) else "HARD"
    depth_side = "EASY" if any(c in preserved for c in DEPTH_EASY_CLONES) else "HARD"
    witnesses = None
    if with_witnesses:
        witnesses = {}
        for label in sorted(CATALOG):
            contained, entries = clone_contained_in_pol(
                label, RelationSet(tuple(working), sset.name), budget
            )
            witnesses[label] = {"contained": contained, "checks": entries}
    return Verdict(
        input_name=sset.name or "",
        relation_set=sset,
        preserved=tuple(sorted(preserved)),
        trivial=trivial,
        trivial_via=trivial_via,
        degenerate=degenerate,
        size_side=size_side,
        depth_side=depth_side,
        witnesses=witnesses,
    )


@dataclass(frozen=True)
class EqualitySearch:
    result: str  # YES | NO_WITHIN_BOUNDS | UNKNOWN
    query: "object | None" = None  # reductions.CQDefinition on YES


def can_express_equality(sset: RelationSet, budget: Budgets | None = None) -> EqualitySearch:
    """Search for a conjunctive query over sset defining binary equality.

    Bounded by the budget's aux-variable and atom counts; incompleteness is
    explicit in the result shape.
    """
    # local import: reductions sits above this module
    from .reductions import CQSearchOverflow, find_cq

    try:
        query = find_cq(EQ2, sset, budget=budget)
    except CQSearchOverflow:
        return EqualitySearch("UNKNOWN")
    if query is None:
        return EqualitySearch("NO_WITHIN_BOUNDS")
    return EqualitySearch("YES", query)


def hardness_consequences(verdict: Verdict, budget: Budgets | None = None) -> Verdict:
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
        preserved = set(verdict.preserved)
        if not ({"S02", "S12"} & preserved):
            notes.append("L-hard under AC0 many-one reductions")
        else:
            search = can_express_equality(verdict.relation_set, budget)
            equality = search.result
            if search.result == "YES":
                notes.append("L-hard under AC0 many-one reductions")
                equality_query = search.query.to_json()
            elif search.result == "NO_WITHIN_BOUNDS":
                notes.append("no equality query within bounds; depth-3 monotone AC0 candidate")
            else:
                notes.append("equality expressibility undecided at budget")
    return replace(
        verdict,
        hardness_notes=tuple(dict.fromkeys(notes)),
        equality=equality,
        equality_query=equality_query,
    )
