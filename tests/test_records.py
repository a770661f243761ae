"""postlab's records: plain classes with the value semantics the package
relies on, and no code compiled at run time to define them."""

import ast
import functools
import pickle
from pathlib import Path

import pytest

from postlab.boolfun import EQ2, IMP2, OR2, BoolFun, Relation, RelationSet
from postlab.circuit import INPUT, Circuit, Dnf, measures
from postlab.clone_lattice import CATALOG, EqualitySearch, classify, validate_catalog
from postlab.config import Budgets
from postlab.construct import GraphPropertyCircuit, LayeredBP
from postlab.csp import CspInstance, XorSystem
from postlab.graphlab import BipGraph, Graph
from postlab.record import Frozen
from postlab.reductions import BitReduction, CQDefinition, PolReduction, bip_oddfactor_to_xorsat

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "postlab"

CODE_MAKERS = {("collections", "namedtuple"), ("typing", "NamedTuple")}


def generated_code_uses(source: str) -> list[str]:
    """What the source uses that compiles code at run time: the dataclasses
    module, namedtuple or NamedTuple, or a call of exec, eval or compile."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.split(".")[0] == "dataclasses"]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module == "dataclasses":
                found.append("dataclasses")
            found += [f"{node.module}.{a.name}" for a in node.names if (node.module, a.name) in CODE_MAKERS]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if (node.value.id, node.attr) in CODE_MAKERS:
                found.append(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("exec", "eval", "compile"):
                found.append(f"{node.func.id}()")
    return found


def test_detector_sees_every_form():
    source = (
        "import dataclasses\nfrom dataclasses import dataclass\n"
        "from collections import namedtuple\nimport typing\nP = typing.NamedTuple('P', [])\n"
        "exec('x = 1')\ncode = compile('1', '<s>', 'eval')\n"
    )
    assert sorted(generated_code_uses(source)) == [
        "collections.namedtuple", "compile()", "dataclasses", "dataclasses", "exec()", "typing.NamedTuple"
    ]
    clean = "from typing import Sequence\nimport re\npattern = re.compile('x')\nfrom .record import Frozen\n"
    assert generated_code_uses(clean) == []


def test_no_module_compiles_code_at_run_time():
    offenders = {
        path.name: uses for path in sorted(PACKAGE.glob("*.py")) if (uses := generated_code_uses(path.read_text()))
    }
    assert offenders == {}


@pytest.mark.parametrize("cls", [Relation, BoolFun])
def test_equality_hash_and_order_read_the_value_not_the_name(cls):
    value, renamed = cls(2, 0b1001, "b"), cls(2, 0b1001, "z")
    assert value == renamed and hash(value) == hash(renamed)
    assert not value < renamed and not renamed < value
    assert value != cls(2, 0b1000, "b")
    # names in the opposite order to the values: (arity, table or mask) sorts
    smaller, wider = cls(2, 0b0001, "zz"), cls(3, 0, "a")
    assert [f.name for f in sorted([wider, value, smaller])] == ["zz", "b", "a"]
    assert sorted({value, renamed, smaller}) in ([smaller, value], [smaller, renamed])


def test_relation_set_equality_reads_the_name_and_its_hash_does_not():
    named = RelationSet([EQ2, IMP2], "s")
    assert named.relations == (EQ2, IMP2)
    assert named == RelationSet((Relation(2, EQ2.mask, "other"), IMP2), "s")
    assert named != RelationSet((EQ2, IMP2), "t") and hash(named) == hash(RelationSet((EQ2, IMP2), "t"))
    assert named != RelationSet((IMP2, EQ2), "s")


def test_relations_survive_pickling_with_their_names_and_hashes():
    named = RelationSet((Relation(2, EQ2.mask, "same"), IMP2), "s")
    copy = pickle.loads(pickle.dumps(named))
    assert copy == named and hash(copy) == hash(named)
    assert [r.name for r in copy] == ["same", "imp"]


def test_frozen_records_refuse_assignment_and_deletion():
    sset = RelationSet((EQ2, IMP2), "s")
    for record, field in (
        (EQ2, "mask"),
        (sset, "name"),
        (CspInstance(sset, 2, 0b1), "bits"),
        (classify(sset), "pol"),
        (Circuit(1, ((INPUT, (0,)),), (0,)), "n"),
    ):
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, 1)
        with pytest.raises(AttributeError):
            delattr(record, field)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert getattr(record, field) is before, type(record).__name__


def test_an_instance_made_from_the_fields_drops_known_set_bits():
    sset = RelationSet((IMP2,))
    # known set bits are taken as given: these claim that no bit is set
    trusted = CspInstance(sset, 2, 0b1, known_set_bits=())
    assert list(trusted.iter_constraints()) == []
    assert list(CspInstance(trusted.sset, trusted.n, trusted.bits).iter_constraints()) == [(0, (0, 0))]
    grown = trusted.with_constraint(0, (1, 1))
    assert list(grown.iter_constraints()) == [(0, (0, 0)), (0, (1, 1))]


@functools.cache
def samples() -> dict[str, Frozen]:
    """One instance of each of postlab's `Frozen` records, by class name."""
    sset = RelationSet((EQ2, IMP2), "s")
    inst = CspInstance(sset, 2, 0b1)
    wire = Circuit(1, ((INPUT, (0,)),), (0,))
    report = validate_catalog()
    or_stage = BitReduction(2, 0b01, (0b10,))
    records = [
        OR2, IMP2, sset, wire, measures(wire), Dnf.make(2, [(0b01, 0b10)]), CATALOG["E2"],
        report.checks[0], report, classify(sset), EqualitySearch("NO_WITHIN_BOUNDS", None), Budgets(),
        LayeredBP(1, (1, 1), (((0, 0, ("lit", 0, True)),),)), GraphPropertyCircuit(2, wire, "edge"), inst,
        XorSystem(2, ((0b11, 1),)), Graph.complete(3), BipGraph(2, 0b1001), or_stage,
        CQDefinition(EQ2, sset, 0, ((0, (0, 1)),)), PolReduction(inst, or_stage),
        bip_oddfactor_to_xorsat(BipGraph(2, 0b1001)),
    ]
    return {type(record).__name__: record for record in records}


RECORDS = [cls for cls in Frozen.__subclasses__() if cls.__module__.startswith("postlab.")]


def test_the_samples_cover_every_record():
    assert len(RECORDS) == 22
    assert sorted(samples()) == sorted(cls.__name__ for cls in RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_every_record_survives_pickling(cls):
    record = samples()[cls.__name__]
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record) and copy == record


def bare_annotations(tree: ast.Module) -> dict[str, tuple[str, ...]]:
    """Per class, the names its body annotates without a value: its fields."""
    return {
        node.name: tuple(
            item.target.id for item in node.body if isinstance(item, ast.AnnAssign) and item.value is None
        )
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    }


def test_an_annotated_constant_would_become_a_field():
    class Planted(Frozen):
        x: int
        limit: int = 3

    assert Planted._fields == ("x", "limit")
    source = "class Planted(Frozen):\n    x: int\n    limit: int = 3\n"
    assert bare_annotations(ast.parse(source)) == {"Planted": ("x",)}


def test_the_fields_are_the_bare_annotations_of_each_record():
    declared = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for cls, fields in bare_annotations(ast.parse(path.read_text())).items():
            declared[f"postlab.{path.stem}.{cls}"] = fields
    for cls in RECORDS:
        assert cls._fields == declared[f"{cls.__module__}.{cls.__name__}"], cls.__name__
    # with the mutable Check and SuiteReport, the 81 fields that
    # tests/test_public_names.py counts
    mutable = declared["postlab.verify.Check"] + declared["postlab.verify.SuiteReport"]
    assert sum(len(cls._fields) for cls in RECORDS) + len(mutable) == 81


@pytest.mark.parametrize("cls", [cls for cls in RECORDS if cls.__init__ is Frozen.__init__], ids=lambda c: c.__name__)
def test_a_wrong_field_count_raises_type_error_naming_the_class(cls):
    values = [getattr(samples()[cls.__name__], name) for name in cls._fields]
    with pytest.raises(TypeError, match=rf"^{cls.__name__} takes {len(values)} fields"):
        cls(*values, 0)
    if len(cls._defaults) < len(values):  # every Budgets field has a default
        with pytest.raises(TypeError, match=rf"^{cls.__name__} takes {len(values)} fields"):
            cls(*values[: len(values) - len(cls._defaults) - 1])


def test_budgets_default_every_trailing_field():
    defaults = {
        "a_max": 4, "preserves_combos": 1 << 22, "closure_steps": 1 << 24, "brute_force_vars": 22,
        "oracle_edges": 24, "flat_threshold_terms": 1 << 18, "cq_aux_vars": 2, "cq_max_atoms": 4,
        "cq_states": 200_000,
    }
    assert tuple(defaults) == Budgets._fields
    assert {name: getattr(Budgets(), name) for name in defaults} == defaults
    assert {name: getattr(Budgets(5, 6), name) for name in defaults} == {**defaults, "a_max": 5, "preserves_combos": 6}


@pytest.mark.parametrize("cls", [cls for cls in RECORDS if cls.__eq__ is Frozen.__eq__], ids=lambda c: c.__name__)
def test_equal_fields_make_equal_records_with_equal_hashes(cls):
    record = samples()[cls.__name__]
    values = [getattr(record, name) for name in cls._fields]
    twin = cls(*values)
    assert twin is not record and twin == record and hash(twin) == hash(record)
    assert record != tuple(values)
    for i, name in enumerate(cls._fields):
        # built past any checks of the record's own __init__
        changed = cls.__new__(cls)
        Frozen.__init__(changed, *values[:i], object(), *values[i + 1 :])
        assert changed != record, name


def test_a_record_with_an_unhashable_field_is_unhashable():
    verdict = classify(RelationSet((EQ2, IMP2), "s"), with_witnesses=True)
    assert verdict == classify(RelationSet((EQ2, IMP2), "s"), with_witnesses=True)
    with pytest.raises(TypeError, match="unhashable"):
        hash(verdict)


# Outside record.py, the only field writes that go round the base: each row
# is (class, the field written through object.__setattr__, or "__dict__").
DIRECT_WRITES = {
    ("Graph", "__dict__"): "criterion 3 builds 2^21 graphs; a call of the base's __init__ costs about 550 ns each",
    ("CspInstance", "__dict__"): "one instance per dichotomy draw, and known_set_bits goes into the dict too",
    ("Relation", "_hash"): "the cached hash, a slot that is not a field",
    ("RelationSet", "_hash"): "the cached hash, a slot that is not a field",
}


def direct_writes(source: str) -> set[tuple[str, str]]:
    """(enclosing class, field or "__dict__") of each `object.__setattr__`
    call and each `__dict__` access in the source."""
    found = set()

    def visit(node: ast.AST, owner: str) -> None:
        if isinstance(node, ast.ClassDef):
            owner = node.name
        if isinstance(node, ast.Attribute) and node.attr == "__dict__":
            found.add((owner, "__dict__"))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__setattr__"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "object"
        ):
            arg = node.args[1] if len(node.args) > 1 else None
            found.add((owner, arg.value if isinstance(arg, ast.Constant) else "?"))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def test_detector_sees_every_direct_write():
    source = (
        "class A(Frozen):\n    def __init__(self, x):\n        object.__setattr__(self, 'x', x)\n"
        "class B:\n    def __init__(self, y):\n        state = self.__dict__\n        state['y'] = y\n"
        "def make(r, name):\n    object.__setattr__(r, name, 1)\n"
        "class C(Frozen):\n    def __init__(self, x):\n        super().__init__(x)\n        self.extra = 1\n"
    )
    assert direct_writes(source) == {("A", "x"), ("B", "__dict__"), ("<module>", "?")}


def test_field_writes_have_one_home():
    found = {
        row: path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "record.py"
        for row in direct_writes(path.read_text())
    }
    assert found.keys() == DIRECT_WRITES.keys(), found
