"""postlab's records: plain classes with the value semantics the package
relies on, and no code compiled at run time to define them."""

import ast
import pickle
from pathlib import Path

import pytest

from postlab.boolfun import EQ2, IMP2, BoolFun, Relation, RelationSet
from postlab.circuit import INPUT, Circuit
from postlab.clone_lattice import classify
from postlab.csp import CspInstance

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
