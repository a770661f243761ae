"""Every public name in postlab has a caller inside postlab.

A public module-level function, class, method or upper-case constant that no
postlab module reads, and that no `__all__` lists, is an export only the tests
use; so is a field of a public dataclass that no postlab module reads.  Names
are matched by name alone: a method that shares its name with one in use
elsewhere (`from_json`, `to_json`, `evaluate`) passes here unread, so such
names have to be checked by hand.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "postlab"

# The test-only names that stay, each with its reason.
ALLOWED = {
    "circuit.evaluate": "the one-assignment gate evaluation that perfbench traces and the tests call",
    "circuit.evaluate_ref": "the independent reference evaluator the tests compare against",
    "graphlab.Graph.complete": "the README example uses it",
}


def _public(name: str) -> bool:
    return not name.startswith("_")


def defined_names(tree: ast.Module, module: str) -> list[str]:
    """`module.name` of each public module-level function, class and
    upper-case constant, and `module.Class.method` of each public method."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _public(node.name):
            out.append(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                out += [
                    f"{module}.{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and _public(item.name)
                ]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [
                f"{module}.{t.id}"
                for t in targets
                if isinstance(t, ast.Name) and _public(t.id) and t.id.isupper()
            ]
    return out


def _is_dataclass(decorator: ast.expr) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return isinstance(target, ast.Name) and target.id == "dataclass"


def dataclass_fields(tree: ast.Module, module: str) -> list[str]:
    """`module.Class.field` of each annotated field of a public dataclass."""
    return [
        f"{module}.{node.name}.{item.target.id}"
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        and _public(node.name)
        and any(_is_dataclass(d) for d in node.decorator_list)
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
    ]


def used_names(tree: ast.Module) -> set[str]:
    """Names the module reads, bare or as attributes, and the strings its
    `__all__` lists."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(elt.value for elt in node.value.elts)
    return used


def unused_names(sources: dict[str, str], defined=defined_names) -> set[str]:
    """Qualified names that `defined` lists, over modules given as
    {name: source}, that no module reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    used = set().union(*(used_names(tree) for tree in trees.values()))
    return {
        qualname
        for module, tree in trees.items()
        for qualname in defined(tree, module)
        if qualname.rsplit(".", 1)[1] not in used
    }


def test_detector_sees_functions_methods_and_constants():
    sources = {
        "a": (
            "LIMIT = 3\nlow = 1\n_HIDDEN = 2\n"
            "def f():\n    return g()\n"
            "def g():\n    pass\n"
            "class C:\n    size: int = 0\n    def m(self):\n        pass\n"
            "    def _p(self):\n        pass\n"
        ),
        "b": "from .a import C, f\nC().size\n__all__ = ['LIMIT']\n",
    }
    # f is imported but never read; C is read, its method m is not
    assert unused_names(sources) == {"a.f", "a.C.m"}


def test_detector_sees_unread_dataclass_fields():
    sources = {
        "a": (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\nclass P:\n    x: int\n    y: int\n    z: int = 0\n"
            "@dataclass\nclass Q:\n    w: int\n"
            "class R:\n    v: int\n"
            "@dataclass\nclass _S:\n    u: int\n"
        ),
        "b": "def f(p, x):\n    return p.x + x\n",
    }
    # x is read; y, z and w are not; R is no dataclass and _S is private
    assert unused_names(sources, dataclass_fields) == {"a.P.y", "a.P.z", "a.Q.w"}


def _package_sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def test_every_public_name_has_a_caller():
    assert unused_names(_package_sources()) == set(ALLOWED)


def test_every_dataclass_field_is_read():
    assert unused_names(_package_sources(), dataclass_fields) == set()
