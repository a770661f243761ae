"""No postlab module reaches into another module's private names.

A name with a leading underscore belongs to the module that defines it.
Another module may neither import it (`from .x import _y`) nor read it
through the module object (`x._y`); a helper that two modules need is public.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "postlab"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_uses(source: str) -> list[str]:
    """`module.name` for every private name of another postlab module that
    the source imports or reads through a module attribute."""
    tree = ast.parse(source)
    modules = set()  # local names bound to postlab modules
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        internal = node.level > 0 or (node.module or "").split(".")[0] == "postlab"
        if not internal:
            continue
        for alias in node.names:
            if node.module is None or node.module == "postlab":
                modules.add(alias.asname or alias.name)
            elif _is_private(alias.name):
                found.append(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and _is_private(node.attr)
        ):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_detector_sees_both_forms():
    source = "from . import csp\nfrom .csp import _menu_kind, pick_solver\nx = csp._layout\n"
    assert private_uses(source) == ["csp._menu_kind", "csp._layout"]
    assert private_uses("from __future__ import annotations\nimport os\nos._exit\n") == []


def test_no_cross_module_private_names():
    offenders = {
        path.name: uses
        for path in sorted(PACKAGE.glob("*.py"))
        if (uses := private_uses(path.read_text()))
    }
    assert offenders == {}
