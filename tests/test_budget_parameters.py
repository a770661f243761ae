"""One way to set a budget: POSTLAB_BUDGET, read where each limit is checked.

A `budget=` parameter is a second channel that can disagree with the first:
a caller's value reaches only the functions that pass it on.  The one
parameter kept is `graphlab.odd_factor_oracle`'s snapshot, which the
odd-factor sweep reads once per chunk of graphs instead of once per graph.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "postlab"

ALLOWED = {"graphlab.odd_factor_oracle"}


def _public(name: str) -> bool:
    return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))


def _parameters(fn: ast.FunctionDef) -> list[str]:
    a = fn.args
    extra = [v for v in (a.vararg, a.kwarg) if v is not None]
    return [arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs + extra]


def budget_parameters(tree: ast.Module, module: str) -> set[str]:
    """`module.name` of each public function and `module.Class.name` of each
    public method (a constructor counts) that has a parameter named `budget`."""
    found = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            members, prefix = [node], f"{module}."
        elif isinstance(node, ast.ClassDef) and _public(node.name):
            members, prefix = node.body, f"{module}.{node.name}."
        else:
            continue
        found |= {
            prefix + fn.name
            for fn in members
            if isinstance(fn, ast.FunctionDef)
            and _public(fn.name)
            and "budget" in _parameters(fn)
        }
    return found


def test_detector_sees_functions_and_methods():
    source = (
        "def classify(sset, with_witnesses=False, budget=None):\n    pass\n"
        "def find_cq(target, over, *, budget):\n    pass\n"
        "def _private(budget):\n    pass\n"
        "def fine(sset):\n    pass\n"
        "class C:\n"
        "    def __init__(self, n, budget=None):\n        pass\n"
        "    def m(self, budget=None):\n        pass\n"
        "    def _p(self, budget=None):\n        pass\n"
        "class _D:\n"
        "    def m(self, budget=None):\n        pass\n"
    )
    assert budget_parameters(ast.parse(source), "a") == {
        "a.classify", "a.find_cq", "a.C.__init__", "a.C.m"
    }


def test_only_the_odd_factor_oracle_takes_a_budget():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        found |= budget_parameters(ast.parse(path.read_text()), path.stem)
    assert found == ALLOWED


def test_budgets_takes_no_parameters():
    tree = ast.parse((PACKAGE / "config.py").read_text())
    (fn,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "budgets"]
    assert _parameters(fn) == []
