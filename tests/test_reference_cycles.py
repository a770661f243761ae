"""No postlab call leaves a reference cycle behind.

A nested function that names itself reaches itself through its closure cell,
so the function, its cell and everything the closure holds (a builder's gates
and memo, say) stay alive after the call until the cyclic collector runs.
Each such function is listed here with the reason it may stay, and the
checkpoint and quine sweeps run with the collector off and must leave it
nothing.
"""

import ast
import gc
from pathlib import Path

import pytest

from postlab import verify

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "postlab"

# `module.function.nested` -> why it may name itself.
ALLOWED = {
    "circuit.evaluate_ref.rec": (
        "the independent reference evaluator, memoized recursion from the outputs; only tests call it"
    ),
}


def self_naming_nested_functions(source: str) -> list[str]:
    """The dotted path of every function defined inside another function
    whose body (arguments included) names the function itself."""
    found = []
    stack = [(node, (), False) for node in ast.parse(source).body]
    while stack:
        node, path, in_function = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            path += (node.name,)
            if in_function and not isinstance(node, ast.ClassDef):
                if any(isinstance(n, ast.Name) and n.id == node.name for n in ast.walk(node)):
                    found.append(".".join(path))
            in_function = in_function or not isinstance(node, ast.ClassDef)
        stack += [(child, path, in_function) for child in ast.iter_child_nodes(node)]
    return sorted(found)


def test_detector_finds_self_naming_nested_functions_only():
    source = (
        "def outer():\n"
        "    def rec(x):\n"
        "        return rec(x - 1) if x else 0\n"
        "    def plain(x):\n"
        "        return x\n"
        "    return rec(3) + plain(1)\n"
        "def top(x):\n"
        "    return top(x - 1) if x else 0\n"
        "class C:\n"
        "    def m(self):\n"
        "        def inner(n):\n"
        "            if n:\n"
        "                async def deeper():\n"
        "                    return deeper\n"
        "                return inner(n - 1)\n"
        "        return self.m\n"
    )
    assert self_naming_nested_functions(source) == ["C.m.inner", "C.m.inner.deeper", "outer.rec"]


def test_no_nested_function_names_itself_outside_the_allowlist():
    found = {
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in self_naming_nested_functions(path.read_text())
    }
    assert found == set(ALLOWED)


@pytest.mark.parametrize(
    "sweep",
    [lambda: verify.verify_checkpoint(0, 40), lambda: verify.suite_quine(quick=True)],
    ids=["checkpoint", "quine"],
)
def test_the_sweeps_leave_nothing_for_the_cyclic_collector(sweep):
    gc.collect()
    gc.disable()
    try:
        assert sweep().ok
        assert gc.collect() == 0
    finally:
        gc.enable()
