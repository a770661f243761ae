"""Self-test of the benchmark's tracer and correctness gate.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_tracer.py

The tracer rewrites postlab's bindings process-wide, so every traced case
runs in a fresh interpreter and reports back as JSON.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from workloads import WORKLOADS, check

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

PRELUDE = """
import json, sys
import postlab.cli
from postlab import clone_lattice, graphlab, verify
from tracer import LAYERS, Tracer, _layer_functions, _unwrap
originals = {
    id(_unwrap(raw)): qualname
    for layer in LAYERS
    for qualname, _, _, raw in _layer_functions(sys.modules["postlab." + layer], layer)
}
tracer = Tracer()
tracer.install()
clone_lattice.ensure_catalog_valid()
"""


def _traced(body: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]), PYTHONHASHSEED="0")
    env.pop("POSTLAB_BUDGET", None)
    proc = subprocess.run(
        [sys.executable, "-c", PRELUDE + body], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_binding_is_wrapped():
    got = _traced("""
def leftovers(value, where):
    if callable(value) and id(value) in originals:
        yield f"{where} -> {originals[id(value)]}"
    elif type(value) in (tuple, list):
        for i, v in enumerate(value):
            yield from leftovers(v, f"{where}[{i}]")
    elif type(value) is dict:
        for k, v in value.items():
            yield from leftovers(v, f"{where}[{k!r}]")

found = []
for modname, module in sys.modules.items():
    if modname.startswith("postlab"):
        for attr, value in vars(module).items():
            found += leftovers(value, f"{modname}.{attr}")
            if isinstance(value, type):
                for name, raw in vars(value).items():
                    found += leftovers(_unwrap(raw), f"{modname}.{attr}.{name}")
w = tracer.wrappers
print(json.dumps({
    "leftovers": found,
    "verify_imports": [
        verify.solve_xor is w["csp.solve_xor"],
        verify.csp_sat_value is w["csp.csp_sat_value"],
        verify.violation_masks is w["csp.violation_masks"],
        verify.evaluate is w["circuit.evaluate"],
        verify.truth_tables is w["circuit.truth_tables"],
        verify.quine_strip is w["circuit.quine_strip"],
        verify._EMITTER_CONFIGS[0][1] is w["csp.hornt_set"],
    ],
    "methods": [
        verify.CspInstance.decode is w["csp.CspInstance.decode"],
        graphlab.Graph.from_edge_mask.__func__ is w["graphlab.Graph.from_edge_mask"],
    ],
    "timed": {q: tracer.timed[tracer.names.index(q)] for q in (
        "csp.CspInstance.decode", "csp.CspInstance.encode", "boolfun.preserves",
        "csp.CspInstance.iter_constraints", "csp.solve_horn",
    )},
}))
""")
    assert got["leftovers"] == []
    assert all(got["verify_imports"])
    assert all(got["methods"])
    assert got["timed"] == {
        "csp.CspInstance.decode": False,
        "csp.CspInstance.encode": False,
        "boolfun.preserves": False,
        "csp.CspInstance.iter_constraints": False,  # a generator function
        "csp.solve_horn": True,
    }


def test_call_counts_match_the_sweep_parameters():
    got = _traced("""
import time
before = len(tracer.span_name)
t0 = time.perf_counter()
odd = verify.suite_oddfactor(max_vertices=5, jobs=1)
dich = verify.suite_dichotomy(instances_per_set=1, seed=3, quick=True)
t1 = time.perf_counter()
summary = tracer.summary()
roots = [s for s in range(before, len(tracer.span_name)) if tracer.span_parent[s] < 0]
print(json.dumps({
    "ok": odd.ok and dich.ok,
    "calls": {q: e["calls"] for q, e in summary.items()},
    "self_total": tracer.self_total(t0, t1),
    "root_total": sum(tracer.span_end[s] - tracer.span_start[s] for s in roots),
    "roots": [tracer.names[tracer.span_name[s]] for s in roots],
}))
""")
    calls = got["calls"]
    assert got["ok"]
    graphs = sum(1 << (v * (v - 1) // 2) for v in range(1, 6))  # 1099 labelled graphs
    iso_bases, iso_perms = 50, 20  # suite_oddfactor's isomorphism check
    assert calls["graphlab.Graph.from_edge_mask"] == graphs + iso_bases
    assert calls["graphlab.odd_factor_fast"] == graphs + iso_bases * (1 + iso_perms)
    assert calls["graphlab.odd_factor_oracle"] == graphs + iso_bases * (1 + iso_perms)
    assert calls["graphlab.tseitin_system"] == graphs
    assert calls["csp.gf2_satisfiable"] == graphs
    assert calls["graphlab.Graph.permuted"] == iso_bases * iso_perms
    sets = len(range(0, 1 << 16, 7))
    assert calls["clone_lattice.classify"] == sets
    assert calls["csp.pick_solver"] == sets
    # one instance per set goes to the designated solver, or to pick_solver's
    # untraced inner trivial() for I0/I1 sets; solve_antihorn calls solve_horn
    solvers = sum(calls[f"csp.{s}"] for s in ("solve_horn", "solve_2sat", "solve_or_fragment"))
    assert 0 < calls["csp.solve_antihorn"] and 0 < solvers <= sets
    assert calls["csp.CspInstance.decode"] > 0
    assert got["roots"] == ["verify.suite_oddfactor", "verify.suite_dichotomy"]
    assert got["self_total"] == pytest.approx(got["root_total"], rel=1e-9)


def test_spans_round_trip(tmp_path):
    got = _traced(f"""
from tracer import read_spans
verify.suite_quine(quick=True)
path = {str(tmp_path / "q.spans")!r}
tracer.write(path)
names, name, parent, start, end = read_spans(path)
print(json.dumps({{
    "same": names == tracer.names and name == tracer.span_name and parent == tracer.span_parent
    and start == tracer.span_start and end == tracer.span_end,
    "spans": len(name),
}}))
""")
    assert got["same"] and got["spans"] > 0


def test_gate_rejects_a_shrunken_sweep():
    from postlab import verify

    shrunk = verify.suite_reductions(seed=0, instances=10, quick=True)
    attempted, problems = check(WORKLOADS["reductions"], [shrunk])
    assert attempted == len(WORKLOADS["reductions"].expected["reductions"])
    assert sorted(problems) == sorted(
        [f"reductions/{name}: reported '10 instances', expected '500 instances'" for name in (
            "eliminate-equality", "cq-rewrite", "pol-reduce", "l2-to-l3", "negate-relations"
        )]
        + ["reductions/bip-oddfactor-duality: reported 'all 2^9 matrices', expected 'all 2^16 matrices'"]
    )
