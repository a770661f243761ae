"""Command-line front end: classify, solve, reduce, emit, pad, verify, oracle.

Exit codes: 0 success, 1 verification failure, 2 parse/usage error,
3 budget exceeded or fragment mismatch.  All commands are deterministic
under a fixed --seed; POSTLAB_BUDGET overrides enumeration budgets.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

from . import clone_lattice, construct, csp, graphlab, reductions, verify
from .boolfun import json_int, parse_relations, relation_set_from_json
from .circuit import BOUNDED2, UNBOUNDED, Circuit, measures
from .config import budgets
from .errors import (
    BudgetConfigError,
    BudgetExceededError,
    CatalogError,
    FragmentMismatchError,
    PostlabError,
    RelationParseError,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _load_relation_set(path: str):
    p = Path(path)
    if p.suffix == ".json":
        sset = _load_json(path, relation_set_from_json)
    else:
        try:
            sset = parse_relations(p.read_text(), name=p.stem)
        except (OSError, ValueError) as exc:
            raise _CliError(f"{path}: {exc}", EXIT_PARSE)
    if not sset.name:
        sset = type(sset)(sset.relations, p.stem)
    return sset


def _require(args, *options: str) -> None:
    """Usage error unless every named option was given."""
    missing = [f"--{o}" for o in options if getattr(args, o) is None]
    if missing:
        what = getattr(args, "kind", None) or getattr(args, "op", "")
        raise _CliError(f"{args.command} {what} needs {', '.join(missing)}", EXIT_PARSE)


def _load_json(path: str, parse):
    try:
        obj = json.loads(Path(path).read_text())
        if not isinstance(obj, dict):
            raise _CliError(f"{path}: expected a JSON object, got {type(obj).__name__}", EXIT_PARSE)
        return parse(obj)
    except KeyError as exc:
        raise _CliError(f"{path}: missing field {exc}", EXIT_PARSE)
    except (OSError, ValueError, TypeError) as exc:
        raise _CliError(f"{path}: {exc}", EXIT_PARSE)


def _load_instance(path: str) -> csp.CspInstance:
    return _load_json(path, csp.CspInstance.from_json)


def _write_json(path: str | None, obj: dict) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise _CliError(f"cannot write {path}: {exc}", EXIT_PARSE)


def _run_report(args, inputs: list[str], outputs: list[str], summary: dict, t0: float) -> None:
    if not getattr(args, "report", None):
        return
    report = {
        "command": args.command,
        "argv": sys.argv[1:],
        "inputs": {p: _sha256(Path(p)) for p in inputs if Path(p).exists()},
        "outputs": outputs,
        "summary": summary,
        "seed": getattr(args, "seed", None),
        "elapsed_ms": int((time.perf_counter() - t0) * 1000),
    }
    _write_json(args.report, report)


def cmd_classify(args) -> int:
    t0 = time.perf_counter()
    sset = _load_relation_set(args.relations)
    verdict = clone_lattice.classify(sset, with_witnesses=args.witnesses)
    if not args.no_hardness:
        verdict = clone_lattice.hardness_consequences(verdict)
    _write_json(None, verdict.to_json())
    _run_report(args, [args.relations], [], {"size": verdict.size_side, "depth": verdict.depth_side}, t0)
    return EXIT_OK


_SOLVERS = {
    "xor": csp.solve_xor,
    "horn": csp.solve_horn,
    "antihorn": csp.solve_antihorn,
    "2sat": csp.solve_2sat,
    "or-fragment": csp.solve_or_fragment,
    "brute": csp.satisfiable_brute,
}


def cmd_solve(args) -> int:
    t0 = time.perf_counter()
    inst = _load_instance(getattr(args, "in"))
    if args.solver == "auto":
        picked = csp.pick_solver(inst.sset)
        if picked is None:
            raise FragmentMismatchError("no designated solver for this relation set")
        label, solver = picked
    else:
        label, solver = args.solver, _SOLVERS[args.solver]
    sat = solver(inst)
    print(f"{'SAT' if sat else 'UNSAT'} solver={label}")
    _run_report(args, [getattr(args, "in")], [], {"satisfiable": sat, "solver": label}, t0)
    return EXIT_OK


def cmd_reduce(args) -> int:
    t0 = time.perf_counter()
    # bip-oddfactor reads a bipartite graph; every other op reads an instance
    inst = None if args.op == "bip-oddfactor" else _load_instance(getattr(args, "in"))
    outputs = []
    if args.op == "eliminate-eq":
        payload = reductions.eliminate_equality(inst).to_json()
    elif args.op == "negate":
        payload = csp.negate_instance(inst).to_json()
    elif args.op == "l2-to-l3":
        out, red = reductions.l2_to_l3_transform(inst)
        payload = {"instance": out.to_json(), "reduction": red.to_json()}
    elif args.op == "cq-rewrite":
        _require(args, "target")
        target = _load_relation_set(args.target)
        defs = {}
        for r, rel in enumerate(inst.sset):
            d = reductions.find_cq(rel, target)
            if d is None:
                raise _CliError(f"no conjunctive query found for relation {r}", EXIT_BUDGET)
            defs[r] = d
        out, red = reductions.cq_rewrite(inst, defs)
        payload = {"instance": out.to_json(), "reduction": red.to_json()}
    elif args.op == "pol-reduce":
        _require(args, "target")
        target = _load_relation_set(args.target)
        result = reductions.pol_reduce(inst, target)
        if result is None:
            raise _CliError("bounded query search found no definitions", EXIT_BUDGET)
        payload = {
            "instance": result.instance.to_json(),
            "or_stage": result.or_stage.to_json(),
        }
    else:
        graph = _load_json(
            getattr(args, "in"),
            lambda obj: graphlab.BipGraph(json_int(obj["n"], "n"), json_int(obj["mask"], "mask")),
        )
        red = reductions.bip_oddfactor_to_xorsat(graph)
        payload = {"instance": red.instance.to_json(), "beta": red.beta.to_json()}
    _write_json(args.out, payload)
    if args.out:
        outputs.append(args.out)
    _run_report(args, [getattr(args, "in")], outputs, {"op": args.op}, t0)
    return EXIT_OK


def cmd_emit(args) -> int:
    t0 = time.perf_counter()
    inputs = []
    try:
        if args.kind == "checkpoint":
            _require(args, "bp")
            bp = _load_json(args.bp, construct.LayeredBP.from_json)
            inputs.append(args.bp)
            circuit = construct.checkpoint_circuit(bp, args.d, args.mode or construct.PARITY)
        elif args.kind == "threshold":
            _require(args, "k", "n")
            fanin_mode = {"logdepth": BOUNDED2, "flat": UNBOUNDED}.get(args.mode or "logdepth")
            if fanin_mode is None:
                raise ValueError(f"unknown mode {args.mode!r}")
            circuit = construct.threshold_circuit(args.k, args.n, fanin_mode)
        elif args.kind == "induced":
            _require(args, "n", "k")
            circuit = construct.induced_subgraph_circuit(args.n, args.k)
        else:
            _require(args, "set", "n")
            sset = _load_relation_set(args.set)
            inputs.append(args.set)
            circuit = construct.emit_monotone_csp_circuit(sset, args.n, args.fragment)
    except ValueError as exc:  # bad mode, fragment or size parameter
        raise _CliError(str(exc), EXIT_PARSE)
    m = measures(circuit)
    _write_json(args.out, circuit.to_json())
    print(
        f"emitted {args.kind}: inputs={circuit.n} size={m.size} depth={m.depth} "
        f"monotone={m.monotone}",
        file=sys.stderr,
    )
    _run_report(
        args,
        inputs,
        [args.out] if args.out else [],
        {"size": m.size, "depth": m.depth},
        t0,
    )
    return EXIT_OK


def cmd_pad(args) -> int:
    t0 = time.perf_counter()
    circuit = _load_json(getattr(args, "in"), Circuit.from_json)
    try:
        padded = construct.pad_dummy_inputs(circuit, args.extra)
    except ValueError as exc:  # negative --extra
        raise _CliError(str(exc), EXIT_PARSE)
    _write_json(args.out, padded.to_json())
    _run_report(args, [getattr(args, "in")], [args.out] if args.out else [], {}, t0)
    return EXIT_OK


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    if args.jobs < 1:
        raise _CliError(f"--jobs must be >= 1, got {args.jobs}", EXIT_PARSE)
    if args.max_vertices < 1:
        raise _CliError(f"--max-vertices must be >= 1, got {args.max_vertices}", EXIT_PARSE)
    reports = verify.run_suite(
        args.suite,
        jobs=args.jobs,
        quick=args.quick,
        seed=args.seed,
        max_vertices=args.max_vertices,
    )
    ok = True
    for rep in reports:
        for line in rep.lines():
            print(line)
        ok = ok and rep.ok
    checks = sum(len(r.checks) for r in reports)
    passed = sum(1 for r in reports for c in r.checks if c.passed)
    print(f"{passed}/{checks} checks passed in {time.perf_counter() - t0:.1f}s")
    _run_report(args, [], [], {"passed": passed, "checks": checks}, t0)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_oracle(args) -> int:
    t0 = time.perf_counter()
    if args.kind == "csp-sat":
        _require(args, "in")
        inst = _load_instance(getattr(args, "in"))
        if args.listing:
            sys.stdout.write(inst.listing())
        value = csp.csp_sat_value(inst)
        print("UNSAT" if value else "SAT")
        _run_report(args, [getattr(args, "in")], [], {"csp_sat": value}, t0)
    else:
        _require(args, "graph")
        try:
            g = graphlab.parse_graph(Path(args.graph).read_text())
        except (OSError, RelationParseError) as exc:
            raise _CliError(str(exc), EXIT_PARSE)
        value = (
            graphlab.odd_factor_oracle(g) if args.mode == "oracle" else graphlab.odd_factor_fast(g)
        )
        print("ODD-FACTOR" if value else "NO-ODD-FACTOR")
        _run_report(args, [args.graph], [], {"odd_factor": value}, t0)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="postlab", description=__doc__)
    p.add_argument("--seed", type=int, default=0, help="seed for randomized commands")
    p.add_argument("--report", help="write a JSON run report to this path")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="dichotomy verdict for a relation set")
    c.add_argument("relations", help="relation file (.rels text or .json)")
    c.add_argument("--witnesses", action="store_true", help="include preservation witnesses")
    c.add_argument("--no-hardness", action="store_true", help="skip hardness annotations")
    c.set_defaults(fn=cmd_classify)

    s = sub.add_parser("solve", help="run a fragment solver on an instance")
    s.add_argument("solver", choices=sorted(_SOLVERS) + ["auto"])
    s.add_argument("--in", required=True, help="instance JSON")
    s.set_defaults(fn=cmd_solve)

    r = sub.add_parser("reduce", help="apply a reduction to an instance")
    r.add_argument(
        "op",
        choices=["eliminate-eq", "negate", "l2-to-l3", "cq-rewrite", "pol-reduce", "bip-oddfactor"],
    )
    r.add_argument("--in", required=True, help="instance JSON (or bipartite graph JSON)")
    r.add_argument("--target", help="target relation set for cq-rewrite / pol-reduce")
    r.add_argument("--out", help="output path (stdout when omitted)")
    r.set_defaults(fn=cmd_reduce)

    e = sub.add_parser("emit", help="build a circuit construction")
    e.add_argument("kind", choices=["checkpoint", "threshold", "induced", "csp"])
    e.add_argument("--bp", help="layered branching program JSON (checkpoint)")
    e.add_argument("--d", type=int, default=2, help="recursion depth (checkpoint)")
    e.add_argument(
        "--mode",
        help="checkpoint: parity (default) | reach; threshold: logdepth (default) | flat",
    )
    e.add_argument("--k", type=int, help="threshold k / induced subgraph size")
    e.add_argument("--n", type=int, help="input count / variable count")
    e.add_argument("--set", help="relation set file (csp)")
    e.add_argument("--fragment", default="auto", help="csp fragment override")
    e.add_argument("--out", help="output path (stdout when omitted)")
    e.set_defaults(fn=cmd_emit)

    d = sub.add_parser("pad", help="append ignored dummy inputs to a circuit")
    d.add_argument("--in", required=True)
    d.add_argument("--extra", type=int, required=True)
    d.add_argument("--out", help="output path (stdout when omitted)")
    d.set_defaults(fn=cmd_pad)

    v = sub.add_parser("verify", help="run an oracle-equivalence suite")
    v.add_argument("suite", choices=sorted(verify.SUITES) + ["all"])
    v.add_argument("--jobs", type=int, default=1)
    v.add_argument("--quick", action="store_true", help="smaller sweeps")
    v.add_argument("--max-vertices", type=int, default=7, help="odd-factor sweep bound")
    v.set_defaults(fn=cmd_verify)

    o = sub.add_parser("oracle", help="ground-truth evaluations")
    o.add_argument("kind", choices=["csp-sat", "odd-factor"])
    o.add_argument("--in", help="instance JSON (csp-sat)")
    o.add_argument("--graph", help="graph text file (odd-factor)")
    o.add_argument("--mode", default="fast", choices=["fast", "oracle"])
    o.add_argument("--listing", action="store_true", help="print the constraints")
    o.set_defaults(fn=cmd_oracle)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        budgets()  # a malformed POSTLAB_BUDGET is a usage error for every command
        return args.fn(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (RelationParseError, BudgetConfigError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (BudgetExceededError, FragmentMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except CatalogError as exc:
        print(f"catalog error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except PostlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
