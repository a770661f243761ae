"""Command-line front end: classify, solve, reduce, emit, pad, verify, oracle.

Exit codes: 0 success, 1 verification failure, 2 parse/usage error,
3 budget exceeded or fragment mismatch.  All commands are deterministic
under a fixed --seed; POSTLAB_BUDGET overrides enumeration budgets.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from . import clone_lattice, construct, csp, graphlab, reductions, verify
from .boolfun import MAX_TEXT_ARITY, json_int, parse_relations, relation_set_from_json
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


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # a usage error ends in main, with exit 2
        raise _CliError(message, EXIT_PARSE)

    def exit(self, status=0, message=None):  # with error overridden, only --help exits
        sys.stdout.flush()  # the help text; a closed pipe raises here
        raise _CliError(message, status)


# the running command's files: "inputs", path -> the bytes it read (their
# sha256 goes in a --report), and "outputs", the paths it wrote; main empties
# both before each command
_files: dict = {"inputs": {}, "outputs": []}


def _load(path: str, parse):
    """parse(text) of the UTF-8 file at path; any failure to read, decode or
    parse it is a usage error that names the file."""
    try:
        data = Path(path).read_bytes()
        _files["inputs"][path] = data
        return parse(data.decode())
    except KeyError as exc:
        raise _CliError(f"{path}: missing field {exc}", EXIT_PARSE)
    except (OSError, ValueError, TypeError, RecursionError) as exc:
        raise _CliError(f"{path}: {exc}", EXIT_PARSE)


def _load_json(path: str, parse):
    def parse_object(text: str):
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise TypeError(f"expected a JSON object, got {type(obj).__name__}")
        return parse(obj)

    return _load(path, parse_object)


def _load_relation_set(path: str):
    json_file = Path(path).suffix == ".json"
    sset = _load_json(path, relation_set_from_json) if json_file else _load(path, parse_relations)
    return sset if sset.name else type(sset)(sset.relations, Path(path).stem)


def _load_instance(args) -> csp.CspInstance:
    return _load_json(getattr(args, "in"), csp.CspInstance.from_json)


def _write_json(path: str | None, obj: dict) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise _CliError(f"cannot write {path}: {exc}", EXIT_PARSE)
    _files["outputs"].append(path)


def _check_writable(path: str | None) -> None:
    """Refuse, before the command runs, an output path that is a directory or
    whose directory is missing; None and '-' are stdout."""
    if path is None or path == "-":
        return
    target = Path(path)
    if target.is_dir():
        raise _CliError(f"cannot write {path}: it is a directory", EXIT_PARSE)
    if not target.parent.is_dir():
        raise _CliError(f"cannot write {path}: {target.parent} is not a directory", EXIT_PARSE)


def _run_report(args, argv: list[str], summary: dict, t0: float) -> None:
    if not args.report:
        return
    import hashlib  # OpenSSL is loaded only for a report's digests

    report = {
        "command": args.command,
        "argv": argv,
        "inputs": {path: hashlib.sha256(data).hexdigest() for path, data in _files["inputs"].items()},
        "outputs": _files["outputs"],
        "summary": summary,
        "seed": args.seed,
        "elapsed_ms": int((time.perf_counter() - t0) * 1000),
    }
    _write_json(args.report, report)


def cmd_classify(args) -> tuple[int, dict]:
    sset = _load_relation_set(args.relations)
    verdict = clone_lattice.classify(sset, with_witnesses=args.witnesses)
    if not args.no_hardness:
        verdict = clone_lattice.hardness_consequences(verdict)
    _write_json(None, verdict.to_json())
    return EXIT_OK, {"size": verdict.size_side, "depth": verdict.depth_side}


_SOLVERS = {
    "xor": csp.solve_xor,
    "horn": csp.solve_horn,
    "antihorn": csp.solve_antihorn,
    "2sat": csp.solve_2sat,
    "or-fragment": csp.solve_or_fragment,
    "brute": csp.satisfiable_brute,
}


def cmd_solve(args) -> tuple[int, dict]:
    inst = _load_instance(args)
    if args.solver == "auto":
        picked = csp.pick_solver(inst.sset)
        if picked is None:
            raise FragmentMismatchError("no designated solver for this relation set")
        label, solver = picked
    else:
        label, solver = args.solver, _SOLVERS[args.solver]
    sat = solver(inst)
    print(f"{'SAT' if sat else 'UNSAT'} solver={label}")
    return EXIT_OK, {"satisfiable": sat, "solver": label}


def _with_reduction(out: csp.CspInstance, red) -> dict:
    return {"instance": out.to_json(), "reduction": red.to_json()}


def _l2_to_l3(args) -> dict:
    inst = _load_instance(args)
    for r, rel in enumerate(inst.sset):
        if rel.arity >= MAX_TEXT_ARITY:  # its image R' would be unreadable
            raise _CliError(
                f"relation {rel.name or r} has arity {rel.arity}; l2-to-l3 would write arity "
                f"{rel.arity + 1}, above MAX_TEXT_ARITY = {MAX_TEXT_ARITY}",
                EXIT_PARSE,
            )
    return _with_reduction(*reductions.l2_to_l3_transform(inst))


def _cq_rewrite(args) -> dict:
    inst = _load_instance(args)
    target = _load_relation_set(args.target)
    defs = {}
    for r, rel in enumerate(inst.sset):
        d = reductions.find_cq(rel, target)
        if d is None:
            raise _CliError(f"no conjunctive query found for relation {r}", EXIT_BUDGET)
        defs[r] = d
    return _with_reduction(*reductions.cq_rewrite(inst, target, defs))


def _pol_reduce(args) -> dict:
    result = reductions.pol_reduce(_load_instance(args), _load_relation_set(args.target))
    if result is None:
        raise _CliError("bounded query search found no definitions", EXIT_BUDGET)
    return {"instance": result.instance.to_json(), "or_stage": result.or_stage.to_json()}


def _bip_oddfactor(args) -> dict:
    graph = _load_json(
        getattr(args, "in"),
        lambda obj: graphlab.BipGraph(json_int(obj["n"], "n"), json_int(obj["mask"], "mask")),
    )
    red = reductions.bip_oddfactor_to_xorsat(graph)
    return {"instance": red.instance.to_json(), "beta": red.beta.to_json()}


# op -> the JSON payload it writes; bip-oddfactor reads a bipartite graph,
# every other op an instance
_REDUCTIONS = {
    "eliminate-eq": lambda args: reductions.eliminate_equality(_load_instance(args)).to_json(),
    "negate": lambda args: csp.negate_instance(_load_instance(args)).to_json(),
    "l2-to-l3": _l2_to_l3,
    "cq-rewrite": _cq_rewrite,
    "pol-reduce": _pol_reduce,
    "bip-oddfactor": _bip_oddfactor,
}


def cmd_reduce(args) -> tuple[int, dict]:
    _write_json(args.out, _REDUCTIONS[args.op](args))
    return EXIT_OK, {"op": args.op}


_FANIN_MODES = {"logdepth": BOUNDED2, "flat": UNBOUNDED}

# kind -> the circuit it builds
_EMITS = {
    "checkpoint": lambda args: construct.checkpoint_circuit(
        _load_json(args.bp, construct.LayeredBP.from_json), args.d, args.mode
    ),
    "threshold": lambda args: construct.threshold_circuit(args.k, args.n, _FANIN_MODES[args.mode]),
    "induced": lambda args: construct.induced_subgraph_circuit(args.n, args.k),
    "csp": lambda args: construct.emit_monotone_csp_circuit(
        _load_relation_set(args.set), args.n, args.fragment
    ),
}


def cmd_emit(args) -> tuple[int, dict]:
    try:
        circuit = _EMITS[args.kind](args)
    except ValueError as exc:  # bad fragment or size parameter
        raise _CliError(str(exc), EXIT_PARSE)
    m = measures(circuit)
    _write_json(args.out, circuit.to_json())
    print(
        f"emitted {args.kind}: inputs={circuit.n} size={m.size} depth={m.depth} "
        f"monotone={m.monotone}",
        file=sys.stderr,
    )
    return EXIT_OK, {"size": m.size, "depth": m.depth}


def cmd_pad(args) -> tuple[int, dict]:
    circuit = _load_json(getattr(args, "in"), Circuit.from_json)
    try:
        padded = construct.pad_dummy_inputs(circuit, args.extra)
    except ValueError as exc:  # negative --extra
        raise _CliError(str(exc), EXIT_PARSE)
    _write_json(args.out, padded.to_json())
    return EXIT_OK, {}


def cmd_verify(args) -> tuple[int, dict]:
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
    return EXIT_OK if ok else EXIT_CHECK_FAILED, {"passed": passed, "checks": checks}


def cmd_csp_sat(args) -> tuple[int, dict]:
    inst = _load_instance(args)
    if args.listing:
        sys.stdout.write(inst.listing())
    value = csp.csp_sat_value(inst)
    print("UNSAT" if value else "SAT")
    return EXIT_OK, {"csp_sat": value}


def cmd_odd_factor(args) -> tuple[int, dict]:
    g = _load(args.graph, graphlab.parse_graph)
    value = graphlab.odd_factor_oracle(g) if args.mode == "oracle" else graphlab.odd_factor_fast(g)
    print("ODD-FACTOR" if value else "NO-ODD-FACTOR")
    return EXIT_OK, {"odd_factor": value}


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="postlab", description=__doc__)
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
    r.set_defaults(fn=cmd_reduce)
    ops = r.add_subparsers(dest="op", required=True)
    for op in _REDUCTIONS:
        o = ops.add_parser(op)
        what = "bipartite graph" if op == "bip-oddfactor" else "instance"
        o.add_argument("--in", required=True, help=f"{what} JSON")
        if op in ("cq-rewrite", "pol-reduce"):
            o.add_argument("--target", required=True, help="target relation set")

    e = sub.add_parser("emit", help="build a circuit construction")
    e.set_defaults(fn=cmd_emit)
    kinds = e.add_subparsers(dest="kind", required=True)
    k = kinds.add_parser("checkpoint", help="checkpoint circuit of a layered branching program")
    k.add_argument("--bp", required=True, help="layered branching program JSON")
    k.add_argument("--d", type=int, default=2, help="recursion depth")
    k.add_argument("--mode", choices=[construct.PARITY, construct.REACH], default=construct.PARITY)
    k = kinds.add_parser("threshold", help="at-least-k of n inputs")
    k.add_argument("--k", type=int, required=True)
    k.add_argument("--n", type=int, required=True, help="input count")
    k.add_argument("--mode", choices=list(_FANIN_MODES), default="logdepth")
    k = kinds.add_parser("induced", help="induced-subgraph extractor")
    k.add_argument("--n", type=int, required=True, help="vertex count")
    k.add_argument("--k", type=int, required=True, help="subgraph size")
    k = kinds.add_parser("csp", help="monotone CSP-SAT circuit of a relation set")
    k.add_argument("--set", required=True, help="relation set file")
    k.add_argument("--n", type=int, required=True, help="variable count")
    k.add_argument("--fragment", default="auto", help="emitter override")

    d = sub.add_parser("pad", help="append ignored dummy inputs to a circuit")
    d.add_argument("--in", required=True)
    d.add_argument("--extra", type=int, required=True)
    d.set_defaults(fn=cmd_pad)
    for writer in (*ops.choices.values(), *kinds.choices.values(), d):
        writer.add_argument("--out", help="output path (stdout when omitted)")

    v = sub.add_parser("verify", help="run an oracle-equivalence suite")
    v.add_argument("suite", choices=sorted(verify.SUITES) + ["all"])
    v.add_argument("--jobs", type=int, default=1)
    v.add_argument("--quick", action="store_true", help="smaller sweeps")
    v.add_argument("--max-vertices", type=int, default=7, help="odd-factor sweep bound")
    v.set_defaults(fn=cmd_verify)

    o = sub.add_parser("oracle", help="ground-truth evaluations")
    oracles = o.add_subparsers(dest="kind", required=True)
    k = oracles.add_parser("csp-sat", help="CSP-SAT value of an instance")
    k.add_argument("--in", required=True, help="instance JSON")
    k.add_argument("--listing", action="store_true", help="print the constraints")
    k.set_defaults(fn=cmd_csp_sat)
    k = oracles.add_parser("odd-factor", help="whether a graph has an odd factor")
    k.add_argument("--graph", required=True, help="graph text file")
    k.add_argument("--mode", default="fast", choices=["fast", "oracle"])
    k.set_defaults(fn=cmd_odd_factor)
    return p


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    _files.update(inputs={}, outputs=[])
    try:
        args = build_parser().parse_args(argv)
        budgets()  # a malformed POSTLAB_BUDGET is a usage error for every command
        for path in (args.report, getattr(args, "out", None)):
            _check_writable(path)
        t0 = time.perf_counter()
        code, summary = args.fn(args)
        _run_report(args, argv, summary, t0)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # The reader stopped early, which is not a failure.  Stdout now
        # writes to devnull, so the flush at exit has nothing to raise.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except _CliError as exc:
        if exc.code:  # --help ends here with 0, its text on stdout
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
