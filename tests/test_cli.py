"""Command-line interface: outputs, round trips, exit codes."""

import hashlib
import json
import os
import random
import sys
from pathlib import Path

import pytest

from postlab import csp, graphlab, verify
from postlab.boolfun import (
    EQ2,
    IMP2,
    UNIT_FALSE,
    UNIT_TRUE,
    XOR3_0,
    RelationSet,
    nand_relation,
    or_relation,
    parity_relation,
)
from postlab.circuit import Circuit
from postlab.cli import main
from postlab.construct import induced_subgraph_circuit, random_layered_bp, threshold_circuit
from postlab.csp import (
    CspInstance,
    csp_sat_value,
    hornt_set,
    random_instance,
    xor3_set,
    xor_system_to_instance,
)
from postlab.errors import FragmentMismatchError
from postlab.graphlab import Graph, tseitin_system

DATA = Path(__file__).parent / "data"
HORN3 = str(DATA / "horn3.rels")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_xor3(capsys):
    code, out, _ = run(capsys, "classify", str(DATA / "xor3.rels"))
    assert code == 0
    verdict = json.loads(out)
    assert verdict["size_side"] == "HARD" and verdict["depth_side"] == "HARD"


def test_classify_horn(capsys):
    code, out, _ = run(capsys, "classify", str(DATA / "horn3.rels"))
    assert code == 0
    verdict = json.loads(out)
    assert verdict["size_side"] == "EASY" and verdict["depth_side"] == "HARD"


def test_classify_trivial(capsys):
    for name, via in (("or2.rels", "I1"), ("nand2.rels", "I0")):
        code, out, _ = run(capsys, "classify", str(DATA / name))
        assert code == 0
        verdict = json.loads(out)
        assert verdict["trivial"] and verdict["trivial_via"] == via


def test_classify_and_solve_auto_name_one_trivial_clone(tmp_path, capsys):
    # imp is preserved by both constants: classify and pick_solver both say I1
    path = tmp_path / "imp.rels"
    path.write_text("rel imp 2 : 00 01 11\n")
    code, out, _ = run(capsys, "classify", str(path))
    assert code == 0 and json.loads(out)["trivial_via"] == "I1"
    inst = tmp_path / "imp.json"
    imp = CspInstance(RelationSet((IMP2,), "imp"), 2).with_constraint(0, (0, 1))
    inst.write_text(json.dumps(imp.to_json()))
    code, out, _ = run(capsys, "solve", "auto", "--in", str(inst))
    assert code == 0 and "solver=trivial(I1)" in out


def test_classify_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.rels"
    bad.write_text("rel broken x : 01\n")
    code, _, err = run(capsys, "classify", str(bad))
    assert code == 2 and "bad arity" in err


def test_classify_arity_cap(tmp_path, capsys):
    seven = tmp_path / "seven.rels"
    # the text format itself rejects arity 7, which surfaces as a parse error
    seven.write_text("rel wide 7 : 1111111\n")
    code, _, err = run(capsys, "classify", str(seven))
    assert code == 2


def test_solve_tseitin_triangle(tmp_path, capsys):
    inst = xor_system_to_instance(tseitin_system(Graph.complete(3)))
    path = tmp_path / "tri.json"
    path.write_text(json.dumps(inst.to_json()))
    code, out, _ = run(capsys, "solve", "xor", "--in", str(path))
    assert code == 0 and out.startswith("UNSAT")
    code, out, _ = run(capsys, "solve", "auto", "--in", str(path))
    assert code == 3  # xor sets have no designated fragment solver


def test_solve_fragment_mismatch_exit_code(tmp_path, capsys):
    inst = random_instance(xor3_set(), 3, 0.1, random.Random(0))
    path = tmp_path / "x.json"
    path.write_text(json.dumps(inst.to_json()))
    code, _, err = run(capsys, "solve", "horn", "--in", str(path))
    assert code == 3 and "AND-closed" in err


# per forced solver: a set whose relation 0 lies in the solver's clone and
# whose relation 1 does not, and the refusal naming relation 1
FORCED_REFUSALS = {
    "xor": (csp.solve_xor, (XOR3_0, or_relation(3)), "or3 is not an affine parity relation"),
    "horn": (csp.solve_horn, (IMP2, or_relation(2)), "or2 is not AND-closed (Horn fragment)"),
    "antihorn": (
        csp.solve_antihorn, (IMP2, nand_relation(2)), "nand2 is not OR-closed (anti-Horn fragment)"
    ),
    "2sat": (csp.solve_2sat, (IMP2, XOR3_0), "xor3^0 is not majority-closed (2-SAT fragment)"),
}


@pytest.mark.parametrize("name", sorted(FORCED_REFUSALS))
def test_forced_solver_refuses_a_set_with_an_unused_outsider(name, tmp_path, capsys):
    # the one set bit is on relation 0, so the guard refuses the set, not a bit
    solver, relations, message = FORCED_REFUSALS[name]
    base = CspInstance(RelationSet(relations, "mixed"), 3)
    inst = base.with_constraint(0, tuple(range(relations[0].arity)))
    with pytest.raises(FragmentMismatchError) as err:
        solver(inst)
    assert str(err.value) == f"relation {message}"
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(inst.to_json()))
    code, out, err_text = run(capsys, "solve", name, "--in", str(path))
    assert code == 3 and out == "" and f"relation {message}" in err_text


def test_reduce_eliminate_eq(tmp_path, capsys):
    eq_inst = {
        "relation_set": {
            "name": "eqset",
            "relations": [
                {"name": "eq", "arity": 2, "tuples": ["00", "11"]},
                {"name": "imp", "arity": 2, "tuples": ["00", "01", "11"]},
            ],
        },
        "n": 3,
        "set_bits": [],
    }
    inst = CspInstance.from_json(eq_inst)
    inst = inst.with_constraint(0, (0, 1)).with_constraint(1, (1, 2))
    src = tmp_path / "in.json"
    src.write_text(json.dumps(inst.to_json()))
    dst = tmp_path / "out.json"
    code, _, _ = run(capsys, "reduce", "eliminate-eq", "--in", str(src), "--out", str(dst))
    assert code == 0
    out = CspInstance.from_json(json.loads(dst.read_text()))
    assert all(r.name != "eq" for r in out.sset)
    # round trip through JSON is exact
    assert CspInstance.from_json(out.to_json()) == out


@pytest.mark.parametrize("op", ["negate", "l2-to-l3", "cq-rewrite", "pol-reduce"])
def test_reduce_keeps_the_csp_sat_value(tmp_path, capsys, op):
    # x0 = x1 = x2 and x0 = 1, without and with x2 = 0: SAT, then UNSAT
    eq_tf = RelationSet((EQ2, UNIT_TRUE, UNIT_FALSE), "eq_tf")
    sat = CspInstance(eq_tf, 3).with_constraint(0, (0, 1)).with_constraint(0, (1, 2))
    sat = sat.with_constraint(1, (0,))
    target = tmp_path / "imp_tf.rels"
    target.write_text("rel imp 2 : 00 01 11\nrel T 1 : 1\nrel F 1 : 0\n")
    for inst in (sat, sat.with_constraint(2, (2,))):
        src, dst = tmp_path / "in.json", tmp_path / "out.json"
        src.write_text(json.dumps(inst.to_json()))
        argv = ["reduce", op, "--in", str(src), "--out", str(dst)]
        if op in ("cq-rewrite", "pol-reduce"):
            argv += ["--target", str(target)]
        code, _, err = run(capsys, *argv)
        assert code == 0, err
        payload = json.loads(dst.read_text())
        out = CspInstance.from_json(payload if op == "negate" else payload["instance"])
        assert csp_sat_value(out) == csp_sat_value(inst)


NO_QUERY = {
    "cq-rewrite": "error: no conjunctive query found for relation 0",
    "pol-reduce": "error: bounded query search found no definitions",
}


@pytest.mark.parametrize("op", NO_QUERY)
def test_reduce_without_a_query_exits_3(tmp_path, capsys, op):
    # x0 != x1 has no conjunctive query over {imp, T, F}, with = or without
    ne_set = RelationSet((parity_relation(2, 1),), "ne")
    src, target = tmp_path / "ne.json", tmp_path / "imp_tf.rels"
    src.write_text(json.dumps(CspInstance(ne_set, 2).with_constraint(0, (0, 1)).to_json()))
    target.write_text("rel imp 2 : 00 01 11\nrel T 1 : 1\nrel F 1 : 0\n")
    code, out, err = run(capsys, "reduce", op, "--in", str(src), "--target", str(target))
    assert (code, out, err) == (3, "", NO_QUERY[op] + "\n")


def test_emit_induced_writes_the_library_circuit(capsys):
    code, out, _ = run(capsys, "emit", "induced", "--n", "4", "--k", "2")
    assert code == 0
    assert json.loads(out) == json.loads(json.dumps(induced_subgraph_circuit(4, 2).to_json()))


def test_solve_auto_picks_the_horn_solver_for_hornt(tmp_path, capsys):
    path = tmp_path / "hornt.json"
    path.write_text(json.dumps(random_instance(hornt_set(), 3, 0.2, random.Random(0)).to_json()))
    code, out, _ = run(capsys, "solve", "auto", "--in", str(path))
    assert code == 0 and out.split()[1] == "solver=horn(E2)"


def test_emit_csp_forced_horn_on_a_non_horn_set_exits_3(capsys):
    code, _, err = run(
        capsys, "emit", "csp", "--set", str(DATA / "or2.rels"), "--n", "2", "--fragment", "horn"
    )
    assert code == 3 and "relation or2 is not AND-closed (Horn fragment)" in err


def test_emit_checkpoint_depth(tmp_path, capsys):
    import random

    from postlab.construct import random_layered_bp

    bp = random_layered_bp(random.Random(3), 4)
    bp_path = tmp_path / "bp.json"
    bp_path.write_text(json.dumps(bp.to_json()))
    out = tmp_path / "c.json"
    code, _, err = run(
        capsys, "emit", "checkpoint", "--bp", str(bp_path), "--d", "2",
        "--mode", "parity", "--out", str(out),
    )
    assert code == 0 and "depth=4" in err
    circuit = Circuit.from_json(json.loads(out.read_text()))
    assert circuit.outputs


def test_emit_threshold_and_pad(tmp_path, capsys):
    out = tmp_path / "thr.json"
    code, _, _ = run(
        capsys, "emit", "threshold", "--k", "2", "--n", "4",
        "--mode", "logdepth", "--out", str(out),
    )
    assert code == 0
    padded = tmp_path / "padded.json"
    code, _, _ = run(capsys, "pad", "--in", str(out), "--extra", "3", "--out", str(padded))
    assert code == 0
    c = Circuit.from_json(json.loads(padded.read_text()))
    assert c.n == 4 + 3


@pytest.mark.parametrize("mode,fanin_mode", [("logdepth", "bounded2"), ("flat", "unbounded")])
def test_emit_threshold_mode_selects_the_fanin(capsys, mode, fanin_mode):
    code, out, _ = run(capsys, "emit", "threshold", "--k", "2", "--n", "4", "--mode", mode)
    assert code == 0
    assert json.loads(out)["fanin_mode"] == fanin_mode


def test_emit_csp_circuit(tmp_path, capsys):
    code, out, err = run(
        capsys, "emit", "csp", "--set", str(DATA / "horn3.rels"), "--n", "2"
    )
    assert code == 0 and "monotone=True" in err


def test_oracle_odd_factor(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("v 3\ne 0 1\ne 0 2\ne 1 2\n")  # the triangle
    code, out, _ = run(capsys, "oracle", "odd-factor", "--graph", str(path))
    assert code == 0 and "NO-ODD-FACTOR" in out
    code, out, _ = run(capsys, "oracle", "odd-factor", "--graph", str(path), "--mode", "oracle")
    assert code == 0 and "NO-ODD-FACTOR" in out


def test_oracle_csp_sat(tmp_path, capsys):
    inst = xor_system_to_instance(tseitin_system(Graph.complete(3)))
    path = tmp_path / "t.json"
    path.write_text(json.dumps(inst.to_json()))
    code, out, _ = run(capsys, "oracle", "csp-sat", "--in", str(path))
    assert code == 0 and out.strip() == "UNSAT"
    code, out, _ = run(capsys, "oracle", "csp-sat", "--in", str(path), "--listing")
    assert code == 0 and "xor3^0(" in out and out.rstrip().endswith("UNSAT")


def test_verify_quick_quine(capsys):
    code, out, _ = run(capsys, "verify", "quine", "--quick")
    assert code == 0
    assert "[PASS] quine/monotone-4var-count" in out


def test_run_report(tmp_path, capsys):
    report = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "--report", str(report), "classify", str(DATA / "or2.rels")
    )
    assert code == 0
    obj = json.loads(report.read_text())
    assert obj["command"] == "classify" and obj["summary"]["size"] == "EASY"
    assert list(obj["inputs"].values())[0].isalnum()


# argv -> the report's inputs and outputs: the file arguments (--target is
# not one) and --out
REPORTED_FILES = {
    "reduce": (
        ["reduce", "pol-reduce", "--in", "{inst}", "--target", "{target}", "--out", "{out}"],
        ["{inst}"],
        ["{out}"],
    ),
    "emit-csp": (["emit", "csp", "--set", HORN3, "--n", "2", "--out", "{out}"], [HORN3], ["{out}"]),
    "emit-threshold": (["emit", "threshold", "--k", "2", "--n", "4"], [], []),
    "oracle": (["oracle", "odd-factor", "--graph", "{graph}"], ["{graph}"], []),
    "verify": (["verify", "quine", "--quick"], [], []),
}


@pytest.mark.parametrize(
    "argv, inputs, outputs", REPORTED_FILES.values(), ids=REPORTED_FILES.keys()
)
def test_run_report_lists_the_files(tmp_path, capsys, argv, inputs, outputs):
    eq_tf = RelationSet((EQ2, UNIT_TRUE, UNIT_FALSE), "eq_tf")
    paths = {name: str(tmp_path / name) for name in ("inst", "target", "graph", "out", "report")}
    inst = CspInstance(eq_tf, 2).with_constraint(0, (0, 1))
    Path(paths["inst"]).write_text(json.dumps(inst.to_json()))
    Path(paths["target"]).write_text("rel imp 2 : 00 01 11\nrel T 1 : 1\nrel F 1 : 0\n")
    Path(paths["graph"]).write_text("v 2\ne 0 1\n")
    argv = ["--report", paths["report"], *(a.format(**paths) for a in argv)]
    code, _, err = run(capsys, *argv)
    assert code == 0, err
    report = json.loads(Path(paths["report"]).read_text())
    assert report["argv"] == argv
    inputs = [a.format(**paths) for a in inputs]
    assert report["inputs"] == {p: hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in inputs}
    assert report["outputs"] == [a.format(**paths) for a in outputs]


def test_help_exits_0(capsys):
    code, out, err = run(capsys, "emit", "threshold", "--help")
    assert code == 0 and "--mode {logdepth,flat}" in out and err == ""


class ClosedPipe:
    """A stdout whose reader has gone: every write raises."""

    def __init__(self, fd: int):
        self.fd = fd

    def write(self, text: str) -> int:
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self) -> None:
        pass

    def fileno(self) -> int:
        return self.fd


def test_a_closed_stdout_ends_quietly(tmp_path, capsys, monkeypatch):
    target = tmp_path / "stdout"
    fd = os.open(target, os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(fd))
        assert main(["emit", "threshold", "--k", "2", "--n", "8"]) == 0
        assert capsys.readouterr().err == ""
        # the descriptor now writes to devnull, so the flush at exit cannot fail
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
        os.write(fd, b"late output")
        assert target.read_bytes() == b""
    finally:
        os.close(fd)


def test_reduce_bip_oddfactor(tmp_path, capsys):
    path = tmp_path / "bip.json"
    path.write_text(json.dumps({"n": 2, "mask": 0b1001}))
    code, out, _ = run(capsys, "reduce", "bip-oddfactor", "--in", str(path))
    assert code == 0 and set(json.loads(out)) == {"instance", "beta"}


# sha256 of the `reduce bip-oddfactor` output: the variable numbering, the
# bit layout and beta are what a written reduction file means, so they are pinned
BIP_ODDFACTOR_SHA256 = {
    (1, 0x0): "e8607a0d14603706f47623a83489b45b632642d54d7165770e8d07239cc38c2b",
    (1, 0x1): "a38b4d85ac74b008663a625014b7c522aca64a921df9d940aaee851cf8e89c92",
    (2, 0x9): "ada48efb71137826371e41035ce7d599815e12a3c2c59f982081987537e2bccf",
    (2, 0x6): "fdc74a551bafd2cb7c3f76fd885e367053420cd149f0fb9f7ec2f8f0ea91c4c0",
    (3, 0x111): "e3f2618c0ddfc925332770101c03664b3cd07862c7333ed55e5a432910679d5e",
    (3, 0xDA): "3ae4c93366018a6678b18c251a6953c8fe0978a84e2a35639ca0839138da4f33",
    (4, 0x8421): "cc70969d14f60a1a540888436937bde80cf0bb63100a98367a8c62b5170d3a9d",
    (4, 0xF0F): "ca47a9e346e7960f8981cbd20c5baa8d0a368bafcf7ac65e64268144a98e7367",
}


@pytest.mark.parametrize("n, mask", BIP_ODDFACTOR_SHA256)
def test_reduce_bip_oddfactor_output_pinned(tmp_path, capsys, n, mask):
    path = tmp_path / "bip.json"
    path.write_text(json.dumps({"n": n, "mask": mask}))
    code, out, _ = run(capsys, "reduce", "bip-oddfactor", "--in", str(path))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == BIP_ODDFACTOR_SHA256[n, mask]


# sha256 of the `classify` output (hardness notes included) on each data file,
# without and with --witnesses: the verdict's JSON shape and labels are pinned
CLASSIFY_SHA256 = {
    ("horn3", False): "57ae54ee45948c6c28be34e0fab402a692c05064eac22a3415a36cec181a9d32",
    ("horn3", True): "caca153a0c8ea2a0f8ccd5bf60f06173d9bd8e730ee7e7016f899371ad75cd84",
    ("nand2", False): "29a5265e592055db6743f983d8b5f6c50e14c112454e7fad8994e2b81ae470f6",
    ("nand2", True): "4ff1ced151082217fe19dab19fcd332f2cda3983f26a6f8573b74d09eb753cbf",
    ("or2", False): "17ed4a301ef7434650ff1d7e1b95f3e7bbac2574e0fadd3ca2bf6c697bf4e866",
    ("or2", True): "62bcc285e0b94df85a233f216c7fd025bc0287e71dac76e13bee73e8873efc7f",
    ("xor3", False): "5d2270898bf755f5ed584022c5d61362375b0b9fbe8175553aaead87cc8f3dc6",
    ("xor3", True): "0131a8c56208a2692e5d6e5ae60b865d8caf4a450ca50c9f73078f077f4bc126",
}


@pytest.mark.parametrize("stem, witnesses", CLASSIFY_SHA256)
def test_classify_output_pinned(capsys, stem, witnesses):
    flags = ["--witnesses"] if witnesses else []
    code, out, _ = run(capsys, "classify", str(DATA / f"{stem}.rels"), *flags)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CLASSIFY_SHA256[stem, witnesses]


def test_oracle_vertex_budget_exits_3(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("v 40\n")  # no edges, but 2**40 parity vectors
    code, _, err = run(capsys, "oracle", "odd-factor", "--graph", str(path), "--mode", "oracle")
    assert code == 3 and "40 vertices above oracle budget" in err


def test_reduce_bip_oddfactor_size_budget_exits_3(tmp_path, capsys):
    path = tmp_path / "bip.json"
    path.write_text(json.dumps({"n": 30, "mask": 0}))  # beta would have 3.7e10 entries
    code, out, err = run(capsys, "reduce", "bip-oddfactor", "--in", str(path))
    assert code == 3 and not out
    assert "900 edges, above the oracle_edges budget 24" in err
    assert "Traceback" not in err


def test_emit_threshold_default_mode(capsys):
    code, out, err = run(capsys, "emit", "threshold", "--k", "2", "--n", "4")
    assert code == 0 and "monotone=True" in err
    assert json.loads(out)["fanin_mode"] == "bounded2"


# Each argv must end in a usage/parse error (exit 2), never in a traceback.
# {bp}, {circuit}, {inst}, {bit40}, {neg_n}, {wide}, {digit_set}, {digit_inst},
# {bip0}, {bip_neg} and {graph_neg} name files the test writes first;
# "{inst}/c.json" is a path whose parent is a file, so it cannot be written.
MALFORMED = {
    "threshold-without-k": ["emit", "threshold", "--n", "4"],
    "checkpoint-without-bp": ["emit", "checkpoint"],
    "induced-without-k": ["emit", "induced", "--n", "4"],
    "induced-without-n": ["emit", "induced", "--k", "2"],
    "csp-without-set": ["emit", "csp", "--n", "2"],
    "csp-without-n": ["emit", "csp", "--set", HORN3],
    "threshold-unknown-mode": ["emit", "threshold", "--k", "2", "--n", "4", "--mode", "bogus"],
    "threshold-fanin-mode-name": ["emit", "threshold", "--k", "2", "--n", "4", "--mode", "bounded2"],
    "checkpoint-unknown-mode": ["emit", "checkpoint", "--bp", "{bp}", "--mode", "bogus"],
    "checkpoint-depth-too-large": ["emit", "checkpoint", "--bp", "{bp}", "--d", "100000"],
    "csp-unknown-fragment": ["emit", "csp", "--set", HORN3, "--n", "2", "--fragment", "bogus"],
    "csp-nonpositive-n": ["emit", "csp", "--set", HORN3, "--n", "-2"],
    "pad-negative-extra": ["pad", "--in", "{circuit}", "--extra", "-1"],
    "pad-negative-n": ["pad", "--in", "{circuit_neg_n}", "--extra", "1"],
    "threshold-negative-n": ["emit", "threshold", "--k", "0", "--n", "-1"],
    "threshold-negative-n-before-k": ["emit", "threshold", "--k", "2", "--n", "-1"],
    "induced-negative-n": ["emit", "induced", "--n", "-1", "--k", "0"],
    "bip-negative-mask": ["reduce", "bip-oddfactor", "--in", "{bip_neg_mask}"],
    "cq-rewrite-without-target": ["reduce", "cq-rewrite", "--in", "{inst}"],
    "oracle-bit-beyond-n": ["oracle", "csp-sat", "--in", "{bit40}"],
    "solve-bit-beyond-n": ["solve", "auto", "--in", "{bit40}"],
    "solve-negative-n": ["solve", "auto", "--in", "{neg_n}"],
    "oracle-without-in": ["oracle", "csp-sat"],
    "unwritable-out": ["emit", "threshold", "--k", "2", "--n", "3", "--out", "{inst}/c.json"],
    "unwritable-report": ["--report", "{inst}/r.json", "solve", "brute", "--in", "{inst}"],
    "oracle-arity-above-cap": ["oracle", "csp-sat", "--in", "{wide}"],
    "solve-arity-above-cap": ["solve", "auto", "--in", "{wide}"],
    "bip-zero-n": ["reduce", "bip-oddfactor", "--in", "{bip0}"],
    "bip-negative-n": ["reduce", "bip-oddfactor", "--in", "{bip_neg}"],
    "graph-negative-v": ["oracle", "odd-factor", "--graph", "{graph_neg}"],
    "graph-non-integer-v": ["oracle", "odd-factor", "--graph", "{graph_v_abc}"],
    "graph-non-integer-edge": ["oracle", "odd-factor", "--graph", "{graph_e_x}"],
    "graph-v-above-limit": ["oracle", "odd-factor", "--graph", "{graph_v_big}"],
    "graph-unknown-line": ["oracle", "odd-factor", "--graph", "{graph_x_line}"],
    "graph-without-v": ["oracle", "odd-factor", "--graph", "{graph_comment_only}"],
    "classify-json-tuple-digit": ["classify", "{digit_set}"],
    "solve-json-tuple-digit": ["solve", "auto", "--in", "{digit_inst}"],
    "classify-relations-not-a-list": ["classify", "{rels_int}"],
    "classify-top-level-list": ["classify", "{rels_top_list}"],
    "classify-relation-not-an-object": ["classify", "{rels_item_int}"],
    "classify-tuples-not-a-list": ["classify", "{tuples_int}"],
    "emit-csp-set-top-level-list": ["emit", "csp", "--set", "{rels_top_list}", "--n", "2"],
    "cq-rewrite-target-relations-not-a-list": [
        "reduce", "cq-rewrite", "--in", "{inst}", "--target", "{rels_int}"
    ],
    "solve-set-bits-string": ["solve", "brute", "--in", "{bits_str}"],
    "solve-set-bit-float": ["solve", "brute", "--in", "{bit_float}"],
    "solve-n-float": ["solve", "brute", "--in", "{n_float}"],
    "solve-n-string": ["solve", "brute", "--in", "{n_str}"],
    "solve-n-bool": ["solve", "brute", "--in", "{n_bool}"],
    "classify-arity-string": ["classify", "{arity_str}"],
    "classify-arity-float": ["classify", "{arity_float}"],
    "classify-relation-name-int": ["classify", "{rel_name_int}"],
    "classify-set-name-list": ["classify", "{set_name_list}"],
    "oracle-relation-name-int": ["oracle", "csp-sat", "--in", "{inst_rel_name_int}"],
    "bip-n-float": ["reduce", "bip-oddfactor", "--in", "{bip_n_float}"],
    "bip-mask-string": ["reduce", "bip-oddfactor", "--in", "{bip_mask_str}"],
    "verify-zero-jobs": ["verify", "quine", "--quick", "--jobs", "0"],
    "verify-negative-jobs": ["verify", "quine", "--quick", "--jobs", "-2"],
    "verify-zero-max-vertices": ["verify", "oddfactor", "--max-vertices", "0"],
    "verify-negative-max-vertices": ["verify", "oddfactor", "--max-vertices", "-1"],
    "checkpoint-guard-polarity-string": ["emit", "checkpoint", "--bp", "{bp_lit_no}"],
    "checkpoint-guard-without-polarity": ["emit", "checkpoint", "--bp", "{bp_lit_short}"],
    "checkpoint-const-guard-with-polarity": ["emit", "checkpoint", "--bp", "{bp_const_long}"],
    "pad-unknown-fanin-mode": ["pad", "--in", "{fanin_bogus}", "--extra", "1"],
    "pad-top-level-list": ["pad", "--in", "{top_list}", "--extra", "1"],
    "oracle-top-level-list": ["oracle", "csp-sat", "--in", "{top_list}"],
    # each kind takes only its own options, and argparse's own usage errors
    # return from main instead of raising SystemExit
    "induced-with-mode": ["emit", "induced", "--n", "4", "--k", "2", "--mode", "flat"],
    "csp-with-mode": ["emit", "csp", "--set", HORN3, "--n", "2", "--mode", "flat"],
    "threshold-with-fragment": ["emit", "threshold", "--k", "2", "--n", "4", "--fragment", "bogus"],
    "negate-with-target": ["reduce", "negate", "--in", "{inst}", "--target", HORN3],
    "csp-sat-with-graph": ["oracle", "csp-sat", "--in", "{inst}", "--graph", "x"],
    "no-command": [],
    "emit-without-kind": ["emit"],
    "solve-unknown-solver": ["solve", "bogus", "--in", "{inst}"],
}


# a bad size is named in the message, not reported as a later check it trips
NAMED = {
    "pad-negative-n": "got n=-3",
    "threshold-negative-n": "got n=-1",
    "threshold-negative-n-before-k": "got n=-1",
    "induced-negative-n": "got n=-1",
    "bip-negative-mask": "mask must lie in [0, 2^4)",
    "classify-relation-name-int": "relation name must be a string, got 5",
    "classify-set-name-list": "relation set name must be a string, got ['x']",
    "oracle-relation-name-int": "relation name must be a string, got 5",
    "graph-unknown-line": "line 2: expected `v <count>` or `e <i> <j>`",
    "graph-without-v": "missing `v <count>` line",
}


@pytest.mark.parametrize("row", MALFORMED)
def test_malformed_input_exits_2(tmp_path, capsys, row):
    inst = CspInstance(hornt_set(), 2).to_json()  # hornt: N = 18 at n = 2
    digit_rel = {"arity": 2, "tuples": ["02", "20"]}
    files = {
        "bp": random_layered_bp(random.Random(3), 4).to_json(),
        "circuit": threshold_circuit(2, 4).to_json(),
        "inst": inst,
        "bit40": dict(inst, set_bits=[40]),
        "neg_n": dict(inst, n=-1),
        "wide": {  # one arity-26 relation: 2**26 tuples per constraint check
            "relation_set": {"relations": [{"arity": 26, "tuples": ["0" * 26]}]},
            "n": 2,
            "set_bits": [0],
        },
        "digit_set": {"relations": [digit_rel]},  # read as {01, 10} before
        "digit_inst": {"relation_set": {"relations": [digit_rel]}, "n": 2, "set_bits": [0]},
        "bip0": {"n": 0, "mask": 0},
        "bip_neg": {"n": -1, "mask": 0},
        "bip_neg_mask": {"n": 2, "mask": -1},
        "circuit_neg_n": dict(CIRCUIT, n=-3),
        "rels_int": {"relations": 5},
        "rels_top_list": [{"arity": 2, "tuples": ["01"]}],
        "rels_item_int": {"relations": [5]},
        "tuples_int": {"relations": [{"arity": 2, "tuples": 5}]},
        "bits_str": dict(inst, set_bits="12"),  # int() would read bits 1 and 2
        "bit_float": dict(inst, set_bits=[1.5]),
        "n_float": dict(inst, n=2.9),
        "n_str": dict(inst, n="2"),
        "n_bool": dict(inst, n=True),
        "arity_str": {"relations": [{"arity": "2", "tuples": ["01"]}]},
        "arity_float": {"relations": [{"arity": 2.0, "tuples": ["01"]}]},
        "rel_name_int": {"relations": [{"name": 5, "arity": 2, "tuples": ["01"]}]},  # echoed as 5 before
        "set_name_list": {"name": ["x"], "relations": [{"arity": 2, "tuples": ["01"]}]},
        "inst_rel_name_int": _edit(inst, ("relation_set", "relations", 0, "name"), 5),
        "bip_n_float": {"n": 2.5, "mask": 0},
        "bip_mask_str": {"n": 2, "mask": "3"},
        "bp_lit_no": _edit(BP, ("edges", 0, 0, 2), ["lit", 3, "no"]),  # read as positive before
        "bp_lit_short": _edit(BP, ("edges", 0, 0, 2), ["lit", 3]),
        "bp_const_long": _edit(BP, ("edges", 0, 0, 2), ["const", 1, True]),  # accepted before
        "fanin_bogus": _edit(CIRCUIT, ("fanin_mode",), "bogus"),  # padded and written back before
        "top_list": [1, 2],
    }
    paths = {name: tmp_path / f"{name}.json" for name in files}
    for name, obj in files.items():
        paths[name].write_text(json.dumps(obj))
    graphs = {
        "graph_neg": "v -1\n",
        "graph_v_abc": "v abc\n",
        "graph_e_x": "v 2\ne 0 x\n",
        "graph_v_big": "v 1000000\ne 999998 999999\n",  # a mask of about 5 * 10^11 bits
        "graph_x_line": "v 3\nx 0 1\n",
        "graph_comment_only": "# no vertex count\n",
    }
    for name, text in graphs.items():
        paths[name] = tmp_path / f"{name}.txt"
        paths[name].write_text(text)
    argv = [a.format(**{k: str(p) for k, p in paths.items()}) for a in MALFORMED[row]]
    code, _, err = run(capsys, *argv)
    assert code == 2, err
    assert err.startswith(("error:", "parse error:"))
    assert err.count("\n") == 1, err
    assert NAMED.get(row, "") in err, err


@pytest.mark.parametrize(
    "argv",
    [["pad", "--in", "{}", "--extra", "1"], ["oracle", "csp-sat", "--in", "{}"], ["classify", "{}"]],
)
def test_top_level_list_names_the_expected_object(tmp_path, capsys, argv):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    code, _, err = run(capsys, *(a.format(path) for a in argv))
    assert code == 2
    assert "expected a JSON object, got list" in err, err


DELETE = object()


def _edit(obj: dict, path: tuple, value) -> dict:
    """A copy of obj with the entry at path set to value (deleted for DELETE)."""
    obj = json.loads(json.dumps(obj))
    *head, last = path
    target = obj
    for key in head:
        target = target[key]
    if value is DELETE:
        del target[last]
    else:
        target[last] = value
    return obj


CIRCUIT = threshold_circuit(2, 3).to_json()  # gate 3 is ["or", [1, 0]]
BP = random_layered_bp(random.Random(3), 4).to_json()  # edges[2][0] has a const guard
INST = CspInstance(hornt_set(), 2).to_json()
JSON_ARGV = {
    "pad": ["pad", "--in", "{}", "--extra", "1"],
    "emit": ["emit", "checkpoint", "--bp", "{}"],
    "solve": ["solve", "brute", "--in", "{}"],
}
GUARD_SHAPE = 'guard must be ["const", 0|1] or ["lit", var, true|false]'

# (command, file contents, the words that name the field)
JSON_FIELDS = {
    "pad-n-float": ("pad", _edit(CIRCUIT, ("n",), 3.7), "n must be an integer, got 3.7"),
    "pad-n-string": ("pad", _edit(CIRCUIT, ("n",), "3"), "n must be an integer, got '3'"),
    "pad-output-float": ("pad", _edit(CIRCUIT, ("outputs",), [7.0]), "output must be"),
    "pad-gate-operand-float": ("pad", _edit(CIRCUIT, ("gates", 3, 1, 0), 2.0), "gate 3 operand"),
    "pad-missing-gates": ("pad", _edit(CIRCUIT, ("gates",), DELETE), "missing field 'gates'"),
    "bp-n-float": ("emit", _edit(BP, ("n",), 4.0), "n must be an integer, got 4.0"),
    "bp-start-float": ("emit", _edit(BP, ("start",), 0.0), "start must be"),
    "bp-accept-string": ("emit", _edit(BP, ("accept",), "2"), "accept must be"),
    "bp-width-float": ("emit", _edit(BP, ("widths", 1), 3.0), "width must be"),
    "bp-edge-source-float": ("emit", _edit(BP, ("edges", 0, 0, 0), 0.0), "edge source"),
    "bp-edge-target-bool": ("emit", _edit(BP, ("edges", 0, 0, 1), True), "edge target"),
    "bp-guard-variable-float": ("emit", _edit(BP, ("edges", 0, 0, 2, 1), 3.0), "guard variable"),
    "bp-guard-constant-bool": ("emit", _edit(BP, ("edges", 2, 0, 2, 1), False), "guard constant"),
    "bp-missing-edges": ("emit", _edit(BP, ("edges",), DELETE), "missing field 'edges'"),
    # wrong shapes, which unpacking or iteration would report in Python's words
    "bp-guard-int": ("emit", _edit(BP, ("edges", 0, 0, 2), 3), f"{GUARD_SHAPE}, got 3"),
    "bp-guard-kind-only": ("emit", _edit(BP, ("edges", 0, 0, 2), ["lit"]), f"{GUARD_SHAPE}, got ['lit']"),
    "bp-edge-two-items": (
        "emit", _edit(BP, ("edges", 0, 0), [0, 0]), "edge must be [source, target, guard], got [0, 0]"
    ),
    "bp-edges-int": ("emit", _edit(BP, ("edges",), 5), "edges must be a list of edge layers, got 5"),
    "pad-gate-kind-only": (
        "pad", _edit(CIRCUIT, ("gates", 0), ["input"]), "gate 0 must be [kind, operands], got ['input']"
    ),
    "pad-gates-int": ("pad", _edit(CIRCUIT, ("gates",), 7), "gates must be a list, got 7"),
    "pad-outputs-int": (
        "pad", _edit(CIRCUIT, ("outputs",), 0), "outputs must be a list of gate indices, got 0"
    ),
    "solve-relations-int": (
        "solve", _edit(INST, ("relation_set", "relations"), 5), "relations must be a list, got 5"
    ),
    "solve-set-bits-int": (
        "solve", _edit(INST, ("set_bits",), 3), "set_bits must be a list of bit indices, got 3"
    ),
}


@pytest.mark.parametrize("command, obj, words", JSON_FIELDS.values(), ids=JSON_FIELDS.keys())
def test_malformed_json_field_is_named(tmp_path, capsys, command, obj, words):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(obj))
    code, _, err = run(capsys, *(a.format(path) for a in JSON_ARGV[command]))
    assert code == 2, err
    assert err.startswith(f"error: {path}: ") and words in err, err
    assert "Traceback" not in err and err.count("\n") == 1, err


def test_json_field_cases_start_from_valid_files(tmp_path, capsys):
    # each case above differs from a file that loads in its one edited field
    for command, obj in (("pad", CIRCUIT), ("emit", BP), ("solve", INST)):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(obj))
        code, _, err = run(capsys, *(a.format(path) for a in JSON_ARGV[command]))
        assert code == 0, err


def test_oddfactor_pool_never_outnumbers_cpus(monkeypatch):
    sizes = []

    class CountingPool:  # maps nothing and starts no process
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, ranges):
            return [(hi - lo, []) for _, lo, hi in ranges]

    monkeypatch.setattr(verify, "Pool", CountingPool)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)
    report = verify.suite_oddfactor(max_vertices=7, jobs=100_000)
    assert sizes == [2]  # only v = 7 has enough graphs to pool
    assert report.checks[6].detail == f"{1 << 21} graphs"


def test_oddfactor_sweep_above_the_oracle_budget_exits_3_before_any_graph(monkeypatch, capsys):
    def unbuilt(cls, v, mask):
        raise AssertionError(f"graph v={v} mask={mask:#x} built")

    monkeypatch.setattr(graphlab.Graph, "from_edge_mask", classmethod(unbuilt))
    code, _, err = run(capsys, "verify", "oddfactor", "--max-vertices", "8")
    assert code == 3
    assert "max_vertices=8: graphs of up to 28 edges, above the oracle_edges budget 24" in err
    # --quick caps the sweep at 6 vertices before the budget is read
    monkeypatch.setenv("POSTLAB_BUDGET", "oracle_edges=10")
    code, _, err = run(capsys, "verify", "oddfactor", "--quick", "--max-vertices", "9")
    assert code == 3
    assert "max_vertices=6: graphs of up to 15 edges, above the oracle_edges budget 10" in err


def test_oddfactor_isomorphism_draws_stay_within_max_vertices(monkeypatch, capsys):
    # the isomorphism check draws graphs of at most --max-vertices vertices,
    # so a sweep that passes the up-front budget check ends in exit 0
    monkeypatch.setenv("POSTLAB_BUDGET", "oracle_edges=10")
    code, out, err = run(capsys, "verify", "oddfactor", "--max-vertices", "4")
    assert code == 0, err
    assert "[PASS] oddfactor/isomorphism-invariance" in out
    monkeypatch.delenv("POSTLAB_BUDGET")
    code, out, err = run(capsys, "verify", "oddfactor", "--max-vertices", "1")
    assert code == 0, err
    assert "[PASS] oddfactor/isomorphism-invariance" in out


def test_cq_budget_ends_verify_reductions_with_exit_3(monkeypatch, capsys):
    # find_cq runs inside the cq-rewrite check, and the check runner lets a
    # budget through instead of making it a FAIL line
    monkeypatch.setenv("POSTLAB_BUDGET", "cq_states=2")
    code, out, err = run(capsys, "verify", "reductions", "--quick")
    assert code == 3 and "state budget exhausted" in err and out == ""


def test_malformed_budget_variable_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("POSTLAB_BUDGET", "bogus=1")
    code, _, err = run(capsys, "verify", "quine", "--quick")
    assert code == 2 and "'bogus'" in err


def test_equality_search_overflow_is_reported(monkeypatch, tmp_path, capsys):
    path = tmp_path / "or2f.rels"
    path.write_text("rel or2 2 : 01 10 11\nrel F 1 : 0\n")
    monkeypatch.setenv("POSTLAB_BUDGET", "cq_states=3")
    code, out, _ = run(capsys, "classify", str(path))
    assert code == 0 and json.loads(out)["equality"] == "UNKNOWN"


def test_cq_search_overflow_exits_3(monkeypatch, tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(CspInstance(hornt_set(), 2).to_json()))
    monkeypatch.setenv("POSTLAB_BUDGET", "cq_states=1")
    for op in ("cq-rewrite", "pol-reduce"):
        code, _, err = run(capsys, "reduce", op, "--in", str(path), "--target", HORN3)
        assert code == 3 and "state budget" in err
