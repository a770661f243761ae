"""Command-line interface: outputs, round trips, exit codes."""

import json
import random
from pathlib import Path

import pytest

from postlab.circuit import Circuit
from postlab.cli import main
from postlab.construct import random_layered_bp, threshold_circuit
from postlab.csp import CspInstance, make_hornsat, make_random, make_tseitin, xor3_set
from postlab.graphlab import Graph, format_graph

DATA = Path(__file__).parent / "data"


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
    inst = make_tseitin(Graph.complete(3))
    path = tmp_path / "tri.json"
    path.write_text(json.dumps(inst.to_json()))
    code, out, _ = run(capsys, "solve", "xor", "--in", str(path))
    assert code == 0 and out.startswith("UNSAT")
    code, out, _ = run(capsys, "solve", "auto", "--in", str(path))
    assert code == 3  # xor sets have no designated fragment solver


def test_solve_fragment_mismatch_exit_code(tmp_path, capsys):
    inst = make_random(xor3_set(), 3, 0.1, seed=0)
    path = tmp_path / "x.json"
    path.write_text(json.dumps(inst.to_json()))
    code, _, err = run(capsys, "solve", "horn", "--in", str(path))
    assert code == 3 and "AND-closed" in err


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


def test_emit_csp_circuit(tmp_path, capsys):
    code, out, err = run(
        capsys, "emit", "csp", "--set", str(DATA / "horn3.rels"), "--n", "2"
    )
    assert code == 0 and "monotone=True" in err


def test_oracle_odd_factor(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text(format_graph(Graph.complete(3)))
    code, out, _ = run(capsys, "oracle", "odd-factor", "--graph", str(path))
    assert code == 0 and "NO-ODD-FACTOR" in out
    code, out, _ = run(capsys, "oracle", "odd-factor", "--graph", str(path), "--mode", "oracle")
    assert code == 0 and "NO-ODD-FACTOR" in out


def test_oracle_csp_sat(tmp_path, capsys):
    inst = make_tseitin(Graph.complete(3))
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


def test_reduce_bip_oddfactor(tmp_path, capsys):
    path = tmp_path / "bip.json"
    path.write_text(json.dumps({"n": 2, "mask": 0b1001}))
    code, out, _ = run(capsys, "reduce", "bip-oddfactor", "--in", str(path))
    assert code == 0 and set(json.loads(out)) == {"instance", "beta"}


def test_emit_threshold_default_mode(capsys):
    code, _, err = run(capsys, "emit", "threshold", "--k", "2", "--n", "4")
    assert code == 0 and "monotone=True" in err


HORN3 = str(DATA / "horn3.rels")

# Each argv must end in a usage/parse error (exit 2), never in a traceback.
# {bp}, {circuit}, {inst}, {bit40} and {neg_n} name files the test writes first.
MALFORMED = {
    "threshold-without-k": ["emit", "threshold", "--n", "4"],
    "checkpoint-without-bp": ["emit", "checkpoint"],
    "induced-without-k": ["emit", "induced", "--n", "4"],
    "induced-without-n": ["emit", "induced", "--k", "2"],
    "csp-without-set": ["emit", "csp", "--n", "2"],
    "csp-without-n": ["emit", "csp", "--set", HORN3],
    "threshold-unknown-mode": ["emit", "threshold", "--k", "2", "--n", "4", "--mode", "bogus"],
    "checkpoint-unknown-mode": ["emit", "checkpoint", "--bp", "{bp}", "--mode", "bogus"],
    "csp-unknown-fragment": ["emit", "csp", "--set", HORN3, "--n", "2", "--fragment", "bogus"],
    "csp-nonpositive-n": ["emit", "csp", "--set", HORN3, "--n", "-2"],
    "pad-negative-extra": ["pad", "--in", "{circuit}", "--extra", "-1"],
    "cq-rewrite-without-target": ["reduce", "cq-rewrite", "--in", "{inst}"],
    "oracle-bit-beyond-n": ["oracle", "csp-sat", "--in", "{bit40}"],
    "solve-bit-beyond-n": ["solve", "auto", "--in", "{bit40}"],
    "solve-negative-n": ["solve", "auto", "--in", "{neg_n}"],
    "oracle-without-in": ["oracle", "csp-sat"],
}


@pytest.mark.parametrize("argv", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_exits_2(tmp_path, capsys, argv):
    inst = make_hornsat(2).to_json()  # hornt: N = 18 at n = 2
    files = {
        "bp": random_layered_bp(random.Random(3), 4).to_json(),
        "circuit": threshold_circuit(2, 4).to_json(),
        "inst": inst,
        "bit40": dict(inst, set_bits=[40]),
        "neg_n": dict(inst, n=-1),
    }
    for name, obj in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
    argv = [a.format(**{k: str(tmp_path / f"{k}.json") for k in files}) for a in argv]
    code, _, err = run(capsys, *argv)
    assert code == 2, err
    assert err.startswith(("error:", "parse error:"))


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
    path.write_text(json.dumps(make_hornsat(2).to_json()))
    monkeypatch.setenv("POSTLAB_BUDGET", "cq_states=1")
    for op in ("cq-rewrite", "pol-reduce"):
        code, _, err = run(capsys, "reduce", op, "--in", str(path), "--target", HORN3)
        assert code == 3 and "state budget" in err
