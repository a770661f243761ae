"""Benchmark entry point: runs one workload of acceptance sweeps and prints
its metrics, each by name and unit, then one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from a source checkout: it imports postlab from `src/`.  Every sweep
and every set-up sample runs in a fresh interpreter (child.py), so postlab's
per-process caches start cold, as they do for a user's `postlab verify`.
Untraced children run a speed probe (probe.py), and their times are scaled
to the probe's reference speed, so that the drift of a shared host's CPU
speed does not move the metrics (see README.md, Noise).

--trace 0 runs untraced sweeps, one after another, while another one still
fits in S seconds (always at least one), then set-up-only processes until
there are SETUP_SAMPLES set-up samples.  It reports the `end_to_end` metrics
of BENCHMARK.json as medians over those processes.

--trace 1 runs one traced and then one untraced sweep and reports the
`per_layer` metrics of BENCHMARK.json from the traced one.
`trace_overhead` is traced wall time over untraced wall time; it reads 0
when the untraced sweep would not end within RUN_LIMIT_S.

The full record of a run, machine row included, goes to
perfbench/out/<workload>-seed<N>-trace<0|1>.json and the spans of a traced
run to perfbench/out/<workload>-seed<N>.spans (see tracer.read_spans).
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_SAMPLES = 3
RUN_LIMIT_S = 170.0  # all children of one run end within this
COVERAGE_TOLERANCE = 0.05  # span self times must add up to the traced wall time
# No workload passes `jobs` to verify's process pool, so every sweep runs in
# one process and the tracer sees all of its spans.
JOBS = 1


class BenchError(Exception):
    pass


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("POSTLAB_BUDGET", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _child(mode: str, workload: str, seed: int, deadline: float, spans: Path | None = None) -> dict:
    cmd = [sys.executable, str(BENCH / "child.py"), mode, workload, str(seed)]
    if spans is not None:
        cmd.append(str(spans))
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=_child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        try:
            out, err = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} {workload} did not finish within the run's {RUN_LIMIT_S:.0f}s") from None
    finally:
        try:  # pool workers share the child's process group
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{mode} {workload} exited with {proc.returncode}:\n{err.strip()[-3000:]}")
    return json.loads(out.strip().splitlines()[-1])


def machine_row() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "jobs": JOBS,
    }


def _end_to_end(workload, runs: list[dict], setups: list[float]) -> dict[str, float]:
    scaled = [r["scaled"] for r in runs]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(s["wall_s"] for s in scaled),
        "items_per_s": statistics.median(workload.items / s["wall_s"] for s in scaled),
        "cpu_s": statistics.median(s["cpu_s"] for s in scaled),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }


def _layer_metric(name: str, layers: dict, extra: dict[str, float]) -> float:
    if name in extra:
        return extra[name]
    function, _, stat = name.rpartition(".")
    entry = layers.get(function)
    if entry is None:  # renamed or removed since BENCHMARK.json was written
        return 0
    if stat == "calls":
        return entry["calls"]
    if not entry["timed"]:
        raise BenchError(f"per-layer metric {name}: {function} is count-only")
    if stat == "us_per_gate":
        return entry["total_s"] * 1e6 / entry["work"] if entry.get("work") else 0.0
    if stat in ("self_s", "p50_us", "p99_us"):
        return entry[stat]
    raise BenchError(f"per-layer metric {name}: unknown statistic {stat}")


def _fmt(value: float) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def _called(metric: str, layers: dict) -> bool:
    function = metric.rpartition(".")[0]
    return function not in layers or layers[function]["calls"] > 0


def _missing(specs: list[dict], layers: dict) -> list[str]:
    functions = {s["name"].rpartition(".")[0] for s in specs if s["name"].count(".") > 1}
    return sorted(f for f in functions if f not in layers)


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """The record of one run, and the lines to print before the result."""
    workload = WORKLOADS[workload_name]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = bench["per_layer" if trace else "end_to_end"]
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    lines = [
        "machine " + " ".join(f"{k}={v}" for k, v in machine_row().items()),
        f"workload {workload_name} seed={seed} items={workload.items} {workload.item_unit}",
    ]
    if trace:
        OUT.mkdir(exist_ok=True)
        traced = _child("traced", workload_name, seed, deadline, OUT / f"{workload_name}-seed{seed}.spans")
        runs = [traced]
        coverage = traced["span_self_s"] / traced["wall_s"]
        if abs(coverage - 1.0) > COVERAGE_TOLERANCE:
            traced["problems"].append(f"span self times cover {coverage:.3f} of the traced wall time")
        lines.append(
            f"traced: {traced['spans']} spans, self times cover {coverage:.4f} of traced wall_s {traced['wall_s']:.3f} s"
        )
        # the untraced reference only runs when it surely ends within the run's limit
        if deadline - time.monotonic() > 1.5 * (traced["setup_s"] + traced["wall_s"]):
            runs.append(_child("plain", workload_name, seed, deadline))
            extra = {"trace_overhead": traced["wall_s"] / runs[1]["wall_s"]}
            lines.append(f"untraced wall_s {runs[1]['wall_s']:.3f} s")
        else:
            extra = {"trace_overhead": 0.0}
            lines.append("trace_overhead reads 0: no time left for the untraced reference")
        values = {s["name"]: _layer_metric(s["name"], traced["layers"], extra) for s in specs}
        busiest = sorted(
            ((e["self_s"], f) for f, e in traced["layers"].items() if e["timed"] and e["calls"]), reverse=True
        )
        lines += [f"self {f} {s:.4f} s calls={traced['layers'][f]['calls']}" for s, f in busiest[:15]]
        lines += [f"MISSING traced function {f}: its per-layer metrics read 0" for f in _missing(specs, traced["layers"])]
    else:
        runs = []
        while True:
            t = time.monotonic()
            runs.append(_child("plain", workload_name, seed, deadline))
            took = time.monotonic() - t
            if runs[-1]["problems"] or time.monotonic() - start + took > seconds:
                break
        setups = [r["scaled"]["setup_s"] for r in runs]
        while len(setups) < SETUP_SAMPLES:
            setups.append(_child("setup", workload_name, seed, deadline)["scaled"]["setup_s"])
        values = _end_to_end(workload, runs, setups)
        lines.append(f"samples: {len(runs)} sweep processes, {len(setups)} set-ups; values are medians")
        lines.append(
            f"as measured: wall_s {statistics.median(r['wall_s'] for r in runs):.3f} s at relative speed "
            f"{statistics.median(r['speed'] for r in runs):.3f}; times below are at the reference speed"
        )
    attempted = sum(r["attempted"] for r in runs)
    problems = [p for r in runs for p in r["problems"]]
    fail_ratio = len(problems) / attempted
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}
    shown = {name: m for name, m in metrics.items() if not trace or _called(name, traced["layers"])}
    lines += [f"{workload_name} {name} {_fmt(m['value'])} {m['unit']}" for name, m in shown.items()]
    if len(shown) < len(metrics):
        lines.append(f"({len(metrics) - len(shown)} more per-layer metrics read 0: this workload never calls them)")
    lines.append(f"{workload_name} fail_ratio {fail_ratio:.6g} ratio ({len(problems)} of {attempted} checks)")
    lines += [f"PROBLEM {p}" for p in problems]
    if problems:
        lines.append("INVALID RUN: a check failed, so these timings do not count")
    record = {
        "workload": workload_name,
        "seed": seed,
        "trace": int(trace),
        "machine": machine_row(),
        "items": workload.items,
        "fail_ratio": fail_ratio,
        "result": {"correct": not problems, "attempted": attempted, "failed": len(problems), "metrics": metrics},
        "runs": runs,
    }
    return record, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # exit through SystemExit, so that _child's cleanup kills a running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "postlab" / "verify.py").is_file():
        print(f"no postlab source under {ROOT / 'src'}: run from a source checkout", file=sys.stderr)
        return 2
    compileall.compile_dir(ROOT / "src", quiet=1)
    try:
        record, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    for line in lines:
        print(line)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
