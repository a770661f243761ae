"""One measurement in a fresh interpreter, started by run.py.

    python3 perfbench/child.py MODE WORKLOAD SEED [SPANS_PATH]

MODE is `setup` (set-up only), `plain` (set-up, then the sweep untraced) or
`traced` (the tracer wraps postlab before set-up, and the spans are written
to SPANS_PATH).  Set-up is importing the CLI with every module behind it and
validating the clone catalog, which `classify` and the dichotomy sweep need
first.  The result is one JSON object on the last line of standard output.

In `setup` and `plain` mode a speed probe (probe.py) runs throughout.
`setup_s`, `wall_s` and `cpu_s` are then the times measured less the probe's
own time, and `scaled` holds them at the probe's reference speed.  A traced
child runs no probe, and its times are as measured.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

from probe import Probe
from tracer import Tracer
from workloads import WORKLOADS, check


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _peak_rss_mb() -> float:
    peaks = (resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return max(peaks) / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv: list[str]) -> dict:
    mode, name, seed = argv[0], argv[1], int(argv[2])
    tracer = Tracer() if mode == "traced" else None
    probe = Probe() if tracer is None else None
    if probe is not None:
        probe.install()
    t0 = time.perf_counter()
    import postlab.cli  # noqa: F401  (imports every module a CLI call loads)
    from postlab import clone_lattice, verify
    if tracer is not None:
        tracer.install()
    clone_lattice.ensure_catalog_valid()
    result: dict = {"setup_s": time.perf_counter() - t0}
    if probe is not None:
        result["setup_s"], _, speed = probe.phase()
        result["scaled"] = {"setup_s": result["setup_s"] * speed}
    if mode == "setup":
        if probe is not None:
            probe.stop()
        return result

    workload = WORKLOADS[name]
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    reports = workload.run(verify, seed)
    t1 = time.perf_counter()
    result["wall_s"] = t1 - t0
    result["cpu_s"] = _cpu_s() - cpu0
    if probe is not None:
        result["wall_s"], probe_s, speed = probe.phase()
        probe.stop()
        result["cpu_s"] -= probe_s
        result["speed"] = speed
        result["scaled"].update(wall_s=result["wall_s"] * speed, cpu_s=result["cpu_s"] * speed)
    result["peak_rss_mb"] = _peak_rss_mb()
    result["attempted"], result["problems"] = check(workload, reports)
    result["checks"] = [line for r in reports for line in r.lines()]
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["spans"] = len(tracer.span_name)
        result["span_self_s"] = tracer.self_total(t0, t1)
        tracer.write(Path(argv[3]))
    return result


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
