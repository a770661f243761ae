"""Span tracer that wraps postlab's public functions from outside the library.

`Tracer.install` replaces every binding of each public function and method
of the layer modules, in every loaded `postlab` module, with a wrapper that
records one span per call: function, start, end and parent span.  Spans stay
in flat in-memory arrays until `write` saves them.

Functions named in COUNT_ONLY are hot and tiny, so their wrappers only count
calls; their time stays in the caller's self time.  Generator functions are
count-only too, because a span around the call would cover only the creation
of the generator.  Properties are not wrapped: their cost is the caller's.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

LAYERS = (
    "boolfun",
    "clone_lattice",
    "csp",
    "reductions",
    "graphlab",
    "circuit",
    "construct",
    "verify",
)

# Hot functions that each take about as long as a span's own bookkeeping.
COUNT_ONLY = frozenset(
    {
        "csp.CspInstance.decode",
        "csp.CspInstance.encode",
        "boolfun.preserves",
        "boolfun.Relation.tuples",
        "boolfun.Relation.member",
        "graphlab.BipGraph.has_edge",
        "graphlab.pair_index",
        "construct.LayeredBP.guard_value",
    }
)

# Extra work units summed per call, from the call's arguments.
WORK = {"circuit.truth_tables": lambda c: len(c.gates)}


def _layer_functions(module, layer: str):
    """(qualified name, owner, attribute, raw attribute) of each public
    function defined in `module`, methods of its public classes included."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{layer}.{name}", module, name, obj
        elif inspect.isclass(obj):
            for attr, raw in vars(obj).items():
                if attr.startswith("_"):
                    continue
                if isinstance(raw, (classmethod, staticmethod)) or inspect.isfunction(raw):
                    yield f"{layer}.{name}.{attr}", obj, attr, raw


def _unwrap(raw):
    return raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw


class Tracer:
    """Per-process span recorder.  Install once, after postlab is imported."""

    def __init__(self):
        self.names: list[str] = []
        self.timed: list[bool] = []
        self.calls: list[int] = []
        self.work: dict[int, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.wrappers: dict[str, object] = {}

    # Wrapping.

    def _wrap(self, qualname: str, fn):
        idx = len(self.names)
        self.names.append(qualname)
        self.calls.append(0)
        timed = qualname not in COUNT_ONLY and not inspect.isgeneratorfunction(fn)
        self.timed.append(timed)
        calls = self.calls

        if not timed:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[idx] += 1
                return fn(*args, **kwargs)

            return counted

        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack = self._stack
        clock = time.perf_counter
        work_of = WORK.get(qualname)
        work = self.work
        if work_of is not None:
            work[idx] = 0

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            sid = len(starts)
            names.append(idx)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(sid)
            calls[idx] += 1
            if work_of is not None:
                work[idx] += work_of(*args, **kwargs)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()

        return spanned

    def install(self) -> None:
        """Wrap every layer function and rebind it everywhere in postlab:
        module attributes, the plain tuples, lists and dicts they hold, and
        class attributes for methods."""
        originals: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"postlab.{layer}"]
            for qualname, owner, attr, raw in _layer_functions(module, layer):
                fn = _unwrap(raw)
                wrapper = self._wrap(qualname, fn)
                self.wrappers[qualname] = wrapper
                originals[id(fn)] = wrapper
                if owner is not module:
                    setattr(owner, attr, type(raw)(wrapper) if raw is not fn else wrapper)
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "postlab" or modname.startswith("postlab.")):
                continue
            for attr, value in list(vars(module).items()):
                new = _rebind(value, originals)
                if new is not value:
                    setattr(module, attr, new)

    # Results.

    def self_times(self) -> array:
        """Self time of every span: its duration minus its children's."""
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        own = array("d", (e - s for s, e in zip(starts, ends)))
        for sid, p in enumerate(parents):
            if p >= 0:
                own[p] -= ends[sid] - starts[sid]
        return own

    def summary(self) -> dict[str, dict]:
        """Per function: calls, and for timed ones total and self seconds,
        median and 99th-percentile span duration in microseconds."""
        durations: list[list[float]] = [[] for _ in self.names]
        self_s = [0.0] * len(self.names)
        own = self.self_times()
        for sid, idx in enumerate(self.span_name):
            durations[idx].append(self.span_end[sid] - self.span_start[sid])
            self_s[idx] += own[sid]
        out = {}
        for idx, name in enumerate(self.names):
            entry: dict = {"calls": self.calls[idx], "timed": self.timed[idx]}
            if self.timed[idx]:
                d = sorted(durations[idx])
                entry["total_s"] = sum(d)
                entry["self_s"] = self_s[idx]
                entry["p50_us"] = _percentile(d, 50) * 1e6
                entry["p99_us"] = _percentile(d, 99) * 1e6
                if idx in self.work:
                    entry["work"] = self.work[idx]
            out[name] = entry
        return out

    def self_total(self, t0: float, t1: float) -> float:
        """Sum of the self times of the spans that start within [t0, t1]."""
        own = self.self_times()
        return sum(own[sid] for sid, s in enumerate(self.span_start) if t0 <= s <= t1)

    def write(self, path: Path) -> None:
        """Save the spans: a JSON header naming the functions, then the four
        arrays (name index, parent span, start, end) in machine byte order."""
        header = json.dumps(
            {"names": self.names, "spans": len(self.span_name), "byteorder": sys.byteorder}
        ).encode()
        with open(path, "wb") as fh:
            fh.write(len(header).to_bytes(4, "little"))
            fh.write(header)
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)


def read_spans(path: Path) -> tuple[list[str], array, array, array, array]:
    """Inverse of `Tracer.write`: names and the four span arrays."""
    with open(path, "rb") as fh:
        size = int.from_bytes(fh.read(4), "little")
        header = json.loads(fh.read(size))
        arrays = []
        for code in ("i", "i", "d", "d"):
            arr = array(code)
            arr.fromfile(fh, header["spans"])
            if header["byteorder"] != sys.byteorder:
                arr.byteswap()
            arrays.append(arr)
    return (header["names"], *arrays)


def _percentile(sorted_values: list[float], q: int) -> float:
    if not sorted_values:
        return 0.0
    k = min(len(sorted_values) - 1, (len(sorted_values) * q) // 100)
    return sorted_values[k]


def _rebind(value, originals: dict[int, object]):
    """`value` with every original function replaced by its wrapper, looking
    into plain tuples, lists and dicts; `value` itself when nothing changed."""
    if inspect.isfunction(value):
        return originals.get(id(value), value)
    if type(value) in (tuple, list):
        items = [_rebind(v, originals) for v in value]
        if any(a is not b for a, b in zip(items, value)):
            if type(value) is list:
                value[:] = items
                return value
            return tuple(items)
        return value
    if type(value) is dict:
        for k, v in value.items():
            new = _rebind(v, originals)
            if new is not v:
                value[k] = new
        return value
    return value
