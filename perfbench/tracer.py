"""Per-layer tracing from outside the library.

`Tracer.install` replaces, in every fareytight module, each attribute
bound to a function of the per-layer table by a wrapper, and
`MobiusMap.__pow__` on the class; `uninstall` puts the originals back.
Functions with a self-time metric record a span (name, start, end,
parent) in flat arrays; the others only count their calls, and their
time stays in the self time of the traced caller.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array

# (module, function, metrics).  "calls" and "self_ms" are measured for
# every function that lists them; any other metric is a work count taken
# from the call's arguments or result by WORK below.
LAYERS = [
    ("slopes", "parse_slope", ["calls"]),
    ("slopes", "make_slope", ["calls"]),
    ("slopes", "cf_minus", ["self_ms"]),
    ("slopes", "neighbors_in_interval", ["self_ms"]),
    ("paths", "minimal_path", ["calls", "self_ms", "edges"]),
    ("paths", "edge_runs", ["calls"]),
    ("paths", "lengthen_through", ["self_ms"]),
    ("tori", "enumerate_tight", ["self_ms", "classes"]),
    ("tori", "count_tight", ["self_ms"]),
    ("tori", "signed_blocks", ["calls"]),
    ("tori", "consistently_shorten", ["calls", "self_ms"]),
    ("tori", "lengthen_decorated", ["self_ms"]),
    ("cables", "map_power", ["self_ms", "exponent"]),
    ("cables", "legendrian_cable_surgery", ["calls", "self_ms"]),
    ("atlas", "enumerate_structures", ["self_ms", "structures"]),
    ("atlas", "classify", ["calls", "self_ms"]),
    ("atlas", "verdict_summary", ["self_ms"]),
    ("atlas", "structure_record", ["calls", "self_ms"]),
    ("atlas", "triangle_position", ["calls"]),
    ("atlas", "n_of", ["calls"]),
    ("atlas", "exceptional_slopes", ["self_ms"]),
    ("cli", "main", ["calls", "self_ms"]),
]

WORK = {
    "edges": lambda args, res: len(res),
    "classes": lambda args, res: len(res),
    "structures": lambda args, res: len(res),
    "exponent": lambda args, res: args[1],
}

UNITS = {"calls": "count", "self_ms": "ms", "edges": "count", "classes": "count",
         "structures": "count", "exponent": "count"}


class Tracer:
    def __init__(self):
        self.names = ["%s.%s" % (mod, fn) for mod, fn, _ in LAYERS]
        self.calls = [0] * len(LAYERS)
        self.self_ns = [0] * len(LAYERS)
        self.work = [0] * len(LAYERS)
        # one entry per span
        self.span_name = array("h")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self._child_ns = array("q")
        self._stack = []
        self._patched = []

    def _wrap(self, i, fn, stats):
        work = next((WORK[s] for s in stats if s in WORK), None)
        calls = self.calls
        if "self_ms" not in stats:
            def counted(*args, **kwargs):
                calls[i] += 1
                return fn(*args, **kwargs)
            return counted

        stack, clock = self._stack, time.perf_counter_ns
        names, parents = self.span_name, self.span_parent
        starts, ends, child = self.span_start, self.span_end, self._child_ns
        self_ns, work_total = self.self_ns, self.work

        def spanned(*args, **kwargs):
            calls[i] += 1
            idx = len(names)
            parent = stack[-1] if stack else -1
            names.append(i)
            parents.append(parent)
            starts.append(0)
            ends.append(0)
            child.append(0)
            stack.append(idx)
            start = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                starts[idx] = start
                ends[idx] = end
                self_ns[i] += end - start - child[idx]
                if parent >= 0:
                    child[parent] += end - start
            if work is not None:
                work_total[i] += work(args, res)
            return res

        return spanned

    def install(self):
        from fareytight import cables

        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "fareytight" or name.startswith("fareytight."))]
        for i, (mod, fn_name, stats) in enumerate(LAYERS):
            if fn_name == "map_power":
                orig = cables.MobiusMap.__pow__
                self._patched.append((cables.MobiusMap, "__pow__", orig))
                cables.MobiusMap.__pow__ = self._wrap(i, orig, stats)
                continue
            orig = getattr(sys.modules["fareytight." + mod], fn_name)
            wrapper = self._wrap(i, orig, stats)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        self._patched.append((m, attr, orig))
                        setattr(m, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def metrics(self, output_bytes: int) -> dict:
        out = {}
        for i, (mod, fn, stats) in enumerate(LAYERS):
            for stat in stats:
                if stat == "calls":
                    value = self.calls[i]
                elif stat == "self_ms":
                    value = self.self_ns[i] / 1e6
                else:
                    value = self.work[i]
                out["%s.%s.%s" % (mod, fn, stat)] = {"value": value, "unit": UNITS[stat]}
        out["cli.output_bytes"] = {"value": output_bytes, "unit": "bytes"}
        return out

    def write_spans(self, path):
        """Spans as parallel columns; times in ns from the first span."""
        t0 = min(self.span_start) if self.span_start else 0
        obj = {
            "names": self.names,
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "start_ns": [t - t0 for t in self.span_start],
            "end_ns": [t - t0 for t in self.span_end],
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(obj, fh, separators=(",", ":"))
