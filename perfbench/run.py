"""Benchmark for fareytight: four workloads, timed end to end in one
process, with a separate traced mode for per-layer metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Run it from the root of a source checkout; it puts `src` on the import
path itself.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Raw results and span
files go to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# fresh interpreters timed for setup_s, one at a time, spread over the run
SETUP_SAMPLES = 11
SETUP_CODE = "import sys; sys.path.insert(0, %r); import fareytight, fareytight.cli" % str(SRC)

# each op's time is the median over rounds; three rounds are the fewest
# with a middle value, and a run makes them even if it takes longer
MIN_ROUNDS = 3

# The speed of a shared machine drifts by up to 1.6x, within seconds and
# between minutes, while CPU time tracks wall time.  Every timing is
# therefore bracketed by a fixed pure-Python probe and reported at
# reference speed: wall time * PROBE_REFERENCE_S / (mean of the probes
# just before and just after it).  PROBE_REFERENCE_S is about the probe's
# typical time inside these workloads on the 2-vCPU machine the README's
# reference figures come from.
PROBE_REFERENCE_S = 0.0009
PROBE_EVERY_S = 0.05
# the probe after a segment repeats for about this share of the
# segment's time, so that after a long operation it covers more than an
# instant
PROBE_SHARE = 0.05


def probe(repeat: int = 1) -> float:
    """Mean wall time of `repeat` runs of a fixed piece of interpreter work."""
    t0 = time.perf_counter()
    for _ in range(repeat):
        acc, d = 0, {}
        for i in range(4000):
            t = (i, i * 7 % 13)
            d[t[1]] = t
            acc += math.gcd(i, 360) + len(d)
    return (time.perf_counter() - t0) / repeat


def tail_percentile(n: int) -> float | None:
    """Highest of the usual percentiles with at least ten of n samples
    beyond it; None below forty samples."""
    if n < 40:
        return None
    return max(p for p in (75, 90, 95, 99, 99.5, 99.9) if n - math.ceil(p / 100 * n) >= 10)


def nearest_rank(sorted_values, p: float) -> float:
    return sorted_values[math.ceil(p / 100 * len(sorted_values)) - 1]


def time_setup(samples: int) -> tuple[list[float], list[float]]:
    """Wall and reference-speed times of `samples` fresh interpreters, one
    at a time, each importing fareytight and its CLI."""
    argv = [sys.executable, "-c", SETUP_CODE]
    wall, scaled = [], []
    before = probe()
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        dt = time.perf_counter() - t0
        after = probe(max(1, round(dt * PROBE_SHARE / PROBE_REFERENCE_S)))
        wall.append(dt)
        scaled.append(dt * 2 * PROBE_REFERENCE_S / (before + after))
        before = after
    return wall, scaled


class Timings:
    """Per-op times of a run: every sample at reference speed, and the
    fastest wall time."""

    def __init__(self, n: int):
        self.scaled = [[] for _ in range(n)]
        self.fastest_wall = [math.inf] * n


def run_round(ops, timings: Timings, results=None):
    """Run every op once; returns (wall seconds, reference seconds,
    failures).  results, when given, gets each return value (None for a
    failure)."""
    wall = scaled = 0.0
    failed = 0
    clock = time.perf_counter
    pending, since = [], 0.0
    before = probe()
    for i, op in enumerate(ops):
        t0 = clock()
        try:
            res = op.run()
        except Exception as exc:  # a failing operation is counted, not fatal
            dt = clock() - t0
            failed += 1
            res = None
            print("FAILED %s: %r" % (op.label, exc), file=sys.stderr)
        else:
            dt = clock() - t0
        if results is not None:
            results.append(res)
        pending.append((i, dt))
        since += dt
        if since >= PROBE_EVERY_S or i == len(ops) - 1:
            after = probe(max(1, round(since * PROBE_SHARE / PROBE_REFERENCE_S)))
            scale = 2 * PROBE_REFERENCE_S / (before + after)
            for j, d in pending:
                timings.scaled[j].append(d * scale)
                timings.fastest_wall[j] = min(timings.fastest_wall[j], d)
                wall += d
                scaled += d * scale
            pending, since, before = [], 0.0, after
    return wall, scaled, failed


def check_all(ops, results) -> int:
    """Check every op that did not fail; returns the number of wrong ones."""
    wrong = 0
    for op, res in zip(ops, results):
        if res is None:
            continue
        try:
            err = op.check(res)
        except Exception as exc:  # a malformed output is a wrong answer
            err = repr(exc)
        if err:
            wrong += 1
            if wrong <= 10:
                print("WRONG %s: %s" % (op.label, err), file=sys.stderr)
    return wrong


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(ops, per_op, setup, rss) -> dict:
    """The end-to-end metrics, from one time per op and the setup samples."""
    busy = sum(per_op)
    ranked = sorted(per_op)
    p = tail_percentile(len(ranked))
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "queries_per_s": (len(ops) / busy, "1/s"),
        "structures_per_s": (sum(op.structures for op in ops) / busy, "1/s"),
        "latency_p50_ms": (statistics.median(ranked) * 1e3, "ms"),
        "latency_tail_ms": (nearest_rank(ranked, p) * 1e3 if p else None, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in metrics.items() if v is not None}


def run_untraced(name, ops, seconds: float, setup_samples: int):
    """Whole rounds of ops until `seconds` of wall time have passed (and
    at least MIN_ROUNDS), with the setup samples taken between rounds,
    spread over the run."""
    time_setup(1)  # writes the bytecode caches; not counted
    timings = Timings(len(ops))
    results, rounds, failed = [], [], 0
    setup_wall, setup = [], []
    spacing = seconds / setup_samples
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        done = len(rounds) >= MIN_ROUNDS and elapsed >= seconds
        due = setup_samples if done or not spacing else min(setup_samples, 1 + int(elapsed / spacing))
        wall, scaled = time_setup(due - len(setup))
        setup_wall += wall
        setup += scaled
        if done:
            break
        gc.collect()
        wall, scaled, f = run_round(ops, timings, None if rounds else results)
        rounds.append((wall, scaled))
        failed += f
    rss = peak_rss_mb()
    wrong = check_all(ops, results)

    per_op = [statistics.median(s) for s in timings.scaled]
    metrics = end_to_end(ops, per_op, setup, rss)
    wall_metrics = end_to_end(ops, timings.fastest_wall, setup_wall, rss)
    print("%s: %d ops x %d rounds in %.1f s wall, tail = p%s; at reference speed %s; "
          "in wall time (fastest round of each op) %s" % (
              name, len(ops), len(rounds), sum(w for w, _ in rounds), tail_percentile(len(ops)),
              _brief(metrics), _brief(wall_metrics)), file=sys.stderr)
    raw = {"rounds_wall_s": [w for w, _ in rounds], "rounds_reference_s": [s for _, s in rounds],
           "setup_wall_s": setup_wall, "setup_reference_s": setup, "wall_metrics": wall_metrics,
           "op_reference_ms": {op.label: t * 1e3 for op, t in zip(ops, per_op)}}
    return {"correct": wrong == 0, "attempted": len(ops) * len(rounds),
            "failed": failed, "metrics": metrics}, raw


def _brief(metrics) -> str:
    return " ".join("%s=%.4g" % (k, v["value"]) for k, v in metrics.items())


def run_traced(name, ops, meter, span_path):
    """One plain round, then one traced round of the same ops.  Calls and
    work counts are those of one round, so they repeat exactly."""
    from tracer import Tracer

    timings = Timings(len(ops))
    gc.collect()
    _, plain, f1 = run_round(ops, timings)
    tracer = Tracer()
    tracer.install()
    meter.nbytes = 0
    results = []
    gc.collect()
    try:
        _, traced, f2 = run_round(ops, timings, results)
    finally:
        tracer.uninstall()
    output_bytes = meter.nbytes
    wrong = check_all(ops, results)
    metrics = tracer.metrics(output_bytes)
    metrics["trace.overhead_ms"] = {"value": (traced - plain) * 1e3, "unit": "ms"}
    if span_path:
        tracer.write_spans(span_path)
    print("%s traced: plain round %.3f s, traced round %.3f s at reference speed, %d spans"
          % (name, plain, traced, len(tracer.span_name)), file=sys.stderr)
    return {"correct": wrong == 0, "attempted": 2 * len(ops), "failed": f1 + f2,
            "metrics": metrics}, {"plain_round_s": plain, "traced_round_s": traced}


def import_library():
    if not (SRC / "fareytight" / "__init__.py").is_file():
        print("error: no fareytight sources under %s" % SRC, file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import fareytight.cli  # noqa: F401  (the CLI is part of what every workload loads)


def smoke() -> int:
    """Every workload on small inputs, untraced and traced, all checks."""
    from workloads import WORKLOADS, OutputMeter

    ok = True
    for name, build in WORKLOADS.items():
        meter = OutputMeter()
        ops = build(random.Random(1), True, meter)
        res, _ = run_untraced(name, ops, 0, 1)
        tres, _ = run_traced(name, ops, meter, None)
        good = res["correct"] and tres["correct"] and not res["failed"] and not tres["failed"]
        ok &= good
        print("smoke %-8s %s: %d ops" % (name, "ok" if good else "FAILED", len(ops)))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload on small inputs with all checks")
    args = ap.parse_args(argv)
    import_library()
    if args.smoke:
        return smoke()
    from workloads import WORKLOADS, OutputMeter

    if args.workload not in WORKLOADS:
        ap.error("--workload must be one of %s" % ", ".join(WORKLOADS))
    meter = OutputMeter()
    ops = WORKLOADS[args.workload](random.Random(args.seed), False, meter)
    OUT.mkdir(exist_ok=True)
    stem = OUT / ("%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    if args.trace:
        result, raw = run_traced(args.workload, ops, meter, stem.with_suffix(".spans.json.gz"))
    else:
        result, raw = run_untraced(args.workload, ops, args.seconds, SETUP_SAMPLES)
    stem.with_suffix(".json").write_text(json.dumps({"result": result, "raw": raw}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
