"""One workload process: set up, then (unless --role setup) run timed passes.

Started by run.py in a fresh interpreter with the math libraries pinned to
one thread.  Prints one JSON object as its last stdout line.

    setup    set up (imports, pass-0 inputs, one warm-up) and report when ready
    measure  untraced passes until --seconds have gone by
    trace    rounds over the first TRACE_PASSES passes, each pass run once
             untraced and once traced, until --seconds have gone by
"""

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

from calibrate import REFERENCE_S, probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
TRACE_PASSES = 4


def _tally(results) -> dict:
    problems = [msg for r in results for msg in r.problems]
    return {"attempted": sum(r.ops for r in results),
            "failed": sum(r.failed for r in results),
            "problems": problems[:10]}


def measure(wl, inputs, seconds: float) -> dict:
    """New passes until --seconds have gone by; every pass has new instances."""
    from workloads import MAX_PASSES

    passes = []
    start = time.perf_counter()
    while True:
        passes.append(wl.run(len(passes), inputs))
        if time.perf_counter() - start >= seconds or len(passes) >= MAX_PASSES:
            break
        inputs = wl.prepare(len(passes))
    wall = sum(r.wall for r in passes)
    raw_wall = sum(r.raw_wall for r in passes)
    ops = sum(r.ops for r in passes)
    # one sample per operation: a table call's ops share its per-op time
    samples = [s for r in passes for s, n in zip(r.samples_ms, r.sample_ops) for _ in range(n)]
    pct = statistics.quantiles(samples, n=100, method="inclusive")
    return {
        "metrics": {
            "wall_s": wall / len(passes),
            "ops_per_s": ops / wall,
            "op_p50_ms": pct[49],
            "op_p99_ms": pct[98],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "raw": {"wall_s": raw_wall / len(passes), "ops_per_s": ops / raw_wall},
        "passes": len(passes),
        "latency_samples": len(samples),
        "digests": [r.digests for r in passes],
        **_tally(passes),
    }


def trace(wl, inputs, seconds: float, spans_path: Path) -> dict:
    """Per-layer metrics per traced pass; every round repeats the same
    passes, so the counts come out the same in every run of a seed."""
    from tracer import Tracer

    rounds = [inputs] + [wl.prepare(p) for p in range(1, TRACE_PASSES)]
    tracer = Tracer()
    plain, traced = [], []
    ops_by_label = Counter()
    start = time.perf_counter()
    while True:
        for p, inp in enumerate(rounds):
            # the second run of an input finds warmer caches, so alternate
            # which side goes first
            plain_first = (p + len(plain) // TRACE_PASSES) % 2 == 0
            if plain_first:
                plain.append(wl.run(p, inp))
            tracer.install()
            try:
                res = wl.run(p, inp, tracer)
            finally:
                tracer.uninstall()
            if not plain_first:
                plain.append(wl.run(p, inp))
            traced.append(res)
            ops_by_label.update(res.ops_by_label)
        tracer.keep_spans = False  # whole spans of the first round only
        if time.perf_counter() - start >= seconds:
            break
    n = len(traced)
    traced_wall = sum(r.wall for r in traced)
    # self times are normalised like the pass times they add up to
    factor = traced_wall / sum(r.raw_wall for r in traced)
    metrics = tracer.metrics(n, ops_by_label)
    for key in metrics:
        if key.endswith(".self_s"):
            metrics[key] *= factor
    metrics["trace.wall_s"] = traced_wall / n
    metrics["trace.overhead"] = traced_wall / sum(r.wall for r in plain)
    spans_path.write_text(json.dumps({
        "columns": ["name", "start", "end", "parent", "op"],
        "spans": tracer.spans}))
    return {"metrics": metrics, "passes": n, "spans_file": str(spans_path.relative_to(ROOT)),
            **_tally(plain + traced)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--role", choices=("setup", "measure", "trace"), required=True)
    args = ap.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import numpy
    import scipy
    import satsched
    import workloads

    workdir = OUT / f"tmp-{args.workload}-{args.seed}-{args.role}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        pinned = None
        if args.seed == workloads.DEFAULT_SEED:
            pinned = json.loads((HERE / "digests.json").read_text())[args.workload]
        wl = workloads.make(args.workload, args.seed, workdir, pinned)
        warm = wl.warm_up()
        inputs = wl.prepare(0)
        # the clock run.py read when it started this process
        result = {"ready": time.clock_gettime(time.CLOCK_MONOTONIC),
                  "speed_factor": REFERENCE_S / probe()}
        if args.role == "measure":
            result.update(measure(wl, inputs, args.seconds))
        elif args.role == "trace":
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
            result.update(trace(wl, inputs, args.seconds, spans))
        else:
            result.update(_tally([]))
        result["attempted"] += warm.ops
        result["failed"] += warm.failed
        result["problems"] = warm.problems + result["problems"]
        result["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__,
                              "satsched": satsched.__version__}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
