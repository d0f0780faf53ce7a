"""satsched benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each workload runs in fresh
single-threaded worker processes (perfbench/worker.py) that import satsched
from ./src.  With --trace 0 the run prints the end-to-end metrics of
BENCHMARK.json; with --trace 1 it prints the per-layer metrics of a traced
run.  The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {value, unit}}}

Lines before it give the run manifest and a readable summary; the full
result, manifest included, is also written to perfbench/out/.  Exits
non-zero, without a result line, when the checkout has no satsched source or
a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
THREADS = 1
# set-up is timed in this many processes per untraced run, some before and
# some after the measuring one; the median is reported
SETUP_BEFORE = 2
SETUP_AFTER = 2
WORKER_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _worker(args, role: str, deadline: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", **{v: str(THREADS) for v in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--role", role]
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{role} worker exited with {proc.returncode}")
    result = json.loads(lines[-1])
    result["raw_setup_s"] = result["ready"] - spawned
    result["setup_s"] = result["raw_setup_s"] * result["speed_factor"]
    return result


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_revision() -> str:
    """The checkout's commit when it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (ROOT / "src" / "satsched" / "__init__.py").is_file():
        print(f"no satsched source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + WORKER_TIMEOUT_S
    OUT.mkdir(exist_ok=True)
    try:
        if args.trace:
            runs = [_worker(args, "trace", deadline)]
            listed = spec["per_layer"]
        else:
            runs = [_worker(args, "setup", deadline) for _ in range(SETUP_BEFORE)]
            runs.append(_worker(args, "measure", deadline))
            runs += [_worker(args, "setup", deadline) for _ in range(SETUP_AFTER)]
            listed = spec["end_to_end"]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    main_run = runs[0] if args.trace else runs[SETUP_BEFORE]
    values = dict(main_run["metrics"])
    setup_samples = [r["setup_s"] for r in runs]
    if not args.trace:
        values["setup_s"] = statistics.median(setup_samples)
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        print(f"benchmark failed: no value for {missing}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    manifest = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "python": platform.python_version(), **main_run["versions"],
        "git_revision": _git_revision(), "threads": THREADS,
        "passes": main_run["passes"],
        "latency_samples": main_run.get("latency_samples"),
        "setup_samples": len(setup_samples),
        "failure_ratio": failed / attempted,
    }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    report = {"manifest": manifest, "metrics": metrics, "problems": [
        p for r in runs for p in r["problems"]][:10]}
    if args.trace:
        report["spans_file"] = main_run["spans_file"]
        wall = values["trace.wall_s"]
        report["self_share_of_traced_wall"] = {
            k[:-len(".self_s")]: v / wall for k, v in sorted(
                values.items(), key=lambda kv: -kv[1]) if k.endswith(".self_s") and v > 0}
    else:
        report["raw"] = dict(main_run["raw"], setup_s=statistics.median(
            r["raw_setup_s"] for r in runs))
        report["digests"] = main_run["digests"]
    result_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(report, indent=1) + "\n")

    print(json.dumps({"manifest": manifest}))
    for p in report["problems"]:
        print(f"FAILED: {p}")
    if args.trace:
        for name, share in report["self_share_of_traced_wall"].items():
            print(f"{name:40s} {100 * share:6.2f}% of traced wall")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
