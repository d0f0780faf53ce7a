"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that a run prints every metric of BENCHMARK.json with its unit, that
a corrupted pinned digest counts as failed operations without stopping the
run, and that a directory without the satsched source makes the benchmark
exit non-zero without a result line.  Takes about a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402

FAILURES = []


def check(ok: bool, what: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {what}")
    if not ok:
        FAILURES.append(what)


def corrupted_digest_counts_as_failure(workdir: Path) -> None:
    for name in ("csi_figures", "csi_online", "cdi_figures"):
        clean = workloads.make(name, 1, workdir)
        inputs = clean.prepare(0, trials=1)
        first = clean.run(0, inputs)
        check(first.failed == 0 and first.ops > 0, f"{name}: tiny pass runs clean")
        digests = first.digests if name != "csi_online" else first.digests[0]
        if isinstance(digests, list):
            bad = list(digests)
            bad[-1] = ("0" if bad[-1][0] != "0" else "1") + bad[-1][1:]
            lost = workloads.table_ops(inputs[-1][1])
        else:
            bad = ("0" if digests[0] != "0" else "1") + digests[1:]
            lost = first.ops
        again = workloads.make(name, 1, workdir, pinned=[bad]).run(0, inputs)
        check(again.failed == lost and again.ops == first.ops,
              f"{name}: corrupted digest fails {again.failed} of {again.ops} ops "
              f"(expected {lost})")


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def metrics_print_with_units() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = run(["--workload", w["name"], "--seed", "1", "--seconds", "1",
                        "--trace", str(trace)])
            tag = f"{w['name']} --trace {trace}"
            if proc.returncode != 0:
                check(False, f"{tag}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            check(set(last) == {"correct", "attempted", "failed", "metrics"}
                  and last["correct"] and last["attempted"] >= 1,
                  f"{tag}: result line well formed and correct")
            want = {m["name"]: m["unit"] for m in listed}
            got = {k: v["unit"] for k, v in last["metrics"].items()
                   if isinstance(v.get("value"), (int, float))}
            check(got == want, f"{tag}: all {len(want)} metrics printed with their units")


def bare_directory_fails(workdir: Path) -> None:
    bare = workdir / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(["--workload", "csi_online", "--seed", "1", "--seconds", "1",
                "--trace", "0"], cwd=bare)
    lines = proc.stdout.strip().splitlines()
    check(proc.returncode != 0 and not (lines and lines[-1].startswith('{"correct"')),
          f"no satsched source: exit {proc.returncode}, no result line")


def main() -> int:
    workdir = HERE / "out" / "tmp-selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        corrupted_digest_counts_as_failure(workdir)
        bare_directory_fails(workdir)
        metrics_print_with_units()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(FAILURES)} failed" if FAILURES else "all self-tests passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
