"""Re-pin the output digests of perfbench/digests.json.

    python3 perfbench/pin.py

Runs the first passes of every workload at the default seed and records the
SHA-256 of each emitted table (without wall_time_ns) and of each pass of
csi_online decisions.  Re-pin only when a change to satsched is meant to
change its outputs, and say so in the change.
"""

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402

# more passes than a run at today's speed makes; passes beyond these are
# checked by the invariants only
PASSES = {"csi_figures": 256, "csi_online": 128, "cdi_figures": 128}


def main() -> int:
    workdir = HERE / "out" / "tmp-pin"
    workdir.mkdir(parents=True, exist_ok=True)
    pinned = {}
    try:
        for name, passes in PASSES.items():
            wl = workloads.make(name, workloads.DEFAULT_SEED, workdir)
            pinned[name] = []
            for p in range(passes):
                res = wl.run(p, wl.prepare(p))
                if res.failed:
                    print(f"{name} pass {p} failed: {res.problems}", file=sys.stderr)
                    return 1
                one_per_pass = isinstance(wl, workloads.OnlineWorkload)
                pinned[name].append(res.digests[0] if one_per_pass else res.digests)
            print(f"{name}: {passes} passes pinned", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (HERE / "digests.json").write_text(json.dumps(pinned, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
