"""The benchmark's workloads: inputs made from the seed, timed passes, and
the checks every output must pass.

A run repeats *passes* until its time is up.  Pass p of a figure workload
emits each of its tables once through ``satsched.cli.main``; pass p of
``csi_online`` makes ``FRAMES_PER_PASS`` scheduling decisions.  Every pass
draws new instances (the config seed or frame index moves with p), so a
run's numbers average over as many distinct instances as it has time for.

Only the program's own calls are timed: writing configs, drawing CSI and
checking outputs happen between timed calls.  Times are normalised to the
reference host speed with the probe of calibrate.py, taken around every
table call and every pass of decisions.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

from calibrate import REFERENCE_S, probe
from satsched import channel, cli, csi_bounds, csi_sched, harness

DEFAULT_SEED = 0
# config seeds are bundled seed + SEED_STRIDE * bench seed + pass, so passes
# of one seed never reuse another seed's instances
SEED_STRIDE = 1000
MAX_PASSES = SEED_STRIDE - 1
TOL = 1e-9

_HEAVY_SHADOW = {"omega": 0.000897, "b0": 0.063, "m_s": 0.739}

# Instance parameters of the bundled configs/*.json, copied so the benchmark
# does not depend on where the repository keeps them.  Only seed and trials
# are set by the benchmark.  Trials per pass are small, so a run sees many
# instances.  csi_sumrate and cdi_convergence get more than their bundled
# share: the p99 of per-operation times then falls inside one table's
# operations, not on the edge between two tables, where it jumps.
TABLES = {
    "csi_sumrate": ("csi-sumrate", 8, {
        "scenario": "csi_sumrate", "seed": 11001, "n_users": 10,
        "r_target_grid": [0.6, 0.9, 1.2, 1.5, 1.8], "p1_sigma_sq": 5.0}),
    "csi_complexity": ("csi-complexity", 1, {
        "scenario": "csi_complexity", "seed": 11002, "n_users": 20,
        "r_target_grid": [0.6, 0.9, 1.2], "p1_sigma_sq": 5.0}),
    "csi_stability": ("csi-stability", 2, {
        "scenario": "csi_stability", "seed": 11003, "n_users": 20,
        "r_target_grid": [0.9], "p1_sigma_sq": 5.0}),
    "cdi_outage_k2": ("cdi-outage", 10, {
        "scenario": "cdi_outage", "seed": 11005, "m_groups": 10, "k": 2,
        "r_target_grid": [0.02, 0.1, 0.5, 1.0], "mc_trials": 10000, "p2": 1000.0,
        "sr_params": _HEAVY_SHADOW}),
    "cdi_outage_k3": ("cdi-outage", 10, {
        "scenario": "cdi_outage", "seed": 11006, "m_groups": 10, "k": 3,
        "r_target_grid": [0.02, 0.1, 0.5, 1.0], "mc_trials": 10000, "p2": 1000.0,
        "sr_params": _HEAVY_SHADOW}),
    "cdi_complexity": ("cdi-complexity", 5, {
        "scenario": "cdi_complexity", "seed": 11007, "m_groups": 12, "k": 5,
        "r_target_grid": [0.02]}),
    "cdi_convergence": ("cdi-converge", 2, {
        "scenario": "cdi_convergence", "seed": 11004, "m_groups": 500, "k": 10,
        "r_target_grid": [0.02], "max_iters": 30}),
}

# csi_online: N Rayleigh users, rate targets cycled per frame, and the
# satellite unconstrained on half the frames and binding on the other half
ONLINE_USERS = 32
ONLINE_SIGMA_SQ = 5.0
ONLINE_RATES = (0.9, 1.2, 1.8)
ONLINE_SAT_SNRS = (harness.UNCONSTRAINED_SAT_SNR, 100.0)
ONLINE_KEY = 1000  # trial_rng key, clear of the harness scenario ordinals
FRAMES_PER_PASS = 256


@dataclass
class PassResult:
    """What one pass did.  ``raw_wall`` sums the timed calls only; ``wall``
    and ``samples_ms`` are the same times normalised to the reference host
    speed (see calibrate.py)."""

    ops: int = 0
    failed: int = 0
    raw_wall: float = 0.0
    wall: float = 0.0
    samples_ms: list = field(default_factory=list)
    sample_ops: list = field(default_factory=list)  # operations behind each sample
    digests: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    ops_by_label: dict = field(default_factory=dict)

    def fail(self, ops: int, message: str) -> None:
        self.failed += ops
        if len(self.problems) < 5:
            self.problems.append(message)


def table_digest(text: str) -> str:
    """SHA-256 of an emitted CSV table without its wall_time_ns column."""
    body = "".join(line.rsplit(",", 1)[0] + "\n" for line in text.splitlines())
    return hashlib.sha256(body.encode()).hexdigest()


def table_ops(config: dict) -> int:
    """Operations in a table: one per trial and grid point."""
    if config["scenario"] == "cdi_complexity":
        points = config["k"] - 1  # slot counts 2..k
    else:
        points = len(config["r_target_grid"])
    return config["trials"] * points


def _close_le(a: float, b: float) -> bool:
    return a <= b + TOL * max(1.0, abs(a), abs(b))


def _by(rows, metric):
    """{x: {algorithm: value}} for one metric."""
    out: dict = {}
    for row in rows:
        if row["metric"] == metric:
            out.setdefault(row["x"], {})[row["algorithm"]] = row["value"]
    return out


def check_table(config: dict, rows: list) -> list:
    """Invariants that hold at every seed; returns the violations."""
    bad = []
    for row in rows:
        if not math.isfinite(row["value"]) or row["value"] < 0:
            bad.append(f"{row['algorithm']} {row['metric']} = {row['value']}")
    scenario = config["scenario"]
    grid = config["r_target_grid"]
    if scenario == "csi_sumrate":
        expected = 7 * len(grid)
        for x, v in _by(rows, "sum_rate_mean").items():
            ex = v["exhaustive"]
            if not (_close_le(v["lower_bound"], ex) and _close_le(ex, v["upper_bound"])):
                bad.append(f"x={x}: bounds {v['lower_bound']} <= {ex} <= {v['upper_bound']}")
            for alg in ("gius", "lbus"):
                if not _close_le(v[alg], ex):
                    bad.append(f"x={x}: {alg} {v[alg]} above exhaustive {ex}")
    elif scenario == "csi_complexity":
        expected = 6 * len(grid)
        for x, v in _by(rows, "sum_rate_mean").items():
            for alg in ("gius", "lbus"):
                if not _close_le(v[alg], v["exhaustive"]):
                    bad.append(f"x={x}: {alg} {v[alg]} above exhaustive {v['exhaustive']}")
    elif scenario == "csi_stability":
        expected = 3 * config["trials"]
        subsets = {math.comb(config["n_users"], k) for k in range(config["n_users"] + 1)}
        for x, v in _by(rows, "candidates_examined").items():
            if v["exhaustive"] not in subsets | {0.0}:
                bad.append(f"trial {x}: exhaustive examined {v['exhaustive']} subsets")
    elif scenario == "cdi_outage":
        expected = 4 * len(grid)
        for x, v in _by(rows, "total_outage_cf_mean").items():
            if not _close_le(v["exhaustive_groups"], v["aoius"]):
                bad.append(f"x={x}: aoius {v['aoius']} below exhaustive "
                           f"{v['exhaustive_groups']}")
            if max(v.values()) > 1.0:
                bad.append(f"x={x}: outage above 1")
    elif scenario == "cdi_complexity":
        expected = 2 * (config["k"] - 1)
        for x, v in _by(rows, "outage_evaluations_mean").items():
            if v["exhaustive_groups"] != math.comb(config["m_groups"], int(x)):
                bad.append(f"k={x}: exhaustive_groups made {v['exhaustive_groups']} "
                           "evaluations")
            if v["aoius"] < 1:
                bad.append(f"k={x}: aoius made no evaluation")
    elif scenario == "cdi_convergence":
        trace = [r["value"] for r in rows if r["algorithm"] == "aoius"]
        bench = [r["value"] for r in rows if r["algorithm"] == "benchmark"]
        expected = len(trace) + 1
        if len(bench) != 1 or not trace:
            bad.append("convergence table lacks a trace or its benchmark")
        else:
            if any(not _close_le(b, a) for a, b in zip(trace, trace[1:])):
                bad.append("convergence trace increases")
            if not _close_le(bench[0], min(trace)):
                bad.append(f"trace {min(trace)} below benchmark {bench[0]}")
    else:
        raise ValueError(f"no checks for scenario {scenario!r}")
    if len(rows) != expected:
        bad.append(f"{len(rows)} rows, expected {expected}")
    return bad


def _parse_table(text: str) -> list:
    rows = []
    for rec in csv.DictReader(io.StringIO(text)):
        rec["x"] = float(rec["x"])
        rec["value"] = float(rec["value"])
        rows.append(rec)
    return rows


class FigureWorkload:
    """Bundled CSI or CDI tables, each emitted through cli.main per pass."""

    def __init__(self, tables, seed: int, workdir: Path, pinned=None):
        self.tables = tables
        self.seed = seed
        self.workdir = workdir
        self.pinned = pinned or []

    def prepare(self, p: int, trials: int | None = None) -> list:
        """Write pass p's configs; returns the calls the pass makes."""
        calls = []
        for name in self.tables:
            sub, bench_trials, base = TABLES[name]
            config = dict(base, seed=base["seed"] + SEED_STRIDE * self.seed + p,
                          trials=trials or bench_trials)
            cfg_path = self.workdir / f"p{p}-{name}.json"
            cfg_path.write_text(json.dumps(config))
            out_path = self.workdir / f"p{p}-{name}.csv"
            argv = [sub, "--config", str(cfg_path), "--out", str(out_path)]
            calls.append((name, config, argv, out_path))
        return calls

    def warm_up(self) -> PassResult:
        """One trial of the first table, on an instance no timed pass uses."""
        return self.run(-1, self.prepare(-1, trials=1)[:1])

    def run(self, p: int, calls: list, tracer=None) -> PassResult:
        """Pass p; its digests are pinned for p >= 0 at the default seed."""
        res = PassResult()
        pinned = self.pinned[p] if 0 <= p < len(self.pinned) else None
        last_probe = probe()
        for i, (name, config, argv, out_path) in enumerate(calls):
            ops = table_ops(config)
            res.ops += ops
            res.ops_by_label[name] = res.ops_by_label.get(name, 0) + ops
            if tracer is not None:
                tracer.label = name
                tracer.op += 1
            t0 = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception as exc:  # a crash is a failed operation, not the end of the run
                code = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            # host speed from the probes on either side of this call
            now_probe = probe()
            dt_ref = dt * 2 * REFERENCE_S / (last_probe + now_probe)
            last_probe = now_probe
            res.raw_wall += dt
            res.wall += dt_ref
            res.samples_ms.append(1e3 * dt_ref / ops)
            res.sample_ops.append(ops)
            if code != 0:
                res.digests.append(None)
                res.fail(ops, f"pass {p} {name}: cli.main gave {code}")
                continue
            text = out_path.read_text()
            digest = table_digest(text)
            res.digests.append(digest)
            problems = check_table(config, _parse_table(text))
            if pinned is not None and pinned[i] != digest:
                problems.append(f"digest {digest[:12]} != pinned {pinned[i][:12]}")
            if problems:
                res.fail(ops, f"pass {p} {name}: " + "; ".join(problems[:3]))
        return res


def online_frame(seed: int, i: int):
    """Frame i's rate target and CSI realization."""
    rate = ONLINE_RATES[i % len(ONLINE_RATES)]
    sat = ONLINE_SAT_SNRS[(i // len(ONLINE_RATES)) % len(ONLINE_SAT_SNRS)]
    link = channel.RayleighLink(sigma_sq=ONLINE_SIGMA_SQ, tx_power=1.0)
    snrs = channel.sample_rayleigh_snr(link, ONLINE_USERS,
                                       harness.trial_rng(seed, ONLINE_KEY, i))
    return rate, channel.CsiRealization(snrs, sat)


def decide(csi, rate: float) -> tuple:
    """One scheduling decision: (k, gius, lbus, bounds), the last three None at k=0."""
    k = csi_sched.determine_k(csi, rate)
    if not k:
        return k, None, None, None
    return (k, csi_sched.gius(csi, k, rate), csi_sched.lbus(csi, k, rate),
            csi_bounds.sum_rate_bounds(csi, k, rate))


def _decision_record(decision) -> bytes:
    k, g, lb, bounds = decision
    if not k:
        return b"0;"
    record = (k, g.schedule and g.schedule.users, g.rate_report.sum_rate,
              g.rate_report.per_user_rates, lb.schedule and lb.schedule.users,
              lb.rate_report.sum_rate, lb.rate_report.per_user_rates,
              bounds.lb_rate, bounds.ub_rate)
    return repr(record).encode() + b";"


def _check_schedule(outcome, k: int, bounds) -> str | None:
    if outcome.schedule is None:
        return None
    report = outcome.rate_report
    if len(outcome.schedule.users) != k:
        return f"{len(outcome.schedule.users)} users scheduled, k={k}"
    if not report.meets_target:
        return "schedule misses the rate target"
    if not _close_le(report.sum_rate, bounds.ub_rate):
        return f"sum rate {report.sum_rate} above upper bound {bounds.ub_rate}"
    return None


def check_decision(decision) -> list:
    k, g, lb, bounds = decision
    if not k:
        return []
    return [msg for msg in (
        None if g.schedule is not None else "gius found no schedule",
        None if bounds.feasible else "bounds call the instance infeasible",
        None if _close_le(bounds.lb_rate, bounds.ub_rate) else "lower bound above upper",
        _check_schedule(g, k, bounds),
        _check_schedule(lb, k, bounds),
    ) if msg]


class OnlineWorkload:
    """Per-frame decisions: determine_k, then gius, lbus and sum_rate_bounds."""

    def __init__(self, seed: int, pinned=None):
        self.seed = seed
        self.pinned = pinned or []

    def prepare(self, p: int, trials: int | None = None) -> list:
        """Pass p's frames (the first `trials` of them when given)."""
        first = p * FRAMES_PER_PASS
        return [online_frame(self.seed, i)
                for i in range(first, first + (trials or FRAMES_PER_PASS))]

    def warm_up(self) -> PassResult:
        """One decision, on pass 0's first frame."""
        return self.run(-1, self.prepare(0, trials=1))

    def run(self, p: int, frames: list, tracer=None) -> PassResult:
        """Pass p; its digest is pinned for p >= 0 at the default seed."""
        res = PassResult(ops_by_label={"decision": len(frames)})
        log = hashlib.sha256()
        first_probe = probe()
        times = []
        for j, (rate, csi) in enumerate(frames):
            res.ops += 1
            if tracer is not None:
                tracer.label = "decision"
                tracer.op += 1
            t0 = time.perf_counter()
            try:
                decision = decide(csi, rate)
            except Exception as exc:  # a crash is a failed decision, not the end of the run
                decision = f"{type(exc).__name__}: {exc}"
            times.append(time.perf_counter() - t0)
            if isinstance(decision, str):
                log.update(b"error;")
                res.fail(1, f"pass {p} frame {j}: {decision}")
                continue
            log.update(_decision_record(decision))
            problems = check_decision(decision)
            if problems:
                res.fail(1, f"pass {p} frame {j}: " + "; ".join(problems))
        # decisions take milliseconds, so the host speed is probed per pass
        factor = 2 * REFERENCE_S / (first_probe + probe())
        res.raw_wall = sum(times)
        res.wall = res.raw_wall * factor
        res.samples_ms = [1e3 * t * factor for t in times]
        res.sample_ops = [1] * len(times)
        digest = log.hexdigest()
        res.digests.append(digest)
        if 0 <= p < len(self.pinned) and self.pinned[p] != digest:
            res.fail(res.ops - res.failed,
                     f"pass {p}: decision digest {digest[:12]} != pinned {self.pinned[p][:12]}")
        return res


WORKLOADS = {
    "csi_figures": ("csi_sumrate", "csi_complexity", "csi_stability"),
    "csi_online": None,
    "cdi_figures": ("cdi_outage_k2", "cdi_outage_k3", "cdi_complexity", "cdi_convergence"),
}


def make(name: str, seed: int, workdir: Path, pinned=None):
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    if name == "csi_online":
        return OnlineWorkload(seed, pinned)
    return FigureWorkload(WORKLOADS[name], seed, workdir, pinned)
