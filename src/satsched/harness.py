"""Reproducible experiment harness.

Each scenario maps a validated ExperimentConfig to a flat table of
ResultRow records.  Randomness follows one splitting rule everywhere: the
generator for trial t of grid point x in scenario s is

    default_rng(SeedSequence(entropy=[seed, ordinal(s), x, t]))

so aggregates do not depend on evaluation order and adding trials never
reshuffles earlier draws.  Every column except wall_time_ns is a pure
function of the config, so reruns are byte-identical apart from timing.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass, fields

import numpy as np
from numpy.random import SeedSequence, default_rng

from .channel import CsiRealization, RayleighLink, SrParams, sample_rayleigh_snr
from .cdi_sched import aoius, exhaustive_groups, solve_theorem3
from .csi_bounds import sum_rate_bounds
from .csi_sched import (
    baseline_opportunistic,
    baseline_tdma,
    determine_k,
    exhaustive,
    gius,
    lbus,
)
from .errors import ConfigError
from .outage import GroupCdi, monte_carlo_outage, phase1_outage, phase2_outage, total_outage
from .rate_core import sinr_threshold

SCENARIOS = (
    "csi_sumrate",
    "csi_complexity",
    "csi_stability",
    "cdi_convergence",
    "cdi_outage",
    "cdi_complexity",
)

# satellite SNR used when the CSI experiments leave the second hop
# unconstrained: finite so splits and SINRs stay well defined, huge so the
# terrestrial hop always binds
UNCONSTRAINED_SAT_SNR = float(2**60)

_CSV_COLUMNS = ("scenario", "algorithm", "x", "metric", "value", "stderr",
                "seed", "wall_time_ns")


@dataclass(frozen=True)
class ResultRow:
    scenario: str
    algorithm: str
    x: float
    metric: str
    value: float
    stderr: float
    seed: int
    wall_time_ns: int


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str
    seed: int
    trials: int
    r_target_grid: tuple
    n_users: int = 0
    m_groups: int = 0
    k: object = "auto"  # "auto" or a positive int
    p1_sigma_sq: float = 5.0
    sat_snr: float = UNCONSTRAINED_SAT_SNR
    sr_params: dict | None = None
    p2: float = 1000.0
    mc_trials: int = 10_000
    delta: float = 0.0
    max_iters: int = 50
    cdi_low_db: float = -10.0
    cdi_high_db: float = 20.0
    output_path: str | None = None

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative int, got {self.seed!r}")
        if not isinstance(self.trials, int) or self.trials < 1:
            raise ConfigError(f"trials must be a positive int, got {self.trials!r}")
        grid = tuple(float(r) for r in self.r_target_grid)
        if not grid or any(r <= 0 or not math.isfinite(r) for r in grid):
            raise ConfigError("r_target_grid must be non-empty with positive entries")
        object.__setattr__(self, "r_target_grid", grid)
        if self.k != "auto":
            if not isinstance(self.k, int) or self.k < 1:
                raise ConfigError(f"k must be 'auto' or a positive int, got {self.k!r}")
        csi = self.scenario.startswith("csi")
        if csi:
            if self.n_users < 1:
                raise ConfigError("csi scenarios need n_users >= 1")
            if isinstance(self.k, int) and self.k > self.n_users:
                raise ConfigError("k cannot exceed n_users")
            if not (self.p1_sigma_sq > 0):
                raise ConfigError("p1_sigma_sq must be positive")
            if not (self.sat_snr > 0):
                raise ConfigError("sat_snr must be positive")
        else:
            if self.m_groups < 2:
                raise ConfigError("cdi scenarios need m_groups >= 2")
            if self.k == "auto":
                raise ConfigError("cdi scenarios need an explicit k")
            if self.k > self.m_groups:
                raise ConfigError("k cannot exceed m_groups")
            if self.cdi_low_db >= self.cdi_high_db:
                raise ConfigError("cdi_low_db must be below cdi_high_db")
            if self.delta < 0:
                raise ConfigError("delta must be non-negative")
            if self.max_iters < 1:
                raise ConfigError("max_iters must be a positive int")
        if self.scenario == "cdi_outage":
            if self.sr_params is None:
                raise ConfigError("cdi_outage needs sr_params {omega, b0, m_s}")
            if not isinstance(self.mc_trials, int) or self.mc_trials < 1:
                raise ConfigError("mc_trials must be a positive int")
            if not (self.p2 > 0):
                raise ConfigError("p2 must be positive")
        if self.sr_params is not None:
            keys = set(self.sr_params)
            if keys != {"omega", "b0", "m_s"}:
                raise ConfigError(f"sr_params must have keys omega, b0, m_s, got {sorted(keys)}")
        if self.scenario == "cdi_complexity" and (not isinstance(self.k, int) or self.k < 2):
            raise ConfigError("cdi_complexity sweeps slot counts 2..k and needs k >= 2")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        allowed = {f.name for f in fields(cls)}
        unknown = set(raw) - allowed
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        missing = {"scenario", "seed", "trials", "r_target_grid"} - set(raw)
        if missing:
            raise ConfigError(f"missing config keys: {sorted(missing)}")
        kwargs = dict(raw)
        if "r_target_grid" in kwargs:
            kwargs["r_target_grid"] = tuple(kwargs["r_target_grid"])
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out


def trial_rng(seed: int, *key) -> np.random.Generator:
    """The documented splitting rule: entropy = [seed, *key]."""
    return default_rng(SeedSequence(entropy=[seed, *key]))


def _ordinal(scenario: str) -> int:
    return SCENARIOS.index(scenario)


def _mean_stderr(values) -> tuple:
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return 0.0, 0.0
    if arr.size == 1:
        return float(arr[0]), 0.0
    return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(arr.size))


def _draw_csi(cfg: ExperimentConfig, rng) -> CsiRealization:
    link = RayleighLink(sigma_sq=cfg.p1_sigma_sq, tx_power=1.0)
    return CsiRealization(sample_rayleigh_snr(link, cfg.n_users, rng), cfg.sat_snr)


def _draw_cdi(cfg: ExperimentConfig, rng) -> GroupCdi:
    db = rng.uniform(cfg.cdi_low_db, cfg.cdi_high_db, size=cfg.m_groups)
    return GroupCdi.from_sigma_sq(np.power(10.0, db / 10.0), tx_power=1.0)


_CSI_ALGS = ("exhaustive", "gius", "lbus", "tdma", "opportunistic")


def _run_csi_schedulers(csi, k, r):
    """Sum rates and stats for the five CSI schedulers at a common k."""
    out = {}
    if k >= 1:
        out["exhaustive"] = exhaustive(csi, k, r)
        out["gius"] = gius(csi, k, r)
        out["lbus"] = lbus(csi, k, r)
        out["tdma"] = baseline_tdma(csi, k, r)
    out["opportunistic"] = baseline_opportunistic(csi, r)
    return out


def _run_csi_sumrate(cfg: ExperimentConfig) -> list:
    rows = []
    ordn = _ordinal(cfg.scenario)
    for xi, r in enumerate(cfg.r_target_grid):
        sums = {alg: [] for alg in _CSI_ALGS + ("lower_bound", "upper_bound")}
        nanos = {alg: 0 for alg in sums}
        for t in range(cfg.trials):
            rng = trial_rng(cfg.seed, ordn, xi, t)
            csi = _draw_csi(cfg, rng)
            k = determine_k(csi, r) if cfg.k == "auto" else cfg.k
            outcomes = _run_csi_schedulers(csi, k, r)
            for alg in _CSI_ALGS:
                if alg in outcomes:
                    sums[alg].append(outcomes[alg].rate_report.sum_rate)
                    nanos[alg] += outcomes[alg].stats.elapsed_ns
                else:
                    sums[alg].append(0.0)
            if k >= 1:
                t0 = time.perf_counter_ns()
                bounds = sum_rate_bounds(csi, k, r)
                nanos["lower_bound"] += time.perf_counter_ns() - t0
                sums["lower_bound"].append(bounds.lb_rate)
                sums["upper_bound"].append(bounds.ub_rate)
            else:
                sums["lower_bound"].append(0.0)
                sums["upper_bound"].append(0.0)
        for alg, vals in sums.items():
            mean, se = _mean_stderr(vals)
            rows.append(ResultRow(cfg.scenario, alg, float(r), "sum_rate_mean",
                                  mean, se, cfg.seed, nanos[alg] // cfg.trials))
    return rows


def _run_csi_complexity(cfg: ExperimentConfig) -> list:
    rows = []
    ordn = _ordinal(cfg.scenario)
    algs = ("exhaustive", "gius", "lbus")
    for xi, r in enumerate(cfg.r_target_grid):
        cands = {alg: [] for alg in algs}
        sums = {alg: [] for alg in algs}
        nanos = {alg: 0 for alg in algs}
        for t in range(cfg.trials):
            rng = trial_rng(cfg.seed, ordn, xi, t)
            csi = _draw_csi(cfg, rng)
            k = determine_k(csi, r) if cfg.k == "auto" else cfg.k
            if k < 1:
                for alg in algs:
                    cands[alg].append(0.0)
                    sums[alg].append(0.0)
                continue
            outcomes = _run_csi_schedulers(csi, k, r)
            for alg in algs:
                cands[alg].append(float(outcomes[alg].stats.candidates_examined))
                sums[alg].append(outcomes[alg].rate_report.sum_rate)
                nanos[alg] += outcomes[alg].stats.elapsed_ns
        for alg in algs:
            mean_c, se_c = _mean_stderr(cands[alg])
            mean_s, se_s = _mean_stderr(sums[alg])
            per_call = nanos[alg] // cfg.trials
            rows.append(ResultRow(cfg.scenario, alg, float(r), "candidates_examined_mean",
                                  mean_c, se_c, cfg.seed, per_call))
            rows.append(ResultRow(cfg.scenario, alg, float(r), "sum_rate_mean",
                                  mean_s, se_s, cfg.seed, per_call))
    return rows


def _run_csi_stability(cfg: ExperimentConfig) -> list:
    rows = []
    ordn = _ordinal(cfg.scenario)
    r = cfg.r_target_grid[0]
    for t in range(cfg.trials):
        rng = trial_rng(cfg.seed, ordn, 0, t)
        csi = _draw_csi(cfg, rng)
        k = determine_k(csi, r) if cfg.k == "auto" else cfg.k
        outcomes = _run_csi_schedulers(csi, k, r) if k >= 1 else {}
        for alg in ("exhaustive", "gius", "lbus"):
            if k < 1:
                rows.append(ResultRow(cfg.scenario, alg, float(t),
                                      "candidates_examined", 0.0, 0.0, cfg.seed, 0))
                continue
            outcome = outcomes[alg]
            rows.append(ResultRow(cfg.scenario, alg, float(t), "candidates_examined",
                                  float(outcome.stats.candidates_examined), 0.0,
                                  cfg.seed, outcome.stats.elapsed_ns))
    return rows


def _run_cdi_convergence(cfg: ExperimentConfig) -> list:
    rows = []
    ordn = _ordinal(cfg.scenario)
    r = cfg.r_target_grid[0]
    gamma_t = sinr_threshold(r)
    traces = []
    benchmarks = []
    nanos = 0
    for t in range(cfg.trials):
        rng = trial_rng(cfg.seed, ordn, 0, t)
        cdi = _draw_cdi(cfg, rng)
        t0 = time.perf_counter_ns()
        sched = aoius(cdi, cfg.k, gamma_t, cfg.delta, cfg.max_iters, rng)
        nanos += time.perf_counter_ns() - t0
        traces.append(list(sched.trace))
        benchmarks.append(
            solve_theorem3(float(cdi.lambdas.min()), cfg.k, gamma_t).benchmark_outage
        )
    width = max(len(tr) for tr in traces)
    padded = np.array([tr + [tr[-1]] * (width - len(tr)) for tr in traces])
    per_call = nanos // cfg.trials
    for i in range(width):
        mean, se = _mean_stderr(padded[:, i])
        rows.append(ResultRow(cfg.scenario, "aoius", float(i), "outage_mean",
                              mean, se, cfg.seed, per_call))
    mean_b, se_b = _mean_stderr(benchmarks)
    rows.append(ResultRow(cfg.scenario, "benchmark", 0.0, "outage_mean",
                          mean_b, se_b, cfg.seed, 0))
    return rows


def _run_cdi_outage(cfg: ExperimentConfig) -> list:
    rows = []
    ordn = _ordinal(cfg.scenario)
    sr = SrParams(tx_power=cfg.p2, **cfg.sr_params)
    for xi, r in enumerate(cfg.r_target_grid):
        gamma_t = sinr_threshold(r)
        p2 = phase2_outage(sr, cfg.k, r)
        cf = {"aoius": [], "exhaustive_groups": []}
        mc = {"aoius": [], "exhaustive_groups": []}
        nanos = {"aoius": 0, "exhaustive_groups": 0}
        for t in range(cfg.trials):
            rng = trial_rng(cfg.seed, ordn, xi, t)
            cdi = _draw_cdi(cfg, rng)
            t0 = time.perf_counter_ns()
            a = aoius(cdi, cfg.k, gamma_t, cfg.delta, cfg.max_iters, rng)
            t1 = time.perf_counter_ns()
            e = exhaustive_groups(cdi, cfg.k, gamma_t)
            nanos["aoius"] += t1 - t0
            nanos["exhaustive_groups"] += time.perf_counter_ns() - t1
            for tag, (name, sched) in enumerate((("aoius", a), ("exhaustive_groups", e))):
                cf[name].append(total_outage(sched.outage, p2))
                mc_rng = trial_rng(cfg.seed, ordn, xi, t, tag + 1)
                report = monte_carlo_outage(cdi.lambdas[list(sched.groups)], sr, r,
                                            cfg.mc_trials, mc_rng)
                mc[name].append(report.total)
        for name in ("aoius", "exhaustive_groups"):
            per_call = nanos[name] // cfg.trials
            mean_cf, se_cf = _mean_stderr(cf[name])
            mean_mc, se_mc = _mean_stderr(mc[name])
            rows.append(ResultRow(cfg.scenario, name, float(r), "total_outage_cf_mean",
                                  mean_cf, se_cf, cfg.seed, per_call))
            rows.append(ResultRow(cfg.scenario, name, float(r), "total_outage_mc_mean",
                                  mean_mc, se_mc, cfg.seed, per_call))
    return rows


def _run_cdi_complexity(cfg: ExperimentConfig) -> list:
    rows = []
    ordn = _ordinal(cfg.scenario)
    r = cfg.r_target_grid[0]
    gamma_t = sinr_threshold(r)
    for xi, k_val in enumerate(range(2, cfg.k + 1)):
        evals = {"aoius": [], "exhaustive_groups": []}
        nanos = {"aoius": 0, "exhaustive_groups": 0}
        for t in range(cfg.trials):
            rng = trial_rng(cfg.seed, ordn, xi, t)
            cdi = _draw_cdi(cfg, rng)
            t0 = time.perf_counter_ns()
            a = aoius(cdi, k_val, gamma_t, cfg.delta, cfg.max_iters, rng)
            t1 = time.perf_counter_ns()
            e = exhaustive_groups(cdi, k_val, gamma_t)
            nanos["aoius"] += t1 - t0
            nanos["exhaustive_groups"] += time.perf_counter_ns() - t1
            evals["aoius"].append(float(a.evaluations))
            evals["exhaustive_groups"].append(float(e.evaluations))
        for name in ("aoius", "exhaustive_groups"):
            mean, se = _mean_stderr(evals[name])
            rows.append(ResultRow(cfg.scenario, name, float(k_val), "outage_evaluations_mean",
                                  mean, se, cfg.seed, nanos[name] // cfg.trials))
    return rows


_RUNNERS = {
    "csi_sumrate": _run_csi_sumrate,
    "csi_complexity": _run_csi_complexity,
    "csi_stability": _run_csi_stability,
    "cdi_convergence": _run_cdi_convergence,
    "cdi_outage": _run_cdi_outage,
    "cdi_complexity": _run_cdi_complexity,
}


def run_experiment(config: ExperimentConfig) -> list:
    return _RUNNERS[config.scenario](config)


def emit(rows, format: str = "csv", path: str | None = None) -> str:
    """Serialize rows to csv or json; optionally write to path.  Floats are
    rendered with repr so equal runs produce equal bytes."""
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        for row in rows:
            writer.writerow([row.scenario, row.algorithm, repr(row.x), row.metric,
                             repr(row.value), repr(row.stderr), row.seed,
                             row.wall_time_ns])
        text = buf.getvalue()
    elif format == "json":
        payload = {"columns": list(_CSV_COLUMNS),
                   "rows": [[row.scenario, row.algorithm, row.x, row.metric,
                             row.value, row.stderr, row.seed, row.wall_time_ns]
                            for row in rows]}
        text = json.dumps(payload, indent=2) + "\n"
    else:
        raise ConfigError(f"unknown format {format!r}")
    if path is not None:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output to {path}: {exc}") from exc
    return text


def load_rows(path: str) -> list:
    """Read back an emitted table (either format) as ResultRow records."""
    with open(path) as fh:
        text = fh.read()
    rows = []
    if text.lstrip().startswith("{"):
        payload = json.loads(text)
        if payload.get("columns") != list(_CSV_COLUMNS):
            raise ConfigError("unexpected columns in json table")
        records = payload["rows"]
    else:
        reader = csv.reader(io.StringIO(text))
        header = next(reader)
        if tuple(header) != _CSV_COLUMNS:
            raise ConfigError("unexpected csv header")
        records = list(reader)
    for rec in records:
        rows.append(ResultRow(scenario=rec[0], algorithm=rec[1], x=float(rec[2]),
                              metric=rec[3], value=float(rec[4]), stderr=float(rec[5]),
                              seed=int(rec[6]), wall_time_ns=int(rec[7])))
    return rows
