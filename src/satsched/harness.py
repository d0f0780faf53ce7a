"""Reproducible experiment harness.

Each scenario maps a validated ExperimentConfig to a flat table of
ResultRow records, through one loop over (grid point, trial) that feeds
one mean/stderr aggregator.  Everything the harness knows of a scenario
is its record in _SCENARIOS: its point function, the config keys it reads,
its grid points and whether it reports each trial as a row.

Randomness follows one splitting rule everywhere: the generator for trial
t of grid point i in scenario s is

    default_rng(SeedSequence(entropy=[seed, ordinal(s), i, t]))

so aggregates do not depend on evaluation order and adding trials never
reshuffles earlier draws.  Every column except wall_time_ns is a pure
function of the config, so reruns are byte-identical apart from timing.

wall_time_ns is the mean, over the trials behind a row, of the ns spent in
the call that produced the row's algorithm result: the scheduler itself,
sum_rate_bounds for lower_bound and upper_bound, solve_theorem3 for
benchmark.  A trial whose call could not run (no user can be served)
counts 0 ns.  Work the harness does around the call, such as drawing the
instance, determine_k or the Monte-Carlo check of an outage, is not
included.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, fields
from time import perf_counter_ns
from typing import Callable

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
from .outage import GroupCdi, monte_carlo_outage, phase2_outage, total_outage
from .rate_core import sinr_threshold

# satellite SNR of the CSI experiments' unconstrained second hop: satellite
# SNRs are finite, and this one is so large the terrestrial hop always binds
UNCONSTRAINED_SAT_SNR = float(2**60)
# CDI group mean SNRs are drawn dB-uniform on [low, high]
_CDI_LOW_DB, _CDI_HIGH_DB = -10.0, 20.0


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


_CSV_COLUMNS = tuple(f.name for f in fields(ResultRow))


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _check_finite(name: str, v):
    """v itself when it is a finite int or float (bools are not numbers here)."""
    try:
        ok = isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:  # an int too large for a float
        ok = False
    if not ok:
        raise ConfigError(f"{name} must be a finite number, got {v!r}")
    return v


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str
    seed: int
    trials: int
    r_target_grid: tuple
    n_users: int = 0
    m_groups: int = 0
    k: int | None = None  # CDI slot count; CSI tables size theirs with determine_k
    p1_sigma_sq: float = 5.0
    sr_params: dict | None = None
    p2: float = 1000.0
    mc_trials: int = 10_000
    max_iters: int = 50
    output_path: str | None = None

    def __post_init__(self):
        if self.scenario not in SCENARIOS:  # the tuple: a list scenario is unhashable
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        spec = _SCENARIOS[self.scenario]
        reads = spec.reads
        # a field the scenario does not read keeps its default; each field it
        # reads is checked: the annotations (strings here) mark the ints and
        # floats, and a count or level exceeds its floor
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name not in reads:
                if type(v) is not type(f.default) or v != f.default:
                    raise ConfigError(f"{self.scenario} does not read {f.name!r}, got {v!r}")
                continue
            if f.type.startswith("int") and not _is_int(v):
                raise ConfigError(f"{f.name} must be an int, got {v!r}")
            if f.type == "float":
                _check_finite(f.name, v)
            if reads[f.name] is not None and not v > reads[f.name]:
                raise ConfigError(f"{self.scenario} needs {f.name} > {reads[f.name]}, "
                                  f"got {v!r}")
        if "k" in reads and self.k > self.m_groups:
            raise ConfigError(f"k must be at most m_groups = {self.m_groups}, got {self.k!r}")
        if not isinstance(self.r_target_grid, (list, tuple)):
            raise ConfigError("r_target_grid must be a list of numbers")
        grid = tuple(float(_check_finite("r_target_grid", r)) for r in self.r_target_grid)
        if not grid or any(r <= 0 for r in grid):
            raise ConfigError("r_target_grid must be non-empty with positive entries")
        if spec.grid is not None and len(grid) != 1:
            raise ConfigError(f"{self.scenario} reads one rate, so 'r_target_grid' must have "
                              f"one entry, got {len(grid)}")
        object.__setattr__(self, "r_target_grid", grid)
        if self.output_path is not None and not isinstance(self.output_path, str):
            raise ConfigError(f"output_path must be a string, got {self.output_path!r}")
        if "sr_params" in reads:
            if not isinstance(self.sr_params, dict) or set(self.sr_params) != {"omega", "b0", "m_s"}:
                raise ConfigError(f"sr_params must be an object with keys omega, b0, m_s, "
                                  f"got {self.sr_params!r}")
            for name, v in self.sr_params.items():
                if _check_finite(f"sr_params.{name}", v) <= 0:
                    raise ConfigError(f"sr_params.{name} must be positive, got {v!r}")

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
        config = cls(**raw)
        ignored = set(raw).difference(_SCENARIOS[config.scenario].reads)
        if ignored:
            raise ConfigError(f"{config.scenario} does not read {sorted(ignored)}")
        return config


def trial_rng(seed: int, *key) -> np.random.Generator:
    """The documented splitting rule: entropy = [seed, *key]."""
    return default_rng(SeedSequence(entropy=[seed, *key]))


def _mean_stderr(values) -> tuple:
    arr = np.asarray(values, dtype=float)
    if arr.size == 1:
        return float(arr[0]), 0.0
    return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(arr.size))


def _draw_csi_k(cfg: ExperimentConfig, r: float, rng) -> tuple:
    """A CSI draw with the unconstrained satellite, and its determine_k slot count."""
    link = RayleighLink(sigma_sq=cfg.p1_sigma_sq, tx_power=1.0)
    csi = CsiRealization(sample_rayleigh_snr(link, cfg.n_users, rng), UNCONSTRAINED_SAT_SNR)
    return csi, determine_k(csi, r)


def _draw_cdi(cfg: ExperimentConfig, rng) -> GroupCdi:
    db = rng.uniform(_CDI_LOW_DB, _CDI_HIGH_DB, size=cfg.m_groups)
    return GroupCdi.from_sigma_sq(np.power(10.0, db / 10.0), tx_power=1.0)


def _timed(fn, *args):
    """(fn(*args), nanoseconds the call took)."""
    t0 = perf_counter_ns()
    out = fn(*args)
    return out, perf_counter_ns() - t0


def _csi_schedulers(csi, k: int, r: float, algs) -> dict:
    """{algorithm: (outcome, ns)} for the named CSI schedulers; every
    outcome is (None, 0) when k is 0, as none of them can run."""
    fns = {"exhaustive": exhaustive, "gius": gius, "lbus": lbus, "tdma": baseline_tdma}
    return {alg: _timed(fns[alg], csi, k, r) if k >= 1 else (None, 0) for alg in algs}


def _cdi_schedulers(cfg: ExperimentConfig, cdi, k: int, gamma_t: float, rng) -> dict:
    """{algorithm: (schedule, ns)} for the two group selectors."""
    return {"aoius": _timed(aoius, cdi, k, gamma_t, rng, cfg.max_iters),
            "exhaustive_groups": _timed(exhaustive_groups, cdi, k, gamma_t)}


# Point functions: (config, x) -> trial(rng, key) for the grid point at x.
# A trial returns {(algorithm, metric): (value, ns)}, where ns times the
# call that produced the algorithm's result.  Work shared by all trials of
# a point is done once, before the trial function is returned.

def _csi_sumrate(cfg: ExperimentConfig, r: float):
    def trial(rng, key):
        csi, k = _draw_csi_k(cfg, r, rng)
        runs = _csi_schedulers(csi, k, r, ("exhaustive", "gius", "lbus", "tdma"))
        runs["opportunistic"] = _timed(baseline_opportunistic, csi, r)
        out = {(alg, "sum_rate_mean"): (o.rate_report.sum_rate if o else 0.0, ns)
               for alg, (o, ns) in runs.items()}
        bounds, ns = _timed(sum_rate_bounds, csi, k, r) if k >= 1 else (None, 0)
        out["lower_bound", "sum_rate_mean"] = (bounds.lb_rate if bounds else 0.0, ns)
        out["upper_bound", "sum_rate_mean"] = (bounds.ub_rate if bounds else 0.0, ns)
        return out
    return trial


def _csi_complexity(cfg: ExperimentConfig, r: float):
    def trial(rng, key):
        csi, k = _draw_csi_k(cfg, r, rng)
        out = {}
        for alg, (o, ns) in _csi_schedulers(csi, k, r, ("exhaustive", "gius", "lbus")).items():
            out[alg, "candidates_examined_mean"] = (
                float(o.stats.candidates_examined) if o else 0.0, ns)
            out[alg, "sum_rate_mean"] = (o.rate_report.sum_rate if o else 0.0, ns)
        return out
    return trial


def _csi_stability(cfg: ExperimentConfig, _x: float):
    r = cfg.r_target_grid[0]

    def trial(rng, key):
        csi, k = _draw_csi_k(cfg, r, rng)
        return {(alg, "candidates_examined"): (float(o.stats.candidates_examined) if o else 0.0, ns)
                for alg, (o, ns) in _csi_schedulers(csi, k, r, ("exhaustive", "gius", "lbus")).items()}
    return trial


def _cdi_convergence(cfg: ExperimentConfig, _x: float):
    gamma_t = sinr_threshold(cfg.r_target_grid[0])

    def trial(rng, key):
        cdi = _draw_cdi(cfg, rng)
        sched, ns = _timed(aoius, cdi, cfg.k, gamma_t, rng, cfg.max_iters)
        bench, b_ns = _timed(solve_theorem3, float(cdi.lambdas.min()), cfg.k, gamma_t)
        # a list value is a per-sweep trace: one row per sweep
        return {("aoius", "outage_mean"): (list(sched.trace), ns),
                ("benchmark", "outage_mean"): (bench.benchmark_outage, b_ns)}
    return trial


def _cdi_outage(cfg: ExperimentConfig, r: float):
    gamma_t = sinr_threshold(r)
    sr = SrParams(tx_power=cfg.p2, **cfg.sr_params)
    p2 = phase2_outage(sr, cfg.k, r)

    def trial(rng, key):
        cdi = _draw_cdi(cfg, rng)
        out = {}
        for tag, (alg, (sched, ns)) in enumerate(
                _cdi_schedulers(cfg, cdi, cfg.k, gamma_t, rng).items()):
            mc = monte_carlo_outage(cdi.lambdas[list(sched.groups)], sr, r, cfg.mc_trials,
                                    trial_rng(*key, tag + 1))
            out[alg, "total_outage_cf_mean"] = (total_outage(sched.outage, p2), ns)
            out[alg, "total_outage_mc_mean"] = (mc.total, ns)
        return out
    return trial


def _cdi_complexity(cfg: ExperimentConfig, x: float):
    k = int(x)
    gamma_t = sinr_threshold(cfg.r_target_grid[0])

    def trial(rng, key):
        cdi = _draw_cdi(cfg, rng)
        return {(alg, "outage_evaluations_mean"): (float(sched.evaluations), ns)
                for alg, (sched, ns) in _cdi_schedulers(cfg, cdi, k, gamma_t, rng).items()}
    return trial


@dataclass(frozen=True)
class _Scenario:
    point: Callable  # (config, x) -> trial(rng, key) for the grid point at x
    # each config key the scenario reads: None, or the floor its value must exceed
    reads: dict
    # None: the points are r_target_grid; else (config) -> the points' x,
    # and the scenario reads r_target_grid[0] alone
    grid: Callable | None = None
    per_trial: bool = False  # one row per trial, at x = trial


_COMMON = {"scenario": None, "seed": -1, "trials": 0, "r_target_grid": None,
           "output_path": None}
_CSI = {**_COMMON, "n_users": 0, "p1_sigma_sq": 0.0}
_CDI = {**_COMMON, "m_groups": 1, "k": 0, "max_iters": 0}


def _one_point(cfg: ExperimentConfig) -> list:
    return [0.0]


def _slot_counts(cfg: ExperimentConfig) -> list:
    return [float(k) for k in range(2, cfg.k + 1)]


# a scenario's position here is its ordinal in every trial_rng key
_SCENARIOS = {
    "csi_sumrate": _Scenario(_csi_sumrate, _CSI),
    "csi_complexity": _Scenario(_csi_complexity, _CSI),
    "csi_stability": _Scenario(_csi_stability, _CSI, _one_point, per_trial=True),
    "cdi_convergence": _Scenario(_cdi_convergence, _CDI, _one_point),
    "cdi_outage": _Scenario(_cdi_outage, {**_CDI, "mc_trials": 0, "p2": 0.0,
                                          "sr_params": None}),
    "cdi_complexity": _Scenario(_cdi_complexity, {**_CDI, "k": 1}, _slot_counts),
}
SCENARIOS = tuple(_SCENARIOS)


def _aggregate(cfg: ExperimentConfig, x: float, acc: dict) -> list:
    """Rows from {(algorithm, metric): (values, ns)}, one per key (one per
    sweep for traces), with the mean ns per trial as wall time."""
    rows = []
    for (alg, metric), (values, nanos) in acc.items():
        ns = sum(nanos) // len(nanos)
        if isinstance(values[0], list):
            # traces padded with their final value to the longest
            width = max(len(v) for v in values)
            padded = np.array([v + v[-1:] * (width - len(v)) for v in values])
            stats = [(float(i), *_mean_stderr(padded[:, i])) for i in range(width)]
        else:
            stats = [(x, *_mean_stderr(values))]
        rows += [ResultRow(cfg.scenario, alg, at, metric, mean, se, cfg.seed, ns)
                 for at, mean, se in stats]
    return rows


def run_experiment(config: ExperimentConfig) -> list:
    """Every trial of every grid point, aggregated per point, or per trial
    where the scenario reports each trial as its own row."""
    spec = _SCENARIOS[config.scenario]
    ordn = SCENARIOS.index(config.scenario)
    rows = []
    for xi, x in enumerate(config.r_target_grid if spec.grid is None else spec.grid(config)):
        trial = spec.point(config, x)
        acc: dict = {}
        for t in range(config.trials):
            key = (config.seed, ordn, xi, t)
            for name, (value, ns) in trial(trial_rng(*key), key).items():
                values, nanos = acc.setdefault(name, ([], []))
                values.append(value)
                nanos.append(ns)
            if spec.per_trial:
                rows += _aggregate(config, float(t), acc)
                acc = {}
        rows += _aggregate(config, x, acc)
    return rows


def emit(rows, format: str = "csv", path: str | None = None) -> str:
    """Serialize rows to csv or json; optionally write to path.  Floats are
    rendered with repr so equal runs produce equal bytes."""
    records = [[getattr(row, c) for c in _CSV_COLUMNS] for row in rows]
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        writer.writerows([repr(v) if isinstance(v, float) else v for v in rec] for rec in records)
        text = buf.getvalue()
    elif format == "json":
        text = json.dumps({"columns": list(_CSV_COLUMNS), "rows": records}, indent=2) + "\n"
    else:
        raise ConfigError(f"unknown format {format!r}")
    if path is not None:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output to {path}: {exc}") from exc
    return text
