"""Command-line entry point.

One subcommand per experiment scenario plus `validate`, which replays the
fast oracle checks (closed forms vs independent estimates, bound sandwich,
scheduler dominance, sampler distribution) and fails loudly on any miss.

Exit codes: 0 success, 2 configuration problems, 3 numeric failures.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import harness
from .channel import CsiRealization, RayleighLink, SrParams, sample_rayleigh_snr, sample_sr_snr, sr_snr_pdf
from .cdi_sched import aoius, exhaustive_groups, solve_theorem3
from .csi_bounds import feasibility_check, sum_rate_bounds
from .csi_sched import determine_k, exhaustive, gius, lbus
from .errors import ConfigError, EnumerationBudgetError, NumericError, ParameterError
from .harness import ExperimentConfig, emit, run_experiment, trial_rng
from .outage import monte_carlo_outage, phase1_outage, phase2_outage
from .rate_core import sic_chains_close, sinr_threshold

# subcommand -> (scenario, bundled config in configs/ run without --config)
_SUBCOMMANDS = {
    "csi-sumrate": ("csi_sumrate", "csi_sumrate"),
    "csi-complexity": ("csi_complexity", "csi_complexity"),
    "csi-stability": ("csi_stability", "csi_stability"),
    "cdi-converge": ("cdi_convergence", "cdi_convergence"),
    "cdi-outage": ("cdi_outage", "cdi_outage_k2"),
    "cdi-complexity": ("cdi_complexity", "cdi_complexity"),
}

_HEAVY_SHADOW = {"omega": 8.97e-4, "b0": 0.063, "m_s": 0.739}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="satsched",
        description="Scheduling experiments for an uplink satellite-terrestrial relay",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in list(_SUBCOMMANDS) + ["validate"]:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file; defaults to the bundled one")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="override the config output path")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--trials", type=int, help="override the config trial count")
    return parser


def _load_config(args, scenario: str, bundled: str) -> ExperimentConfig:
    path = args.config or Path(__file__).with_name("configs") / f"{bundled}.json"
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    if not args.config:
        del raw["output_path"]  # the bundled defaults print to stdout
    elif raw.get("scenario") != scenario:
        raise ConfigError(
            f"config scenario {raw.get('scenario')!r} does not match subcommand "
            f"({scenario})"
        )
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.trials is not None:
        raw["trials"] = args.trials
    if args.out is not None:
        raw["output_path"] = args.out
    return ExperimentConfig.from_dict(raw)


def _check(name: str, ok: bool, detail: str, results: list) -> None:
    results.append(ok)
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def run_validation(seed: int = 0) -> bool:
    """Fast self-checks across the numerical core.  True when all pass."""
    results: list = []
    rng = trial_rng(seed, 99, 0, 0)

    # closed-form chain outage vs Monte-Carlo, ideal satellite
    lam = np.array([0.1, 0.1])
    cf = phase1_outage(lam, 1.0)
    mc = monte_carlo_outage(lam, None, 1.0, 100_000, rng)
    gap = abs(mc.total - cf)
    _check("phase1 closed form vs monte carlo", gap <= 3.0 * mc.mc_stats.std_error,
           f"|{mc.total:.5f} - {cf:.5f}| within 3 binomial SE", results)

    # satellite outage series vs quadrature of the density
    from scipy.integrate import quad

    sr = SrParams(tx_power=1000.0, **_HEAVY_SHADOW)
    series = phase2_outage(sr, 3, 0.5)
    threshold = math.pow(2.0, 3 * 0.5) - 1.0
    quad_val, quad_err = quad(lambda s: sr_snr_pdf(sr, s), 0.0, threshold, limit=200)
    _check("phase2 series vs quadrature", abs(series - quad_val) <= 1e-8 + 10 * quad_err,
           f"series {series:.10f} vs quad {quad_val:.10f}", results)

    # sampler distribution: satellite SNR sample vs numeric CDF
    sample = sample_sr_snr(sr, 20_000, rng)
    hi = float(np.quantile(sample, 0.999)) * 3.0
    grid = np.linspace(0.0, hi, 4001)
    pdf = sr_snr_pdf(sr, grid)
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) * 0.5 * np.diff(grid))])
    ecdf_x = np.sort(sample)
    theo = np.interp(ecdf_x, grid, cdf)
    ks = float(np.max(np.abs(np.arange(1, sample.size + 1) / sample.size - theo)))
    _check("satellite SNR sampler vs numeric CDF", ks < 0.015, f"KS={ks:.4f}", results)

    # terrestrial SNR sampler mean
    link = RayleighLink(sigma_sq=5.0, tx_power=1.0)
    snrs = sample_rayleigh_snr(link, 200_000, rng)
    rel = abs(float(snrs.mean()) - link.mean_snr) / link.mean_snr
    _check("terrestrial SNR sampler mean", rel < 0.02, f"relative gap {rel:.4f}", results)

    # bound sandwich and scheduler dominance on random instances
    sandwich_ok = True
    dominance_ok = True
    for t in range(100):
        rng_i = trial_rng(seed, 99, 1, t)
        csi = CsiRealization(rng_i.exponential(10.0, size=10), harness.UNCONSTRAINED_SAT_SNR)
        r = (0.6, 0.9, 1.2)[t % 3]
        k = determine_k(csi, r)
        if k == 0:
            continue
        b = sum_rate_bounds(csi, k, r)
        best = exhaustive(csi, k, r).rate_report.sum_rate
        g = gius(csi, k, r).rate_report.sum_rate
        l = lbus(csi, k, r).rate_report.sum_rate
        tol = 1e-9
        sandwich_ok &= b.lb_rate <= best + tol and best <= b.ub_rate + tol
        # the greedy pick is slot-wise, not sum-optimal, so it can trail the
        # economy route on adversarial draws; enumeration dominates both
        dominance_ok &= g <= best + tol and l <= best + tol and min(g, l) >= 0.0
    _check("sum-rate bound sandwich", sandwich_ok, "lb <= exhaustive <= ub on 100 instances",
           results)
    _check("scheduler dominance", dominance_ok,
           "gius <= exhaustive and lbus <= exhaustive on 100 instances", results)

    # feasibility test vs brute force on small instances
    agree = True
    for t in range(60):
        rng_i = trial_rng(seed, 99, 2, t)
        n = int(rng_i.integers(2, 8))
        snrs = rng_i.exponential(10.0, size=n)
        k = int(rng_i.integers(1, min(n, 4) + 1))
        gamma_t = sinr_threshold(float(rng_i.uniform(0.3, 1.5)))
        # every k-subset in descending decode order, one row each
        combos = np.array(list(itertools.combinations(np.sort(snrs)[::-1], k)))
        brute = bool(sic_chains_close(combos.T[::-1], gamma_t)[0].any())
        agree &= feasibility_check(snrs, k, gamma_t) == brute
    _check("feasibility vs brute force", agree, "agreement on 60 small instances", results)

    # group selection: relaxation benchmark lower-bounds enumeration
    bench_ok = True
    close_ok = True
    for t in range(30):
        rng_i = trial_rng(seed, 99, 3, t)
        lam_g = 1.0 / (2.0 * np.power(10.0, rng_i.uniform(-1.0, 2.0, size=10) / 10.0))
        gamma_t = sinr_threshold(0.1)
        from .outage import GroupCdi

        cdi = GroupCdi(lam_g)
        ex = exhaustive_groups(cdi, 2, gamma_t)
        bench = solve_theorem3(float(lam_g.min()), 2, gamma_t).benchmark_outage
        ao = aoius(cdi, 2, gamma_t, rng=rng_i)
        bench_ok &= bench <= ex.outage + 1e-12
        close_ok &= ao.outage <= ex.outage * (1.0 + 1e-9) + 1e-15
    _check("relaxation benchmark vs enumeration", bench_ok,
           "benchmark <= exhaustive on 30 draws", results)
    _check("alternating selection vs enumeration", close_ok,
           "aoius matches enumeration for pairs on 30 draws", results)

    return all(results)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "validate":
            ok = run_validation(args.seed if args.seed is not None else 0)
            if not ok:
                print("validation FAILED", file=sys.stderr)
                return 3
            print("all validation checks passed")
            return 0
        config = _load_config(args, *_SUBCOMMANDS[args.command])
        rows = run_experiment(config)
        text = emit(rows, args.format, config.output_path)
        if config.output_path:
            print(f"wrote {len(rows)} rows to {config.output_path}")
        else:
            sys.stdout.write(text)
        return 0
    except (ConfigError, ParameterError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, EnumerationBudgetError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
