"""Acceptance gate: one test per release criterion.

Each test asserts its criterion outright and prints a single [PASS] line
with the measured margins (visible with -s or -rP); a failure message
carries the matching [FAIL] line.  Instance sets shared between criteria
are cached so the schedule-feasibility audit inspects exactly the
schedules the sandwich and near-optimality checks produced.
"""

import dataclasses
import difflib
import hashlib
import itertools
import json
import math
import time
from functools import lru_cache
from pathlib import Path
from statistics import median

import numpy as np

import oracles
from satsched.channel import CsiRealization, RayleighLink, SrParams, \
    sample_rayleigh_snr, sample_sr_snr
from satsched.cdi_sched import aoius, exhaustive_groups, solve_theorem3
from satsched.csi_bounds import feasibility_check, sum_rate_bounds
from satsched.csi_sched import determine_k, exhaustive, gius, lbus
from satsched.harness import UNCONSTRAINED_SAT_SNR, ExperimentConfig, emit, \
    run_experiment, trial_rng
from satsched.outage import GroupCdi, monte_carlo_outage, phase1_outage, \
    phase2_outage, total_outage
from satsched.rate_core import sinr_threshold

HEAVY = dict(omega=8.97e-4, b0=0.063, m_s=0.739)
GAMMA_R002 = float(2.0 ** 0.02 - 1.0)
CONFIG_DIR = Path(__file__).resolve().parent.parent / "src" / "satsched" / "configs"
# each bundled config's csv with wall_time_ns zeroed and its SHA-256; rewrite
# both only together with a change that is meant to alter that table
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _verdict(ok: bool, line: str) -> None:
    assert ok, "[FAIL] " + line
    print("[PASS] " + line)


def _draw_rates(rng, size):
    # user SNR averages spread over 30 dB, converted to exponential rates
    return 1.0 / (2.0 * 10.0 ** (rng.uniform(-10.0, 20.0, size=size) / 10.0))


def _draw_group_rates(rng, size):
    # group SNR averages uniform on linear (0, 100]: a 20 dB cap with the
    # mass on strong groups, the regime the group-selection claims target
    return 1.0 / (2.0 * 100.0 * (1.0 - rng.random(size)))


def test_criterion_01_phase1_closed_form():
    hand = 1.0 - 0.5 * math.exp(-0.3)
    hand_diff = abs(phase1_outage([0.1, 0.1], 1.0) - hand)
    rng = trial_rng(90_001)
    worst = 0.0
    for _ in range(50):
        k = int(rng.integers(2, 6))
        lam = np.sort(_draw_rates(rng, k))
        gamma_t = float(2.0 ** rng.uniform(0.1, 1.0) - 1.0)
        want = oracles.phase1_outage_quad(lam, gamma_t)
        worst = max(worst, abs(phase1_outage(lam, gamma_t) - want))
    _verdict(
        hand_diff <= 1e-12 and worst <= 1e-8,
        f"criterion 01 (phase-1 closed form): two-user hand value off by "
        f"{hand_diff:.2e} (tol 1e-12); worst gap to nested quadrature "
        f"{worst:.2e} over 50 draws, K in 2..5 (tol 1e-8)",
    )


def test_criterion_02_phase2_series():
    worst_rel = 0.0
    ok = True
    for tx_power in (10.0, 100.0, 1000.0, 10_000.0):
        sr = SrParams(tx_power=tx_power, **HEAVY)
        for k_users in range(1, 11):
            for r_target in (0.02, 0.1, 1.0):
                got = phase2_outage(sr, k_users, r_target)
                want = oracles.phase2_outage_quad(
                    HEAVY["omega"], HEAVY["b0"], HEAVY["m_s"],
                    tx_power, k_users, r_target)
                ok &= math.isclose(got, want, rel_tol=1e-8, abs_tol=1e-8)
                if want > 0.0:
                    worst_rel = max(worst_rel, abs(got - want) / want)
    _verdict(
        ok,
        f"criterion 02 (phase-2 series): matches density quadrature on all "
        f"120 parameter combinations, worst relative gap {worst_rel:.2e} "
        f"(tol 1e-8)",
    )


def test_criterion_03_monte_carlo_consistency():
    draw = trial_rng(90_003)
    worst_z = 0.0
    for i in range(50):
        while True:
            k = int(draw.integers(1, 6))
            lam = np.sort(_draw_rates(draw, k))
            r_target = float(draw.uniform(0.05, 0.8))
            tx_power = float(draw.choice([10.0, 100.0, 1000.0]))
            sr = SrParams(tx_power=tx_power, **HEAVY)
            want = total_outage(phase1_outage(lam, sinr_threshold(r_target)),
                                phase2_outage(sr, k, r_target))
            # keep the binomial normal approximation honest at 1e5 trials
            if 0.01 <= want <= 0.95:
                break
        got = monte_carlo_outage(lam, sr, r_target, 100_000,
                                 trial_rng(90_013, i)).total
        se = math.sqrt(want * (1.0 - want) / 100_000)
        worst_z = max(worst_z, abs(got - want) / se)
    _verdict(
        worst_z <= 3.0,
        f"criterion 03 (Monte-Carlo consistency): 50 instances at 1e5 "
        f"trials, worst deviation {worst_z:.2f} binomial standard errors "
        f"(tol 3)",
    )


@lru_cache(maxsize=1)
def _sandwich_results():
    rng = trial_rng(90_004)
    rows = []
    for _ in range(1000):
        csi = CsiRealization(user_snrs=rng.exponential(10.0, size=10),
                             sat_snr=UNCONSTRAINED_SAT_SNR)
        k = int(rng.integers(1, 5))
        r_target = float(rng.choice([0.5, 1.0, 1.5]))
        rows.append((csi, k, r_target, sum_rate_bounds(csi, k, r_target),
                     exhaustive(csi, k, r_target)))
    return rows


def test_criterion_04_sum_rate_sandwich():
    violations = 0
    for _, _, _, bounds, best in _sandwich_results():
        got = best.rate_report.sum_rate
        if not (bounds.lb_rate <= got + 1e-9 and got <= bounds.ub_rate + 1e-9):
            violations += 1
    rng = trial_rng(90_014)
    disagreements = 0
    for _ in range(400):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, n + 1))
        snrs = rng.exponential(10.0, size=n)
        gamma_t = float(2.0 ** rng.choice([0.5, 1.0, 1.5]) - 1.0)
        if feasibility_check(snrs, k, gamma_t) != \
                oracles.brute_force_feasible(snrs, k, gamma_t):
            disagreements += 1
    _verdict(
        violations == 0 and disagreements == 0,
        f"criterion 04 (sum-rate sandwich): {violations} bound violations "
        f"on 1000 instances; feasibility disagrees with brute force on "
        f"{disagreements} of 400 small instances",
    )


@lru_cache(maxsize=1)
def _near_optimality_results():
    runs = {}
    for r_target in (0.6, 0.9, 1.2):
        rng = trial_rng(90_005, round(r_target * 10))
        rows = []
        for _ in range(1000):
            csi = CsiRealization(user_snrs=rng.exponential(10.0, size=10),
                                 sat_snr=UNCONSTRAINED_SAT_SNR)
            k = determine_k(csi, r_target)
            rows.append((csi, k, r_target, gius(csi, k, r_target),
                         lbus(csi, k, r_target), exhaustive(csi, k, r_target)))
        runs[r_target] = rows
    return runs


def test_criterion_05_greedy_near_optimality():
    worst_ratio = 1.0
    dominance_bad = 0
    means_ordered = True
    for r_target, rows in _near_optimality_results().items():
        g = np.array([o.rate_report.sum_rate for _, _, _, o, _, _ in rows])
        l = np.array([o.rate_report.sum_rate for _, _, _, _, o, _ in rows])
        e = np.array([o.rate_report.sum_rate for _, _, _, _, _, o in rows])
        dominance_bad += int(np.sum((g > e + 1e-9) | (l > e + 1e-9)
                                    | (g < 0.0) | (l < 0.0)))
        worst_ratio = min(worst_ratio, float(g.mean() / e.mean()))
        # the greedy pick is slot-wise, not sum-optimal, so the economy
        # route can win individual draws; the mean ordering is what holds
        means_ordered &= g.mean() >= l.mean() >= 0.0
    _verdict(
        worst_ratio >= 0.97 and dominance_bad == 0 and means_ordered,
        f"criterion 05 (greedy near-optimality): mean greedy/enumeration "
        f"ratio >= {worst_ratio:.5f} on every rate target (tol 0.97); "
        f"enumeration dominates both heuristics on all 3000 instances; "
        f"mean greedy >= mean economy >= 0",
    )


def test_criterion_06_schedule_feasibility():
    audited = 0
    violations = 0
    emitted = [(csi, r, best)
               for csi, _, r, _, best in _sandwich_results()]
    for _, rows in _near_optimality_results().items():
        emitted.extend((csi, r, o)
                       for csi, _, r, g, l, e in rows for o in (g, l, e))
    for csi, r_target, outcome in emitted:
        sch = outcome.schedule
        if sch is None:
            continue  # infeasibility is a value, nothing is emitted
        audited += 1
        gamma_t = math.expm1(r_target * math.log(2.0))
        floor = gamma_t * (1.0 - 1e-9)
        relay = oracles.chain_sinrs(csi.user_snrs[list(sch.users)])
        sat = oracles.chain_sinrs(sch.alphas, 1.0 / csi.sat_snr)
        if min(relay) < floor or min(sat) < floor:
            violations += 1
        elif 2.0 ** (sch.n_users * r_target) - 1.0 > csi.sat_snr:
            violations += 1
    _verdict(
        violations == 0 and audited > 3000,
        f"criterion 06 (schedule feasibility): {audited} emitted schedules "
        f"audited, {violations} violate the per-slot SINR thresholds or "
        f"exceed what the satellite hop carries",
    )


def test_criterion_07_alternating_convergence():
    worst_ratio = 1.0
    monotone = True
    bounded = True
    for run in range(25):
        rng = trial_rng(90_007, run)
        # dB-uniform pool: at this desk-scale M the linear law leaves the
        # weak-group tail too sparse for the discrete ladder to track the
        # continuous benchmark, which would measure sampling, not convergence
        lam = np.sort(_draw_rates(rng, 500))
        cdi = GroupCdi(lambdas=lam)
        for k in (5, 10, 15):
            bench = solve_theorem3(float(lam[0]), k, GAMMA_R002)
            got = aoius(cdi, k, GAMMA_R002, rng=trial_rng(90_107, run, k))
            trace = got.trace
            monotone &= all(trace[i + 1] <= trace[i] + 1e-15
                            for i in range(len(trace) - 1))
            bounded &= got.outage >= bench.benchmark_outage - 1e-12
            worst_ratio = max(worst_ratio,
                              got.outage / bench.benchmark_outage)
    _verdict(
        monotone and bounded and worst_ratio <= 1.05,
        f"criterion 07 (alternating-selection convergence): traces monotone "
        f"on all 25 runs x 3 group counts; final outage within "
        f"{(worst_ratio - 1.0) * 100:.2f}% of the continuous benchmark "
        f"(tol 5%), never below it",
    )


def test_criterion_08_alternating_vs_exhaustive_groups():
    ok = True
    detail = []
    for k in (2, 3):
        within = 0
        bench_ok = True
        for i in range(200):
            rng = trial_rng(90_008, k, i)
            lam = np.sort(_draw_group_rates(rng, 10))
            cdi = GroupCdi(lambdas=lam)
            best = exhaustive_groups(cdi, k, GAMMA_R002)
            got = aoius(cdi, k, GAMMA_R002, rng=trial_rng(90_018, k, i))
            if got.outage <= best.outage * 1.01 + 1e-15:
                within += 1
            bench = solve_theorem3(float(lam[0]), k, GAMMA_R002)
            bench_ok &= bench.benchmark_outage <= best.outage + 1e-12
        ok &= within >= 190 and bench_ok
        detail.append(f"K={k}: {within}/200 within 1%")
    _verdict(
        ok,
        f"criterion 08 (alternating vs exhaustive groups): "
        f"{'; '.join(detail)} (tol 95%); continuous benchmark never above "
        f"the enumerated optimum",
    )


def test_criterion_09_complexity_ordering():
    trio = ((lbus, "lbus"), (gius, "gius"), (exhaustive, "exhaustive"))
    rng = trial_rng(90_009)
    ok = True
    detail = []
    for k in (3, 4, 5, 6):
        clocks = {name: [] for _, name in trio}
        for i in range(100):
            csi = CsiRealization(user_snrs=rng.exponential(10.0, size=20),
                                 sat_snr=UNCONSTRAINED_SAT_SNR)
            rot = i % 3  # rotate call order so cache warmth cancels out
            for fn, name in trio[rot:] + trio[:rot]:
                t0 = time.perf_counter_ns()
                fn(csi, k, 0.3)
                clocks[name].append(time.perf_counter_ns() - t0)
        low = median(clocks["lbus"])
        mid = median(clocks["gius"])
        high = median(clocks["exhaustive"])
        ok &= low < mid < high
        detail.append(f"K={k}: {low / 1e3:.0f}/{mid / 1e3:.0f}/"
                      f"{high / 1e3:.0f}us")
    cdi_detail = []
    for k in (3, 4, 5):
        clocks = {"aoius": [], "exhaustive": []}
        for i in range(100):
            lam = np.sort(_draw_group_rates(trial_rng(90_019, k, i), 12))
            cdi = GroupCdi(lambdas=lam)
            init = trial_rng(90_119, k, i)
            calls = [("aoius", lambda: aoius(cdi, k, GAMMA_R002, rng=init)),
                     ("exhaustive", lambda: exhaustive_groups(cdi, k,
                                                              GAMMA_R002))]
            for name, call in (calls if i % 2 == 0 else calls[::-1]):
                t0 = time.perf_counter_ns()
                call()
                clocks[name].append(time.perf_counter_ns() - t0)
        low, high = median(clocks["aoius"]), median(clocks["exhaustive"])
        ok &= low < high
        cdi_detail.append(f"K={k}: {low / 1e3:.0f}/{high / 1e3:.0f}us "
                          f"(ratio {low / high:.2f})")
    _verdict(
        ok,
        f"criterion 09 (complexity ordering): economy < greedy < "
        f"enumeration median wall time at N=20 ({', '.join(detail)}); "
        f"alternating < enumerated groups at M=12 "
        f"({', '.join(cdi_detail)})",
    )


def test_criterion_10_channel_fidelity():
    sr = SrParams(tx_power=1.0, **HEAVY)
    samples = sample_sr_snr(sr, 100_000, trial_rng(90_010))
    grid, cdf = oracles.sr_cdf_grid(HEAVY["omega"], HEAVY["b0"],
                                    HEAVY["m_s"], 1.0,
                                    float(samples.max()) * 1.000001)
    ks = oracles.ks_statistic(samples, lambda x: np.interp(x, grid, cdf))
    link = RayleighLink(sigma_sq=5.0, tx_power=1.0)
    snrs = sample_rayleigh_snr(link, 1_000_000, trial_rng(90_020))
    mean_err = abs(float(snrs.mean()) * link.snr_rate - 1.0)
    _verdict(
        ks < 0.01 and mean_err < 0.02,
        f"criterion 10 (channel fidelity): satellite sampler KS statistic "
        f"{ks:.4f} at 1e5 samples (tol 0.01); terrestrial sampler mean off "
        f"by {mean_err * 100:.3f}% at 1e6 samples (tol 2%)",
    )


def test_criterion_11_determinism():
    def stripped(rows, fmt):
        rows = [dataclasses.replace(r, wall_time_ns=0) for r in rows]
        return emit(rows, fmt)

    ok = True
    names = []
    moved = []
    for path in sorted(CONFIG_DIR.glob("*.json")):
        config = ExperimentConfig.from_dict(json.loads(path.read_text()))
        first = run_experiment(config)
        second = run_experiment(config)
        for fmt in ("csv", "json"):
            ok &= stripped(first, fmt) == stripped(second, fmt)
        csv_text = stripped(first, "csv")
        digest = hashlib.sha256(csv_text.encode()).hexdigest()
        if digest != (GOLDEN_DIR / f"{path.stem}.sha256").read_text().strip():
            moved.append(path.stem)
            # the first rows that differ from the readable golden csv
            golden = GOLDEN_DIR / f"{path.stem}.csv"
            diff = difflib.unified_diff(golden.read_text().splitlines(), csv_text.splitlines(),
                                        str(golden.relative_to(GOLDEN_DIR.parents[1])), "this run",
                                        n=0, lineterm="")
            print("\n".join(itertools.islice(diff, 12)))
        names.append(path.stem)
    _verdict(
        ok and not moved and len(names) == 7,
        f"criterion 11 (determinism): rerunning {len(names)} bundled "
        f"configs gives byte-identical non-timing output in csv and json; "
        f"csv digests differing from tests/golden: {moved or 'none'}",
    )
