"""Scheduler tests: greedy windowed search, economy-seeded selection,
exhaustive enumeration, and the two baselines, pinned to hand traces and
brute-force oracles."""

import dataclasses
import json
import math
import time
import tracemalloc
from collections import Counter
from functools import cache
from pathlib import Path

import numpy as np
import pytest

import oracles
from satsched import csi_sched, errors, harness, rate_core
from satsched import (
    CsiRealization,
    EnumerationBudgetError,
    InternalConsistencyError,
    ParameterError,
    RateReport,
    RayleighLink,
    Schedule,
    awgn_capacity,
    baseline_opportunistic,
    baseline_tdma,
    determine_k,
    exhaustive,
    gius,
    lbus,
    max_supported_users,
    sinr_threshold,
    sum_rate_bounds,
    throughput_power_split,
    trial_rng,
)
from satsched.harness import SCENARIOS, ExperimentConfig

BIG_SAT = float(2**60)


def _chain_ok(outcome, csi, r_target):
    users = np.asarray(outcome.schedule.users, dtype=int)
    snrs = csi.user_snrs[users]
    gamma_t = sinr_threshold(r_target)
    assert np.all(np.diff(snrs) <= 1e-12)  # descending decode order
    return bool(np.all(np.array(oracles.chain_sinrs(snrs)) >= gamma_t * (1 - 1e-12)))


def test_determine_k_hand_values():
    csi = CsiRealization(np.array([10.0, 4.0, 1.5, 0.9]), BIG_SAT)
    assert determine_k(csi, 1.0) == 3
    assert determine_k(CsiRealization(np.array([10.0, 4.0, 1.5, 0.9]), 3.0), 1.0) == 2
    assert determine_k(CsiRealization(np.array([0.5, 0.2]), BIG_SAT), 1.0) == 0
    assert determine_k(CsiRealization(np.array([7.0]), BIG_SAT), 1.0) == 1


def test_determine_k_matches_descending_search():
    rng = np.random.default_rng(2024)
    draws = (
        lambda n: rng.exponential(10.0, size=n),
        lambda n: rng.integers(0, 40, size=n).astype(float),
        lambda n: np.power(10.0, rng.uniform(-3.0, 4.0, size=n)),
        lambda n: np.full(n, float(rng.uniform(0.1, 50.0))),
    )
    for i in range(2000):
        n = int(rng.integers(1, 33))
        csi = CsiRealization(draws[i % 4](n), (BIG_SAT, 100.0, 5.0, 0.5)[i // 4 % 4])
        r = (0.1, 0.3, 0.6, 0.9, 1.2, 1.8)[i % 6]
        assert determine_k(csi, r) == oracles.determine_k_descending(csi, r), (n, i)


def test_gius_hand_trace():
    csi = CsiRealization(np.array([10.0, 4.0, 1.5, 0.9]), BIG_SAT)
    out = gius(csi, 2, 1.0)
    assert out.schedule.users == (0, 1)
    assert out.rate_report.sum_rate == pytest.approx(math.log2(15.0), rel=1e-12)
    assert out.rate_report.meets_target
    assert _chain_ok(out, csi, 1.0)


def test_gius_single_slot_takes_strongest():
    csi = CsiRealization(np.array([2.0, 9.0, 4.0]), BIG_SAT)
    out = gius(csi, 1, 1.0)
    assert out.schedule.users == (1,)
    assert out.rate_report.sum_rate == pytest.approx(math.log2(10.0), rel=1e-12)


def test_lbus_matches_gius_on_hand_instance():
    csi = CsiRealization(np.array([10.0, 4.0, 1.5, 0.9]), BIG_SAT)
    out = lbus(csi, 2, 1.0)
    assert out.schedule.users == (0, 1)
    assert out.rate_report.sum_rate == pytest.approx(math.log2(15.0), rel=1e-12)
    assert lbus(csi, 1, 1.0).schedule.users == (0,)


def test_lbus_can_beat_greedy_on_adversarial_instance():
    # greedy slot-wise argmax is lexicographic, not sum-optimal: taking 6
    # at slot 2 starves the final slot, while the economy route keeps 5+4
    csi = CsiRealization(np.array([10.0, 6.0, 5.0, 4.0, 1.0]), BIG_SAT)
    g = gius(csi, 3, 1.0)
    l = lbus(csi, 3, 1.0)
    e = exhaustive(csi, 3, 1.0)
    assert g.schedule.users == (0, 1, 4)
    assert l.schedule.users == (0, 2, 3)
    assert g.rate_report.sum_rate == pytest.approx(math.log2(18.0), rel=1e-12)
    assert l.rate_report.sum_rate == pytest.approx(math.log2(20.0), rel=1e-12)
    assert e.rate_report.sum_rate == pytest.approx(l.rate_report.sum_rate, rel=1e-12)


def test_exhaustive_matches_brute_force():
    rng = np.random.default_rng(515)
    compared = 0
    for _ in range(150):
        n = int(rng.integers(3, 9))
        csi = CsiRealization(rng.exponential(10.0, size=n), BIG_SAT)
        r = float(rng.choice([0.6, 0.9, 1.2]))
        k = min(3, n)
        best = oracles.brute_force_best_subset(csi.user_snrs, k, sinr_threshold(r))
        out = exhaustive(csi, k, r)
        if best is None:
            assert not out.feasible
            continue
        assert out.feasible
        assert float(np.sum(csi.user_snrs[list(out.schedule.users)])) == \
            pytest.approx(best[1], rel=1e-12)
        compared += 1
    assert compared > 80


def test_exhaustive_dominates_heuristics():
    rng = np.random.default_rng(808)
    for _ in range(200):
        csi = CsiRealization(rng.exponential(10.0, size=8), BIG_SAT)
        r = float(rng.choice([0.6, 0.9, 1.2]))
        k = determine_k(csi, r)
        if k < 1:
            continue
        e = exhaustive(csi, k, r).rate_report.sum_rate
        g = gius(csi, k, r)
        l = lbus(csi, k, r)
        assert g.feasible  # k came from determine_k
        assert e >= g.rate_report.sum_rate - 1e-9
        assert e >= l.rate_report.sum_rate - 1e-9
        assert g.rate_report.sum_rate >= 0.0
        assert l.rate_report.sum_rate >= 0.0


def test_outputs_feasible_and_ordered():
    rng = np.random.default_rng(2718)
    for _ in range(150):
        csi = CsiRealization(rng.exponential(10.0, size=9), BIG_SAT)
        r = 0.9
        k = determine_k(csi, r)
        if k < 1:
            continue
        for scheduler in (gius, lbus, exhaustive):
            out = scheduler(csi, k, r)
            if not out.feasible:
                continue
            assert _chain_ok(out, csi, r)
            assert 2.0 ** (k * r) - 1.0 <= csi.sat_snr  # the satellite hop carries k
            assert all(rate >= r - 1e-9 for rate in out.rate_report.per_user_rates)


def test_schedulers_respect_satellite_cap():
    # satellite hop supports at most 2 users at R=1 when S_DR=3
    csi = CsiRealization(np.array([40.0, 20.0, 9.0]), 3.0)
    assert determine_k(csi, 1.0) == 2
    for scheduler in (gius, lbus, exhaustive):
        out = scheduler(csi, 3, 1.0)
        assert not out.feasible


def test_gius_raises_on_unreachable_k():
    # bypassing determine_k with an infeasible k is a caller bug
    from satsched import InternalConsistencyError

    csi = CsiRealization(np.array([0.5, 0.4, 0.3]), BIG_SAT)
    with pytest.raises(InternalConsistencyError):
        gius(csi, 2, 1.0)


def test_lbus_infeasible_is_a_value():
    csi = CsiRealization(np.array([0.5, 0.4, 0.3]), BIG_SAT)
    out = lbus(csi, 2, 1.0)
    assert not out.feasible
    assert out.rate_report.sum_rate == 0.0


def _equivalence_instances(count, seed, max_tied_users=32):
    """(csi, r_target) pairs cycling through every combination of four SNR
    laws (exponential, small integers with many ties, log-uniform, all
    equal), three satellite SNRs and six rate targets.  N is drawn from
    1-32, and from 1-max_tied_users for the small integers."""
    rng = np.random.default_rng(seed)
    draws = (
        lambda n: rng.exponential(10.0, size=n),
        lambda n: rng.integers(0, 12, size=n).astype(float),
        lambda n: np.power(10.0, rng.uniform(-3.0, 4.0, size=n)),
        lambda n: np.full(n, float(rng.uniform(0.1, 50.0))),
    )
    for i in range(count):
        n = int(rng.integers(1, 33))
        if i % 4 == 1:
            n = min(n, max_tied_users)
        csi = CsiRealization(draws[i % 4](n), (BIG_SAT, 100.0, 5.0)[i // 4 % 3])
        yield csi, (0.1, 0.3, 0.6, 0.9, 1.2, 1.8)[i // 12 % 6]


def _outcome(scheduler, csi, k, r_target):
    """Everything a scheduler reports, or the type of what it raised."""
    try:
        out = scheduler(csi, k, r_target)
    except Exception as exc:  # the type is what is compared
        return type(exc)
    return out.schedule, out.rate_report, out.stats


def test_gius_matches_scan_version():
    # same picks, power split, rate report and work counters as the version
    # that rebuilt every window by scanning all N users.  gius backtracks
    # exponentially when many users share an SNR at a low rate target (over
    # 11 million candidates at N=27 small integers and r=0.3), so the
    # small-integer instances stop at N=14 here
    compared = 0
    for i, (csi, r) in enumerate(_equivalence_instances(480, 77, max_tied_users=14)):
        for k in range(1, determine_k(csi, r) + 1):
            assert _outcome(gius, csi, k, r) == _outcome(oracles.gius_scan, csi, k, r), (i, k)
            compared += 1
    assert compared > 2500


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_gius_matches_scan_version_beyond_determine_k():
    # a k above determine_k exhausts the first slot and raises; SNRs near
    # the float limit make the window bound inf - inf = NaN.  The built
    # instances reach each edge of slot K-1's test against the SNR of Q,
    # the largest free position below last_end, or of Q2, the next free
    # one before it, when the slot K-1 pick is Q.  Slot K-1's walk stops
    # before Q and ends at the first candidate with S/gamma_t - 1 < S_Q;
    # before that, candidates may fail T - S - 1 >= S_Q alone.  The
    # instances after the first six reach the edges of that walk named
    # above each, at the k named there
    rng = np.random.default_rng(78)
    g3, g8 = sinr_threshold(0.3), sinr_threshold(0.8)
    built = [
        # determine_k 1: at k=2 the first candidate is Q with no Q2, and at
        # k=3 slot 1 leaves no free SNR >= gamma_t
        ([5.0, 0.2, 0.1], 0.3),
        # determine_k 2: at k=3 slot 1 backtracks to 7, and slot 2's first
        # candidate is Q=4 with Q2=8 free before its window
        ([8.0, 7.0, 4.0, 0.5], 0.8),
        # ties around Q, and Q at last_end - 1 with its SNR exactly gamma_t
        ([12.0, 12.0, 7.0, g8, g8, 4.0], 0.8),
        ([30.0, 30.0], 1.0),
        ([7.0, g3, 8.0], 0.3),
        ([g3, 30.0], 0.3),
        # k=2: the first candidate closes with S/gamma_t - 1 == S_Q
        ([3.0, 2.0], 1.0),
        # k=2, above determine_k: S/gamma_t - 1 < S_Q ends the walk, with a
        # tie of Q in it
        ([3.0, 3.0], 1.0),
        # k=3: slot 1, whose budget is inf, takes neither Q nor Q2, and slot
        # 2 closes with both tests met with equality
        ([1.0, 4.0, 2.0], 1.0),
        # k=2 and 3: no SNR clears gamma_t, so there is no Q
        ([0.0, 0.0, 0.0], 0.3),
        # k=3, above determine_k: S/gamma_t - 1 < S_Q ends slot 2's walk
        ([0.0, 2.0, 3.0, 2.0], 1.0),
        # k=3, above determine_k: slot 1 takes Q, so Q moves to Q2
        ([0.0, 1.0, 1.0], 0.3),
        # k=2: a tie of Q closes.  k=3, above determine_k: slot 1 takes Q,
        # Q2 and neither in turn, and a walk reaches Q with positions below
        # gamma_t after it in its window
        ([3.0, 0.0, 3.0, 3.0], 0.8),
        # k=4 = determine_k: S/gamma_t - 1 < S_Q ends a walk
        ([1.0, 5.0, 10.0, 1.0, 10.0, 2.0], 0.8),
        # k=4 = determine_k: a candidate fails only the budget test before
        # one closes, and a tie of Q closes.  k=5: slot 3 takes Q2
        ([4.0, 3.0, 4.0, 2.0, 2.0, 0.0], 0.5),
        # k=3: a candidate fails only the budget test before one closes.
        # k=4 = determine_k: a walk reaches Q, and a close meets both tests
        # with equality
        ([2.0, 11.0, 1.0, 8.0, 12.0, 9.0, 0.0], 1.0),
        # k=5 = determine_k: slot 3 takes Q2, and a walk reaches Q
        ([0.0, 2.0, 4.0, 4.0, 2.0, 1.0, 3.0], 0.5),
    ]
    instances = [(CsiRealization(np.full(4, 1e308), BIG_SAT), 0.3),
                 (CsiRealization(np.array([1e308, 9e307, 5e307, 1.0]), BIG_SAT), 0.1)]
    instances += [(CsiRealization(np.array(snrs), BIG_SAT), r) for snrs, r in built]
    instances += [(CsiRealization(rng.integers(0, 6, size=int(rng.integers(1, 9))).astype(float),
                                  (BIG_SAT, 100.0, 5.0)[i % 3]), (0.3, 0.9, 1.8)[i // 3 % 3])
                  for i in range(300)]
    raised = 0
    for csi, r in instances:
        for k in range(1, csi.n_users + 1):
            new = _outcome(gius, csi, k, r)
            assert new == _outcome(oracles.gius_scan, csi, k, r), (csi, r, k)
            raised += new is InternalConsistencyError
    assert raised > 100


# seeds of the draws at r_target 0.3 on which gius's failure cache hits
# and the scan version ends within 50 ms: N=22-27 small integers in [0, 12)
# and N=32 exponential(10) SNRs.  Small-integer seed 69 hit only at slot
# K-1, which has no key since gius settles slots K-1 and K in one pass.
# Recounted with empty and hopeless windows failed at the caller: the subtree
# memo replays on 20 of the 21 small-integer seeds (not 69) and 26 of the
# 28 exponential ones (not 47 or 81, where the suffix memo takes them),
# the suffix memo on 18 (not 117, 155 or 272) and on all 28
_TIED_CACHE_SEEDS = (14, 21, 23, 32, 58, 63, 69, 99, 116, 117, 155, 167, 176, 202,
                     218, 232, 258, 272, 283, 290, 296)
_EXPONENTIAL_CACHE_SEEDS = (1, 2, 17, 19, 22, 40, 41, 45, 47, 51, 56, 57, 62, 63, 71,
                            75, 78, 80, 81, 85, 89, 93, 96, 99, 101, 111, 113, 116)


@cache
def _scan_outcomes_where_the_cache_hits():
    """(csi, r_target, k, scan outcome) at k = determine_k: the first 256
    csi_online decisions, of which 35 replay a failed subtree from the
    exact cache and 65 a failed window suffix (the same counts with
    windows failed at the caller), and the seeded draws above."""
    instances = [(csi, r) for r, csi in oracles.csi_online_frames(256)]
    for seed in _TIED_CACHE_SEEDS:
        rng = np.random.default_rng(seed)
        snrs = rng.integers(0, 12, size=int(rng.integers(22, 28))).astype(float)
        instances.append((CsiRealization(snrs, BIG_SAT), 0.3))
    for seed in _EXPONENTIAL_CACHE_SEEDS:
        snrs = np.random.default_rng(seed).exponential(10.0, size=32)
        instances.append((CsiRealization(snrs, BIG_SAT), 0.3))
    return [(csi, r, k, _outcome(oracles.gius_scan, csi, k, r))
            for csi, r in instances for k in [determine_k(csi, r)]]


@pytest.mark.parametrize("entries", [None, 1, 3])
def test_gius_failure_cache_matches_scan_version(monkeypatch, entries):
    # replayed failures keep the picks, rate report and both counters of
    # the full search, also when the cache is cleared at every store or
    # every third (None keeps the module's value)
    if entries is not None:
        monkeypatch.setattr(csi_sched, "_FAILURE_CACHE_ENTRIES", entries)
    for i, (csi, r, k, expected) in enumerate(_scan_outcomes_where_the_cache_hits()):
        assert _outcome(gius, csi, k, r) == expected, (i, k)


def test_gius_tied_stall_replays_its_failures():
    # 27 small-integer SNRs at r_target 0.3: without the failure cache the
    # search took 2.4 s on a 2-CPU Xeon to reach these picks and counts,
    # with it about 10 ms
    snrs = [1, 8, 6, 9, 5, 5, 1, 1, 0, 11, 4, 3, 10, 2, 5, 10, 1, 6, 5, 2, 3, 9, 10, 9,
            11, 6, 9]
    csi = CsiRealization(np.array(snrs, dtype=float), BIG_SAT)
    assert determine_k(csi, 0.3) == 14
    started = time.perf_counter()
    out = gius(csi, 14, 0.3)
    elapsed = time.perf_counter() - started
    assert out.schedule.users == (9, 3, 1, 2, 4, 10, 11, 20, 13, 19, 0, 6, 7, 16)
    assert out.stats == csi_sched.SchedulerStats(candidates_examined=1_942_187,
                                                 backtracks=1_942_036)
    assert elapsed < 0.5


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_gius_suffix_replay_matches_scan_version():
    # a failed window suffix from p*, the first candidate whose cap
    # S/gamma_t binds its budget, is replayed by (depth, p*): the picks,
    # rate report and both counters stay those of the full search.  The
    # key is refused when an ancestor ties p*'s SNR.  One slot below a pick
    # of the same SNR the cap binds only if S/gamma_t - S rounds back to
    # S/gamma_t, at gamma_t below about 2**-53 or where S/gamma_t
    # overflows, hence the tiny rate targets and the draws near the float
    # limit.  Counted in a scratch copy: the memo hit on 30 of the 128
    # csi_online frames, 148 of the 200 small-integer draws, 161 of the 300
    # at tiny rate targets (the key refused on 144, 94 of them with hits
    # too) and 102 of the 300 near the float limit (refused on 53).  The
    # 1e308 instances make the window bound inf - inf = NaN
    instances = [(csi, r, [determine_k(csi, r)]) for r, csi in oracles.csi_online_frames(128, 1)]
    rng = np.random.default_rng(82)
    for i in range(200):
        csi = CsiRealization(rng.integers(0, 6, size=int(rng.integers(6, 13))).astype(float),
                             BIG_SAT)
        instances.append((csi, (0.3, 0.5, 0.9)[i % 3], range(1, csi.n_users + 1)))
    rng = np.random.default_rng(83)
    for i in range(300):
        csi = CsiRealization(rng.integers(0, 4, size=int(rng.integers(3, 9))).astype(float),
                             BIG_SAT)
        instances.append((csi, (1e-17, 1e-18, 3e-16)[i % 3], range(1, csi.n_users + 1)))
    rng = np.random.default_rng(81)
    near_limit = (1.7e308, 1e308, 5e307, 1e300, 3.0, 2.0, 1.0, 0.5, 0.0)
    draws = [([near_limit[j] for j in rng.integers(0, 9, size=int(rng.integers(3, 10)))],
              (0.3, 0.9, 1.8)[i % 3]) for i in range(300)]
    draws += [([1e308] * 4, 0.3), ([1e308, 9e307, 5e307, 1.0], 0.1)]
    for snrs, r in draws:
        csi = CsiRealization(np.array(snrs), BIG_SAT)
        instances.append((csi, r, range(1, csi.n_users + 1)))
    compared = 0
    for csi, r, ks in instances:
        for k in ks:
            assert _outcome(gius, csi, k, r) == _outcome(oracles.gius_scan, csi, k, r), (csi, r, k)
            compared += 1
    assert compared > 5000


def test_gius_exponential_stall_replays_window_suffixes():
    # the costliest of README's 32 exponential(10) draws at r_target 0.3:
    # the suffix memo keeps the picks and counts of the full search
    csi = CsiRealization(np.random.default_rng(25).exponential(10.0, 32), BIG_SAT)
    assert determine_k(csi, 0.3) == 19
    out = gius(csi, 19, 0.3)
    assert out.schedule.users == (17, 11, 31, 10, 26, 7, 12, 9, 18, 19, 28, 3, 14, 5, 27, 29,
                                  8, 24, 0)
    assert out.stats == csi_sched.SchedulerStats(candidates_examined=11_683_090,
                                                 backtracks=11_682_786)


def test_gius_skipped_windows_match_scan_version():
    # gius counts each window from the taken positions without building
    # it, fails an empty window below a slot 1..K-2 candidate in the parent,
    # finds Q once per slot K-2 walk (again only when the candidate is Q),
    # and fails at the caller a slot K-1 window that starts at or after Q
    # or at or after where a walk under the same Q met a cap below S_Q.
    # The picks, rate report and both counters stay those of the full
    # search.  A window that starts exactly at that end fails the same way
    # in close, which walks an empty range, so > in place of >= there
    # changes no outcome.  Counted in an instrumented copy: over the 64
    # csi_online frames of seed 2 (32 of them with k >= 3) empty windows
    # were failed in the parent on 13 frames, Q moved on 26, a window
    # failed at Q on 32 (on 21 starting exactly at Q) and at a learned cap
    # on 19, and a search window began at or before its own candidate on
    # 18.  Over the 1,085 (draw, k) pairs of the small-integer draws: 409,
    # 179, 209 (71), 13 and 444, and on 218 the window count skipped a
    # taken position of an ancestor
    instances = [(csi, r, [determine_k(csi, r)]) for r, csi in oracles.csi_online_frames(64, 2)]
    rng = np.random.default_rng(84)
    for i in range(150):
        csi = CsiRealization(rng.integers(0, 6, size=int(rng.integers(4, 11))).astype(float),
                             BIG_SAT)
        instances.append((csi, (0.3, 0.5, 0.9)[i % 3], range(1, csi.n_users + 1)))
    compared = 0
    for csi, r, ks in instances:
        for k in ks:
            assert _outcome(gius, csi, k, r) == _outcome(oracles.gius_scan, csi, k, r), (csi, r, k)
            compared += 1
    assert compared == 1149


def test_lbus_matches_two_sort_version():
    # same picks, power split, rate report and candidate count as the
    # version with a descending argsort and two more sorts; k one above
    # determine_k covers the infeasible outcome
    compared = 0
    for i, (csi, r) in enumerate(_equivalence_instances(1500, 79)):
        for k in range(1, min(determine_k(csi, r) + 1, csi.n_users) + 1):
            assert _outcome(lbus, csi, k, r) == _outcome(oracles.lbus_two_sorts, csi, k, r), (i, k)
            compared += 1
    assert compared > 8000


def _closes_by_threshold(snrs_in_order, gamma_t):
    # the threshold rule every CSI path shares, the tail summed last slot first
    tail = 0.0
    for s in reversed(snrs_in_order):
        if not s >= gamma_t * (tail + 1.0):
            return False
        tail += s
    return True


def test_schedulers_close_exact_threshold_lattices():
    # at every k <= determine_k, lbus and exhaustive each find a chain that
    # passes the threshold rule, lbus keeps its two-sort version's outcome,
    # and the bounds report feasible and sandwich the optimum.  At ties the
    # bounds and the optimum sum in different orders, so they may lie 1 ulp
    # apart.  On SNRs [gamma_t, gamma_t*(gamma_t+1)] at r_target 0.5, lbus's
    # final-slot window once ended below the economy's own final pick
    pairs = 0
    for snrs, r in oracles.threshold_lattice(1000):
        csi = CsiRealization(np.array(snrs), BIG_SAT)
        gamma_t = sinr_threshold(r)
        for k in range(1, determine_k(csi, r) + 1):
            picked = _outcome(lbus, csi, k, r)
            assert picked == _outcome(oracles.lbus_two_sorts, csi, k, r), (snrs, r, k)
            best = exhaustive(csi, k, r)
            for schedule in (picked[0], best.schedule):
                assert schedule is not None, (snrs, r, k)
                assert _closes_by_threshold([snrs[u] for u in schedule.users], gamma_t)
            bounds = sum_rate_bounds(csi, k, r)
            optimum = best.rate_report.sum_rate
            assert bounds.feasible
            assert bounds.lb_rate <= optimum * (1.0 + 1e-9)
            assert optimum <= bounds.ub_rate * (1.0 + 1e-9)
            pairs += 1
    assert pairs > 2400


@pytest.mark.xfail(raises=InternalConsistencyError, strict=True,
                   reason="gius tests each slot in a budget form that rounds apart "
                          "from the threshold rule")
def test_gius_closes_an_exact_threshold_tie():
    # slot 2's threshold gamma_t * (tail + 1.0) is exactly 1.0, which SNR
    # 1.0 clears; lbus and exhaustive both pick every user
    csi = CsiRealization(np.array([0.5857864376269051, 0.8284271247461903, 1.0, 3.0]),
                         BIG_SAT)
    assert determine_k(csi, 0.5) == 4
    assert exhaustive(csi, 4, 0.5).schedule.users == (3, 2, 1, 0)
    assert gius(csi, 4, 0.5).schedule.users == (3, 2, 1, 0)


def test_exhaustive_budget_guard(monkeypatch):
    csi = CsiRealization(np.ones(30) * 10.0, BIG_SAT)
    with pytest.raises(EnumerationBudgetError):
        exhaustive(csi, 15, 0.1)
    # the budget is inclusive: comb(30, 3) = 4060 subsets
    monkeypatch.setattr(errors, "_MAX_SUBSETS", 4060)
    assert exhaustive(csi, 3, 0.1).feasible
    monkeypatch.setattr(errors, "_MAX_SUBSETS", 4059)
    with pytest.raises(EnumerationBudgetError):
        exhaustive(csi, 3, 0.1)


def test_exhaustive_single_subset():
    csi = CsiRealization(np.array([5.0, 3.0]), BIG_SAT)
    out = exhaustive(csi, 2, 0.5)
    assert out.schedule.users == (0, 1)
    assert out.stats.candidates_examined == 1


def test_exhaustive_matches_itertools_reference():
    # equal SNR sums: the first subset in enumeration order wins
    tie = CsiRealization(np.array([8.0, 3.0, 3.0, 3.0]), BIG_SAT)
    assert exhaustive(tie, 2, 1.0).schedule.users == (0, 1) == \
        oracles.exhaustive_itertools(tie.user_snrs, BIG_SAT, 2, 1.0)
    rng = np.random.default_rng(2210)
    instances = [(CsiRealization(rng.exponential(10.0, size=n), sat_snr),
                  float(rng.choice([0.6, 0.9, 1.2])))
                 for n in range(1, 21) for sat_snr in (BIG_SAT, 100.0)]
    # small-integer SNRs: many chains tie on their sum
    rng = np.random.default_rng(2211)
    for i in range(60):
        csi = CsiRealization(rng.integers(0, 8, size=int(rng.integers(1, 13))).astype(float),
                             (BIG_SAT, 100.0)[i % 2])
        instances += [(csi, 0.1), (csi, 0.6)]
    # slot K-1's level at its boundary: an SNR exactly at the threshold is
    # admitted, as is one exactly at the next slot's g * (g + 1); zeros of
    # either sign clear nothing
    for r in (0.6, 1.0, 1.8):
        g = sinr_threshold(r)
        edge = CsiRealization(np.array([g * (g + 1.0), g]), BIG_SAT)
        assert exhaustive(edge, 2, r).schedule.users == (0, 1)
        for snrs in ([g], [g, 0.0, -0.0], [-0.0, g, 0.0], [0.0, -0.0, 0.0],
                     [g * (g + 1.0), g, g, 0.0, -0.0, 4.0], [-0.0, g, 2.5 * g, g, 0.0]):
            instances += [(CsiRealization(np.array(snrs), sat), r) for sat in (BIG_SAT, 100.0)]
    compared = 0
    for csi, r in instances:
        n = csi.n_users
        for k in sorted({1, n, *range(1, determine_k(csi, r) + 1), *range(1, min(n, 5) + 1)}):
            want = oracles.exhaustive_itertools(csi.user_snrs, csi.sat_snr, k, r)
            out = exhaustive(csi, k, r)
            assert out.stats.candidates_examined == math.comb(n, k)
            if want is None:
                assert not out.feasible, (csi, k, r)
            else:
                assert out.schedule.users == want, (csi, k, r)
                compared += 1
    assert compared > 300


def test_exhaustive_batches_keep_the_first_best():
    # with many equal SNRs the best sum is reached by many chains, and the
    # first subset in enumeration order must still win: 20 equal SNRs make
    # comb(20, 6) = 38760 equal sums
    same = CsiRealization(np.full(20, 50.0), BIG_SAT)
    assert exhaustive(same, 6, 0.1).schedule.users == (0, 1, 2, 3, 4, 5)


@pytest.mark.parametrize("n", [300, 600])
def test_exhaustive_leaves_one_user_out(n):
    # k = n - 1: n subsets, each as long as the instance.  Near the rate
    # where no subset closes, the user left out is no longer the weakest:
    # at n = 300, r = 0.017217 it is user 18
    rng = np.random.default_rng(n)
    csi = CsiRealization(rng.exponential(10.0, size=n), BIG_SAT)
    for r in (1e-5, 1e-4, 0.0172165, 0.017217, 0.01, 0.02):
        want = oracles.exhaustive_itertools(csi.user_snrs, BIG_SAT, n - 1, r)
        out = exhaustive(csi, n - 1, r)
        assert out.stats.candidates_examined == n
        assert (out.schedule.users if out.feasible else None) == want, r


def test_exhaustive_budget_checked_before_any_table(monkeypatch):
    with pytest.raises(EnumerationBudgetError):
        exhaustive(CsiRealization(np.ones(30) * 10.0, BIG_SAT), 15, 0.1)
    monkeypatch.setattr(errors, "_MAX_SUBSETS", 10)
    with pytest.raises(EnumerationBudgetError):
        exhaustive(CsiRealization(np.ones(12) * 10.0, BIG_SAT), 6, 0.1)


def test_exhaustive_holds_no_memory_after_a_call():
    # N = 22: no other test calls exhaustive at this size, so nothing an
    # earlier call kept for it can hide what this call keeps
    csi = CsiRealization(np.random.default_rng(2212).exponential(10.0, size=22), BIG_SAT)
    tracemalloc.start()
    try:
        assert exhaustive(csi, 10, 0.3) is not None
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 64 * 2**10, held


def test_exhaustive_peak_memory_when_every_chain_closes():
    # 24 SNRs in [1, 10] at r = 0.001: all comb(24, 10) = 1961256 chains
    # close, just inside the enumeration budget
    csi = CsiRealization(np.linspace(1.0, 10.0, 24), BIG_SAT)
    tracemalloc.start()
    try:
        out = exhaustive(csi, 10, 0.001)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.stats.candidates_examined == math.comb(24, 10)
    assert out.schedule.users == tuple(range(23, 13, -1))
    assert peak < 128 * 2**20, peak


def test_parameter_validation():
    csi = CsiRealization(np.array([5.0, 3.0]), BIG_SAT)
    for scheduler in (gius, lbus, exhaustive):
        with pytest.raises(ParameterError):
            scheduler(csi, 0, 1.0)
        with pytest.raises(ParameterError):
            scheduler(csi, 3, 1.0)
        with pytest.raises(ParameterError):
            scheduler(csi, 2, 0.0)
    # r_target = 0 leaves no positive SINR threshold to schedule against
    for call in (lambda: determine_k(csi, 0.0), lambda: throughput_power_split([5.0, 3.0], 0.0, BIG_SAT),
                 lambda: sum_rate_bounds(csi, 2, 0.0)):
        with pytest.raises(ParameterError):
            call()


def test_tdma_equal_users():
    csi = CsiRealization(np.array([3.0, 3.0]), BIG_SAT)
    out = baseline_tdma(csi, 2, 0.5)
    assert out.rate_report.sum_rate == pytest.approx(2.0, rel=1e-12)
    assert out.rate_report.per_user_rates == pytest.approx((1.0, 1.0), rel=1e-12)
    assert out.rate_report.meets_target


def test_tdma_drops_weak_users():
    csi = CsiRealization(np.array([10.0, 0.5]), BIG_SAT)
    out = baseline_tdma(csi, 2, 1.0)
    # half a slot of C(0.5) misses the target, so only the strong user stays
    assert out.schedule.users == (0,)
    assert out.rate_report.sum_rate == pytest.approx(math.log2(11.0), rel=1e-12)
    all_weak = baseline_tdma(CsiRealization(np.array([0.3, 0.2]), BIG_SAT), 2, 1.0)
    assert not all_weak.feasible


def test_tdma_sums_its_rates_left_to_right():
    # the goldens pin left-to-right addition, builtin sum() up to Python
    # 3.11; from 3.12 on sum() compensates and gives 3.890560606055268 here
    csi = CsiRealization(np.array([5.0, 47.0, 20.0, 7.0]), BIG_SAT)
    out = baseline_tdma(csi, 4, 0.5)
    assert out.schedule.users == (1, 2, 3, 0)
    assert repr(out.rate_report.sum_rate) == "3.8905606060552684"


def test_tdma_single_slot_equals_opportunistic():
    csi = CsiRealization(np.array([10.0, 4.0]), BIG_SAT)
    t = baseline_tdma(csi, 1, 1.0)
    o = baseline_opportunistic(csi, 1.0)
    assert t.schedule.users == o.schedule.users
    assert t.rate_report.sum_rate == pytest.approx(o.rate_report.sum_rate, rel=1e-12)


def test_opportunistic_values():
    csi = CsiRealization(np.array([10.0, 4.0]), BIG_SAT)
    out = baseline_opportunistic(csi, 1.0)
    assert out.schedule.users == (0,)
    assert out.rate_report.sum_rate == pytest.approx(math.log2(11.0), rel=1e-12)
    # satellite-limited rate
    capped = baseline_opportunistic(CsiRealization(np.array([10.0, 4.0]), 2.0), 1.0)
    assert capped.rate_report.sum_rate == pytest.approx(awgn_capacity(2.0), rel=1e-12)
    # infeasible when even the strongest user misses the target
    weak = baseline_opportunistic(CsiRealization(np.array([0.5]), BIG_SAT), 1.0)
    assert not weak.feasible


def test_opportunistic_equals_exhaustive_at_one_slot():
    # random draws, then the rate edges r = C(v) and r = log2(v + 1) of a
    # strongest SNR v with the satellite far above it and at v, where a
    # rate-domain test and the SINR threshold 2**r - 1 can round apart
    rng = np.random.default_rng(31)
    cases = [(CsiRealization(rng.exponential(10.0, size=6), BIG_SAT), 0.9)
             for _ in range(50)]
    for v in range(1, 2001):
        for r in (awgn_capacity(v), math.log2(v + 1)):
            for sat in (BIG_SAT, float(v)):
                cases.append((CsiRealization(np.array([v / 2, float(v), v / 3]), sat), r))
    for csi, r in cases:
        o = baseline_opportunistic(csi, r)
        e = exhaustive(csi, 1, r)
        assert o.feasible == e.feasible, (csi, r)
        if o.feasible:
            assert o.schedule.users == e.schedule.users
            assert o.rate_report.sum_rate == e.rate_report.sum_rate


def test_opportunistic_takes_the_lowest_index_of_tied_maxima():
    csi = CsiRealization(np.array([3.0, 5.0, 5.0, 1.0, 5.0]), BIG_SAT)
    assert baseline_opportunistic(csi, 1.0).schedule.users == (1,)
    # integer SNRs tie often, at the maximum too; exhaustive takes the
    # first position of its stable descending order
    rng = np.random.default_rng(30)
    seen = Counter()
    for _ in range(600):
        snrs = rng.integers(0, 5, size=int(rng.integers(1, 12))).astype(float)
        csi = CsiRealization(snrs, float(rng.choice([BIG_SAT, 3.0, 15.0])))
        top = float(snrs.max())
        for r in (0.5, 1.0, 2.0, awgn_capacity(top) if top else 0.1):
            o, e = lbus(csi, 1, r), exhaustive(csi, 1, r)
            assert repr((o.schedule, o.rate_report)) == repr((e.schedule, e.rate_report)), \
                (snrs, csi.sat_snr, r)
            seen["tied" if o.feasible and (snrs == top).sum() > 1 else "other"] += 1
    assert seen["tied"] > 800, seen


def test_tdma_is_the_every_drop_loop():
    # the capacities taken once and one product per drop give the outcome
    # of the loop that took every kept capacity again after each drop
    rng = np.random.default_rng(31)
    seen = Counter()
    for i in range(120):
        n = int(rng.integers(1, 21))
        snrs = rng.exponential(10.0, n) if i % 2 else rng.integers(0, 4, n).astype(float)
        csi = CsiRealization(snrs, float(rng.choice([BIG_SAT, 5.0])))
        caps = sorted((awgn_capacity(float(v)) for v in snrs), reverse=True)
        for k in range(1, n + 1):
            m = int(rng.integers(1, k + 1))
            # r exactly at one share's edge, and past the strongest user's
            # capacity, where every user is dropped
            for r in (0.3, 1.0, (1.0 / m) * caps[m - 1] or 0.2, caps[0] + 0.5):
                t = baseline_tdma(csi, k, r)
                assert repr(t) == repr(oracles.tdma_every_drop(csi, k, r)), (snrs, k, r)
                kept = t.stats.candidates_examined
                seen["all dropped" if not t.feasible else "none dropped" if kept == k
                     else "some dropped"] += 1
    assert min(seen.values()) > 1000, seen


def test_tdma_never_beats_exhaustive():
    rng = np.random.default_rng(62)
    for _ in range(100):
        csi = CsiRealization(rng.exponential(10.0, size=8), BIG_SAT)
        r = 0.9
        k = determine_k(csi, r)
        if k < 1:
            continue
        t = baseline_tdma(csi, k, r)
        e = exhaustive(csi, k, r)
        if t.feasible:
            assert t.rate_report.sum_rate <= e.rate_report.sum_rate + 1e-9


def test_stats_are_populated():
    csi = CsiRealization(np.array([10.0, 6.0, 5.0, 4.0, 1.0]), BIG_SAT)
    g = gius(csi, 3, 1.0)
    l = lbus(csi, 3, 1.0)
    e = exhaustive(csi, 3, 1.0)
    assert e.stats.candidates_examined == math.comb(5, 3)
    assert g.stats.candidates_examined > 0
    assert l.stats.candidates_examined > 0


def _finish_instances():
    """(csi, r_target, users): the gius and lbus picks on the csi_online
    frames, and decode orders of up to max_supported_users users, arbitrary
    and descending, at N 1..32 with exponential, small-integer and
    all-equal SNRs, satellite SNRs 2**60, 100 and 5 and rate targets
    0.3..3.0, and single users whose alpha clamps at 1.0."""
    for r, csi in oracles.csi_online_frames(256):
        k = determine_k(csi, r)
        if k:
            for outcome in (gius(csi, k, r), lbus(csi, k, r)):
                if outcome.schedule is not None:
                    yield csi, r, list(outcome.schedule.users)
    rng = np.random.default_rng(1212)
    for n in range(1, 33):
        for snrs in (rng.exponential(10.0, n), rng.integers(0, 6, n).astype(float),
                     np.full(n, 7.0)):
            for sat in (BIG_SAT, 100.0, 5.0):
                csi = CsiRealization(snrs, sat)
                for r in (0.3, 0.6, 1.0, 1.5, 2.2, 3.0):
                    top = max_supported_users(sat, r, n)
                    for k in sorted({1, (top + 1) // 2, top} & set(range(1, top + 1))):
                        users = rng.permutation(n)[:k].tolist()
                        yield csi, r, users
                        yield csi, r, sorted(users, key=lambda u: -snrs[u])
    # one user above the satellite SNR gets alpha 1 up to rounding, and the
    # Schedule clamps it at 1.0 where rounding lifts it above; at small
    # satellite SNRs the clamp moves the satellite chain's rate
    for sat in np.geomspace(1e-3, 1e6, 60).tolist():
        csi = CsiRealization(np.array([3.0 * sat, 0.5 * sat]), sat)
        for r in (0.3, 0.6, 1.0, math.log2(1.0 + sat) / 2):
            if max_supported_users(sat, r, 1):
                yield csi, r, [0]


def test_finish_matches_the_three_step_finish():
    seen = Counter()
    for csi, r, users in _finish_instances():
        outcome = csi_sched._finish(users, csi.user_snrs[users].tolist(), csi, r, 7, 2)
        schedule, report = oracles.finish_three_steps(users, csi, r)
        assert repr((outcome.schedule.users, outcome.schedule.alphas)) == \
            repr((schedule.users, schedule.alphas))
        assert repr(outcome.rate_report) == repr(report)
        assert outcome.stats == csi_sched.SchedulerStats(7, 2)
        # which branches of the split ran
        snrs = csi.user_snrs[users]
        relay_sum = sum(awgn_capacity(g) for g in oracles.chain_sinrs(snrs))
        seen["relay" if relay_sum <= awgn_capacity(csi.sat_snr) else "surplus"] += 1
        raw = oracles.throughput_power_split_checked(snrs, r, csi.sat_snr)
        seen["clamped"] += bool(np.any(raw > 1.0))
        seen["missed"] += not report.meets_target
    assert min(seen["relay"], seen["surplus"]) > 1000, seen
    assert min(seen["clamped"], seen["missed"]) > 20, seen


def test_finish_stores_what_the_checked_constructor_would():
    # the finishing pass builds its Schedule without the constructor; given
    # the split's unclamped alphas, the checked constructor stores the same
    seen = Counter()

    def check(schedule, csi, r):
        users = list(schedule.users)
        raw = oracles.throughput_power_split_checked(csi.user_snrs[users], r, csi.sat_snr)
        checked = Schedule(users=users, alphas=raw)
        assert schedule == checked and repr(schedule) == repr(checked), (csi, r, users)
        assert all(type(u) is int for u in schedule.users)
        for name in ("users", "alphas"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(schedule, name, None)
        seen["clamped"] += bool(np.any(raw > 1.0))
        seen["schedules"] += 1

    for csi, r, users in _finish_instances():
        check(csi_sched._finish(users, csi.user_snrs[users].tolist(), csi, r, 0, 0).schedule,
              csi, r)
    for r, csi in oracles.csi_online_frames(512):
        k = determine_k(csi, r)
        for outcome in (gius(csi, k, r), lbus(csi, k, r)) if k else ():
            if outcome.schedule is not None:
                check(outcome.schedule, csi, r)
    for snrs, r in oracles.threshold_lattice(500):
        for sat in (BIG_SAT, 5.0):
            csi = CsiRealization(np.array(snrs), sat)
            runs = [baseline_opportunistic(csi, r)]
            for k in range(1, determine_k(csi, r) + 1):
                runs += [lbus(csi, k, r), exhaustive(csi, k, r)]
            for outcome in runs:
                if outcome.schedule is not None:
                    check(outcome.schedule, csi, r)
    assert seen["clamped"] > 20 and seen["schedules"] > 10_000, seen


def _csi_sumrate_draws():
    """(csi, r_target) of every trial of the bundled csi_sumrate table."""
    path = Path(csi_sched.__file__).parent / "configs" / "csi_sumrate.json"
    cfg = ExperimentConfig.from_dict(json.loads(path.read_text()))
    ordinal = SCENARIOS.index(cfg.scenario)
    link = RayleighLink(sigma_sq=cfg.p1_sigma_sq, tx_power=1.0)
    for xi, r in enumerate(cfg.r_target_grid):
        for t in range(cfg.trials):
            yield harness._draw_csi_k(cfg, link, r, trial_rng(cfg.seed, ordinal, xi, t))[0], r


def test_schedulers_finish_with_the_snrs_of_their_users():
    # each scheduler hands _finish its picks' SNRs from its own sorted list;
    # a list out of step with the users, at tied SNRs in lbus say, would
    # move the split and the rates away from a finish that reads them by user
    seen = Counter()
    realizations = {(id(csi), r): (csi, r) for csi, r, _ in _finish_instances()}
    for csi, r in [*realizations.values(), *_csi_sumrate_draws()]:
        top = determine_k(csi, r)
        runs = [("opportunistic", baseline_opportunistic(csi, r))]
        for k in sorted({top, (top + 1) // 2} - {0}):
            runs.append(("lbus", lbus(csi, k, r)))
            # the two searches whose work grows with comb(N, K); gius takes
            # seconds on some r_target 0.3 instances, as its search has no bound
            if math.comb(csi.n_users, k) <= 5000:
                runs += [("gius", gius(csi, k, r)), ("exhaustive", exhaustive(csi, k, r))]
        for name, outcome in runs:
            if outcome.schedule is None:
                continue
            users = outcome.schedule.users
            schedule, report = oracles.finish_three_steps(users, csi, r)
            assert repr((users, outcome.schedule.alphas)) == \
                repr((schedule.users, schedule.alphas)), (name, csi, r)
            assert repr(outcome.rate_report) == repr(report), (name, csi, r)
            seen[name] += 1
            seen["tied"] += len(set(csi.user_snrs[list(users)].tolist())) < len(users)
    assert min(seen.values()) > 300, seen


def test_result_records_are_immutable():
    csi = CsiRealization(np.array([9.0, 3.0, 1.0]), float(2**60))
    outcome = lbus(csi, 2, 0.5)
    infeasible = lbus(CsiRealization(np.array([0.4, 0.3]), float(2**60)), 2, 1.0)
    bounds = sum_rate_bounds(csi, 2, 0.5)
    assert outcome.feasible and not infeasible.feasible
    for record in (outcome, outcome.rate_report, outcome.stats, bounds):
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        with pytest.raises(AttributeError):
            record.extra = None
    # every infeasible outcome shares the one empty report, which no call changed
    assert infeasible.rate_report is rate_core.EMPTY_RATE_REPORT
    # a satellite hop of SNR 1 carries no two users at rate 1
    narrow = CsiRealization(np.array([9.0, 3.0, 1.0]), 1.0)
    assert gius(narrow, 2, 1.0).rate_report is rate_core.EMPTY_RATE_REPORT
    assert rate_core.EMPTY_RATE_REPORT == RateReport(per_user_rates=(), sum_rate=0.0,
                                                     meets_target=False)
