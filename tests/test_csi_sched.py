"""Scheduler tests: greedy windowed search, economy-seeded selection,
exhaustive enumeration, and the two baselines, pinned to hand traces and
brute-force oracles."""

import itertools
import math

import numpy as np
import pytest

import oracles
from satsched import csi_sched
from satsched import (
    CsiRealization,
    EnumerationBudgetError,
    ParameterError,
    allocate_relay_power,
    awgn_capacity,
    baseline_opportunistic,
    baseline_tdma,
    determine_k,
    exhaustive,
    gius,
    lbus,
    relay_sinr_chain,
    sinr_threshold,
    sum_rate_bounds,
)

BIG_SAT = float(2**60)


def _chain_ok(outcome, csi, r_target):
    users = np.asarray(outcome.schedule.users, dtype=int)
    snrs = csi.user_snrs[users]
    gamma_t = sinr_threshold(r_target)
    assert np.all(np.diff(snrs) <= 1e-12)  # descending decode order
    return bool(np.all(relay_sinr_chain(snrs) >= gamma_t * (1 - 1e-12)))


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
            assert allocate_relay_power(k, r, csi.sat_snr) is not None
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


def test_exhaustive_budget_guard():
    csi = CsiRealization(np.ones(30) * 10.0, BIG_SAT)
    with pytest.raises(EnumerationBudgetError):
        exhaustive(csi, 15, 0.1)
    # explicit budget raise allows the run
    out = exhaustive(csi, 3, 0.1, max_subsets=5000)
    assert out.feasible


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
    compared = 0
    for n in range(1, 21):
        for sat_snr in (BIG_SAT, 100.0):
            csi = CsiRealization(rng.exponential(10.0, size=n), sat_snr)
            r = float(rng.choice([0.6, 0.9, 1.2]))
            for k in sorted({1, n, *range(1, determine_k(csi, r) + 1)}):
                want = oracles.exhaustive_itertools(csi.user_snrs, sat_snr, k, r)
                out = exhaustive(csi, k, r)
                assert out.stats.candidates_examined == math.comb(n, k)
                if want is None:
                    assert not out.feasible
                else:
                    assert out.schedule.users == want
                    compared += 1
    assert compared > 100


def test_exhaustive_budget_checked_before_any_table():
    csi_sched._TABLE_CACHE.clear()
    with pytest.raises(EnumerationBudgetError):
        exhaustive(CsiRealization(np.ones(30) * 10.0, BIG_SAT), 15, 0.1)
    with pytest.raises(EnumerationBudgetError):
        exhaustive(CsiRealization(np.ones(12) * 10.0, BIG_SAT), 6, 0.1, max_subsets=10)
    assert not csi_sched._TABLE_CACHE


@pytest.mark.parametrize("n,k", [(1, 1), (5, 5), (6, 1), (9, 4), (20, 10), (300, 2)])
def test_combination_table_is_lexicographic_and_read_only(n, k):
    table = csi_sched._combination_table(n, k)
    want = np.array(list(itertools.combinations(range(n), k))).T
    assert table.dtype == (np.uint8 if n <= 256 else np.intp)
    assert np.array_equal(table, want)
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 0


def test_combination_cache_stays_within_byte_cap(monkeypatch):
    cap = csi_sched._TABLE_CACHE_BYTES
    csi_sched._TABLE_CACHE.clear()
    try:
        keys = [(n, k) for n in range(1, 23) for k in range(1, n + 1)]
        for n, k in keys:
            csi_sched._combination_table(n, k)
            held = sum(t.nbytes for t in csi_sched._TABLE_CACHE.values())
            assert held <= cap
        assert len(csi_sched._TABLE_CACHE) < len(keys)
        assert all(not t.flags.writeable for t in csi_sched._TABLE_CACHE.values())

        # least recently used goes first; a table above the cap is not kept
        monkeypatch.setattr(csi_sched, "_TABLE_CACHE_BYTES", 300)
        csi_sched._TABLE_CACHE.clear()
        for n in (10, 11, 12):
            csi_sched._combination_table(n, 3)  # 360, 495 and 660 bytes
        assert list(csi_sched._TABLE_CACHE) == []
        for key in ((10, 2), (11, 2), (10, 2), (12, 2)):  # 90, 110, 132 bytes
            csi_sched._combination_table(*key)
        assert list(csi_sched._TABLE_CACHE) == [(10, 2), (12, 2)]
    finally:
        csi_sched._TABLE_CACHE.clear()


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
    for call in (lambda: determine_k(csi, 0.0), lambda: allocate_relay_power(2, 0.0, BIG_SAT),
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
    rng = np.random.default_rng(31)
    for _ in range(50):
        csi = CsiRealization(rng.exponential(10.0, size=6), BIG_SAT)
        o = baseline_opportunistic(csi, 0.9)
        e = exhaustive(csi, 1, 0.9)
        assert o.feasible == e.feasible
        if o.feasible:
            assert o.rate_report.sum_rate == pytest.approx(
                e.rate_report.sum_rate, rel=1e-12)


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
