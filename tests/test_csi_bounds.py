"""Feasibility and sum-rate bound tests: the economy recursion, the closed-form upper profile, and the sandwich
property, all pinned against brute-force enumeration."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from satsched import (
    CsiRealization,
    awgn_capacity,
    exhaustive,
    feasibility_check,
    lower_bound_snrs,
    sinr_threshold,
    sum_rate_bounds,
    upper_bound_snrs,
)

BIG_SAT = float(2**60)


def test_lower_bound_hand_example():
    s = np.array([10.0, 4.0, 1.5, 0.9])
    lb = lower_bound_snrs(s, 2, 1.0)
    assert np.allclose(lb, [10.0, 1.5])
    assert awgn_capacity(float(np.sum(lb))) == pytest.approx(math.log2(12.5),
                                                             rel=1e-12)
    assert lower_bound_snrs(s, 1, 1.0) == pytest.approx([10.0])
    assert lower_bound_snrs(s, 3, 20.0) is None  # gamma_t above S_max


def test_lower_bound_profile_is_chain_feasible():
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(300):
        s = rng.exponential(10.0, size=8)
        gamma_t = sinr_threshold(float(rng.uniform(0.3, 1.4)))
        for k in range(1, 5):
            lb = lower_bound_snrs(s, k, gamma_t)
            if lb is None:
                continue
            assert oracles.subset_feasible(sorted(lb, reverse=True), gamma_t)
            checked += 1
    assert checked > 300


def test_upper_bound_hand_values():
    assert np.allclose(upper_bound_snrs(100.0, 3, 1.0), [100.0, 50.0, 49.0])
    assert np.allclose(upper_bound_snrs(100.0, 1, 1.0), [100.0])
    assert np.allclose(upper_bound_snrs(100.0, 2, 3.0), [100.0, 100.0 / 3.0 - 1.0])


def test_upper_bound_overflowing_power_is_a_value():
    # (1 + gamma_t)**(K-2) overflows a float: the final slot is -1, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ub = upper_bound_snrs(10.0, 5, sinr_threshold(600.0))
    assert ub[0] == 10.0
    assert ub[-1] == -1.0


def test_upper_bound_sum_identity():
    # for K >= 2 the raw profile sums to S_max + S_max/gamma_t - 1 exactly
    for s_max, k, g in ((100.0, 2, 1.0), (25.0, 4, 0.5), (640.0, 6, 1.2)):
        ub = upper_bound_snrs(s_max, k, g)
        assert float(np.sum(ub)) == pytest.approx(s_max + s_max / g - 1.0,
                                                  rel=1e-12)


def test_feasibility_matches_brute_force():
    rng = np.random.default_rng(99)
    agree = 0
    for _ in range(250):
        n = int(rng.integers(2, 9))
        s = rng.exponential(10.0, size=n)
        gamma_t = sinr_threshold(float(rng.uniform(0.3, 1.5)))
        for k in range(1, min(n, 4) + 1):
            assert feasibility_check(s, k, gamma_t) == \
                oracles.brute_force_feasible(s, k, gamma_t)
            agree += 1
    assert agree >= 800


@given(st.lists(st.floats(0.01, 400.0), min_size=2, max_size=7),
       st.floats(0.1, 2.0), st.floats(0.1, 2.0))
@settings(max_examples=120, deadline=None)
def test_feasibility_monotone_in_threshold(snrs, g_lo, g_hi):
    lo, hi = sorted((g_lo, g_hi))
    s = np.array(snrs)
    k = min(3, s.size)
    if feasibility_check(s, k, hi):
        assert feasibility_check(s, k, lo)


def test_bounds_sandwich_random_instances():
    rng = np.random.default_rng(4242)
    feasible_seen = 0
    for _ in range(150):
        csi = CsiRealization(rng.exponential(10.0, size=8), BIG_SAT)
        r = float(rng.choice([0.6, 0.9, 1.2]))
        for k in (2, 3):
            bounds = sum_rate_bounds(csi, k, r)
            if not bounds.feasible:
                assert oracles.brute_force_best_subset(
                    csi.user_snrs, k, sinr_threshold(r)) is None
                continue
            best = exhaustive(csi, k, r).rate_report.sum_rate
            assert bounds.lb_rate <= best + 1e-9
            assert best <= bounds.ub_rate + 1e-9
            assert bounds.lb_rate <= bounds.ub_rate + 1e-9
            feasible_seen += 1
    assert feasible_seen > 150


def test_bounds_satellite_limited_collapse():
    csi = CsiRealization(np.array([40.0, 30.0, 20.0]), 2.0)
    bounds = sum_rate_bounds(csi, 1, 0.5)
    assert bounds.lb_rate == pytest.approx(awgn_capacity(2.0), rel=1e-12)
    assert bounds.ub_rate == pytest.approx(awgn_capacity(2.0), rel=1e-12)


def test_bounds_single_user_collapse():
    csi = CsiRealization(np.array([9.0, 3.0]), BIG_SAT)
    bounds = sum_rate_bounds(csi, 1, 0.5)
    assert bounds.lb_rate == pytest.approx(awgn_capacity(9.0), rel=1e-12)
    assert bounds.ub_rate == pytest.approx(awgn_capacity(9.0), rel=1e-12)
    assert bounds.feasible


def test_bounds_infeasible_instance():
    csi = CsiRealization(np.array([0.4, 0.3]), BIG_SAT)
    bounds = sum_rate_bounds(csi, 2, 1.0)
    assert not bounds.feasible
    assert bounds.lb_snrs is None


def test_lb_first_slot_is_global_max():
    rng = np.random.default_rng(7)
    for _ in range(200):
        s = rng.exponential(10.0, size=6)
        lb = lower_bound_snrs(s, 3, 1.0)
        if lb is not None:
            assert lb[0] == pytest.approx(float(s.max()), rel=1e-15)
