"""Feasibility and sum-rate bound tests: the economy recursion, the closed-form upper profile, and the sandwich
property, all pinned against brute-force enumeration."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import lower_bound_snrs
from satsched import csi_bounds
from satsched import (
    CsiRealization,
    ParameterError,
    awgn_capacity,
    determine_k,
    exhaustive,
    feasibility_check,
    sinr_threshold,
    sum_rate_bounds,
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


def _upper_profile(s_max, k, gamma_t):
    """The geometric upper profile from the divisor memo, before the clamp."""
    ub = [s_max / d for d in csi_bounds._upper_divisors(gamma_t, k)]
    if k > 1:
        ub[-1] -= 1.0
    return ub


def test_upper_bound_hand_values():
    assert np.allclose(_upper_profile(100.0, 3, 1.0), [100.0, 50.0, 49.0])
    assert np.allclose(_upper_profile(100.0, 1, 1.0), [100.0])
    assert np.allclose(_upper_profile(100.0, 2, 3.0), [100.0, 100.0 / 3.0 - 1.0])


def test_upper_bound_overflowing_power_is_a_value():
    # (1 + gamma_t)**(K-2) overflows a float: the final slot is -1, with no
    # warning, also when the memo computes the divisors anew
    csi_bounds._upper_divisors.cache_clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ub = _upper_profile(10.0, 5, sinr_threshold(600.0))
    assert ub[0] == 10.0
    assert ub[-1] == -1.0


def test_upper_profile_is_the_every_call_profile():
    # by repr at K = 1, at powers that overflow (r_target up to 1023), at
    # s_max = 0 and at s_max scaled by 1e300 and 1e-300
    rng = np.random.default_rng(27)
    checked = 0
    for k in range(1, 9):
        targets = [0.3, 1.0, 2.5, 60.0, 511.0, 1023.0]
        if k > 1:
            targets += [1024.0 / (k - 1) + d for d in (-1.0, -1e-9, 0.0, 1e-9)]
        for r in targets:
            if not 0.0 < r <= 1023.0:
                continue
            gamma_t = sinr_threshold(r)
            for s_max in (0.0, *(float(rng.exponential(10.0)) * scale
                                 for scale in (1.0, 1e300, 1e-300))):
                with np.errstate(over="ignore"):
                    want = oracles.upper_bound_snrs_every_call(s_max, k, gamma_t)
                assert repr(_upper_profile(s_max, k, gamma_t)) == repr(want.tolist())
                checked += 1
    assert checked > 250


def test_upper_bound_power_memo_stays_under_its_cap():
    memo = csi_bounds._upper_divisors
    cap = memo.cache_info().maxsize
    for i in range(cap + 10):
        gamma_t = 1.0 + i / 8.0
        ub = _upper_profile(50.0, 4, gamma_t)
        assert memo.cache_info().currsize <= cap
        assert ub == oracles.upper_bound_snrs_every_call(50.0, 4, gamma_t).tolist()
    hits = memo.cache_info().hits
    _upper_profile(50.0, 4, gamma_t)
    assert memo.cache_info().hits == hits + 1


def test_sum_rate_bounds_at_one_slot_and_overflowing_powers():
    # (1+gamma_t)**(K-1) overflows from about r_target 1024/(K-1) on; each
    # instance runs twice, the second time from the memo
    rng = np.random.default_rng(25)
    checked = overflowed = 0
    for k in range(1, 7):
        edges = [1023.0 * (j + 1) / 8 for j in range(8)]
        if k > 1:
            edges += [1024.0 / (k - 1) + d for d in (-1.0, -1e-9, 0.0, 1e-9, 0.5)]
        for r in edges:
            if not 0.0 < r <= 1023.0:
                continue
            gamma_t = sinr_threshold(r)
            with np.errstate(over="ignore"):
                overflowed += bool(np.isinf(np.power(1.0 + gamma_t, float(k - 1))))
            for scale in (1.0, 1e300):
                csi = CsiRealization(rng.exponential(10.0, 6) * scale, BIG_SAT)
                for _ in range(2):
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        bounds = sum_rate_bounds(csi, k, r)
                    assert _bounds_fields(bounds) == \
                        _bounds_fields(oracles.sum_rate_bounds_three_sorts(csi, k, r))
                    checked += 1
    assert checked > 200 and overflowed > 10


def _summand_lists(elements):
    return st.integers(0, 300).flatmap(lambda n: st.lists(elements, min_size=n, max_size=n))


@given(st.one_of(
    # 0.0, subnormals and values near the largest float; a list of these
    # is often dominated by a few terms, so unit-range lists, where every
    # rounding step shows, are drawn too
    _summand_lists(st.one_of(st.floats(0.0, 1e308), st.sampled_from(
        [0.0, 5e-324, 2.2250738585072014e-308, 1e308, 1.7976931348623157e308]))),
    _summand_lists(st.floats(0.0, 1.0)),
))
@example([])
@example([1.0] * 7 + [1e-16])  # lengths 8, 128 and 129, where the branches meet
@example([1.0] * 8 + [1e-16] * 120)
@example([0.1 * i for i in range(129)])
@example([0.1 * i for i in range(140)])  # halves at 64, not at 70
@example([1e308] * 4 + [1.7976931348623157e308] * 9)  # inf in one accumulator
@example([-0.0])  # numpy's +0.0 identity turns a -0.0 sum into 0.0
@example([-0.0] * 9)
@settings(max_examples=60, deadline=None)
def test_pairwise_sum_is_numpy_sum(xs):
    # under 8 values, 8 to 128 in eight accumulators, and halves beyond
    with np.errstate(over="ignore"):
        want = float(np.sum(np.array(xs, dtype=float)))
    assert repr(csi_bounds._pairwise_sum(xs)) == repr(want)


def test_upper_bound_sum_identity():
    # for K >= 2 the raw profile sums to S_max + S_max/gamma_t - 1 exactly
    for s_max, k, g in ((100.0, 2, 1.0), (25.0, 4, 0.5), (640.0, 6, 1.2)):
        ub = _upper_profile(s_max, k, g)
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
    assert bounds.lb_rate == 0.0


def test_lb_first_slot_is_global_max():
    rng = np.random.default_rng(7)
    for _ in range(200):
        s = rng.exponential(10.0, size=6)
        lb = lower_bound_snrs(s, 3, 1.0)
        if lb is not None:
            assert lb[0] == pytest.approx(float(s.max()), rel=1e-15)


def _bounds_fields(bounds):
    assert type(bounds.lb_rate) is float and type(bounds.ub_rate) is float
    return repr((bounds.lb_rate, bounds.ub_rate, bounds.feasible))


def _bounds_instances():
    """(csi, k, r_target): the csi_online frames at their determine_k, and
    N 1..32 with exponential, small-integer and all-equal SNRs, satellite
    SNRs 2**60, 100 and 5, rate targets 0.3..3.0 and k of 1, 2, 3, N // 2
    and N."""
    for r, csi in oracles.csi_online_frames(256):
        k = determine_k(csi, r)
        if k:
            yield csi, k, r
    rng = np.random.default_rng(1213)
    for n in range(1, 33):
        for snrs in (rng.exponential(10.0, n), rng.integers(0, 6, n).astype(float),
                     np.full(n, 7.0)):
            for sat in (BIG_SAT, 100.0, 5.0):
                csi = CsiRealization(snrs, sat)
                for r in (0.3, 0.6, 1.0, 1.5, 2.2, 3.0):
                    for k in sorted({1, 2, 3, n // 2, n} & set(range(1, n + 1))):
                        yield csi, k, r


def test_sum_rate_bounds_match_the_three_sort_version():
    feasible = infeasible = 0
    for csi, k, r in _bounds_instances():
        bounds = sum_rate_bounds(csi, k, r)
        assert _bounds_fields(bounds) == \
            _bounds_fields(oracles.sum_rate_bounds_three_sorts(csi, k, r))
        assert type(bounds.feasible) is bool
        feasible += bounds.feasible
        infeasible += not bounds.feasible
    assert feasible > 1000 and infeasible > 1000


def _bounds_error(fn, csi, k, r):
    with pytest.raises(ParameterError) as info:
        fn(csi, k, r)
    return str(info.value)


def test_sum_rate_bounds_keeps_every_error():
    csi = CsiRealization(np.array([9.0, 3.0, 1.0]), BIG_SAT)
    # k out of [1, N], and r_target 0, whose gamma_t is 0
    for k, r in ((0, 1.0), (4, 1.0), (2, 0.0)):
        assert _bounds_error(sum_rate_bounds, csi, k, r) == \
            _bounds_error(oracles.sum_rate_bounds_three_sorts, csi, k, r)
    # the realization's SNRs, checked once, refuse a later write
    for bad in (math.nan, -1.0, -0.5e-300, math.inf, -math.inf):
        for pos in range(3):
            with pytest.raises(ValueError, match="read-only"):
                csi.user_snrs[pos] = bad
            assert _bounds_fields(sum_rate_bounds(csi, 2, 1.0)) == \
                _bounds_fields(oracles.sum_rate_bounds_three_sorts(csi, 2, 1.0))
