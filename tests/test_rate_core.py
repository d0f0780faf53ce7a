"""Rate arithmetic tests: capacities, both SINR chains, the supported-user
bound, power splitting, and schedule evaluation, pinned to hand-solved
values and the plain-loop chain oracle."""

import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from satsched import (
    ConstraintError,
    CsiRealization,
    ParameterError,
    Schedule,
    awgn_capacity,
    evaluate_schedule,
    max_supported_users,
    sinr_threshold,
    throughput_power_split,
)
from satsched import rate_core
from satsched.rate_core import _ALPHA_TOL, _chain_rates

snr_arrays = hnp.arrays(
    dtype=float,
    shape=st.integers(1, 8),
    elements=st.floats(0.0, 500.0, allow_nan=False),
)


def test_sinr_threshold_values():
    assert sinr_threshold(1.0) == pytest.approx(1.0, rel=1e-15)
    assert sinr_threshold(2.0) == pytest.approx(3.0, rel=1e-15)
    assert sinr_threshold(0.5) == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-14)


def test_awgn_capacity_values():
    assert awgn_capacity(0.0) == 0.0
    assert awgn_capacity(1.0) == pytest.approx(1.0, rel=1e-15)
    assert awgn_capacity(3.0) == pytest.approx(2.0, rel=1e-15)
    assert awgn_capacity(math.inf) == math.inf
    with pytest.raises(ParameterError):
        awgn_capacity(-0.5)


@given(st.floats(1e-6, 40.0))
@settings(max_examples=50, deadline=None)
def test_capacity_threshold_roundtrip(r):
    assert awgn_capacity(sinr_threshold(r)) == pytest.approx(r, rel=1e-12)


def _relay_chain(snrs):
    return oracles.chain_back_to_front(list(map(float, snrs)), 1.0)[0]


def _sat_chain(alphas, sat_snr):
    return oracles.chain_back_to_front(list(map(float, alphas)), 1.0 / sat_snr)[0]


def _chain_rates_two_loops(vals, inv):
    sinrs, total = oracles.chain_back_to_front(vals, inv)
    return oracles.chain_capacities(sinrs), total


def test_relay_chain_hand_values():
    for chain in (_relay_chain, oracles.chain_sinrs):
        assert np.allclose(chain([10.0, 4.0]), [2.0, 4.0])
        assert np.allclose(chain([8.0, 4.0, 1.0]), [8.0 / 6.0, 2.0, 1.0])
        assert np.allclose(chain([7.0]), [7.0])


@given(snr_arrays)
@settings(max_examples=100, deadline=None)
def test_relay_chain_telescopes(snrs):
    gammas = np.array(_relay_chain(snrs))
    lhs = np.prod(1.0 + gammas)
    assert lhs == pytest.approx(1.0 + snrs.sum(), rel=1e-9)
    # matches the plain-loop oracle slot by slot
    assert np.allclose(gammas, oracles.chain_sinrs(snrs), rtol=1e-12, atol=1e-12)


def test_chain_rates_hand_values():
    rates, total = _chain_rates([8.0, 4.0, 1.0], 1.0)
    assert np.allclose(rates, np.log2(1.0 + np.array([8.0 / 6.0, 2.0, 1.0])))
    assert total == 13.0
    rates, total = _chain_rates([0.6, 0.4], 1.0 / 10.0)
    assert np.allclose(rates, np.log2([2.2, 5.0]))
    assert total == 1.0


@given(snr_arrays, st.sampled_from([1.0, 1.0 / 3.0, 1e-3, 1e-300, 5.0, math.inf]))
@settings(max_examples=100, deadline=None)
def test_chain_rates_is_bitwise_the_two_loops(snrs, inv):
    # one loop over the chain gives the SINR loop's total and the bits of
    # its capacities, and under a ceiling the bits of their minimum with it
    vals = snrs.tolist()
    rates, total = _chain_rates_two_loops(vals, inv)
    assert repr(_chain_rates(vals, inv)) == repr((rates, total))
    ceiling, _ = _chain_rates_two_loops(vals[::-1], 1.0)
    assert repr(_chain_rates(vals, inv, ceiling)) == \
        repr((list(map(min, ceiling, rates)), total))


def test_satellite_chain_hand_values():
    for chain in (_sat_chain, lambda a, s: oracles.chain_sinrs(a, 1.0 / s)):
        assert np.allclose(chain([1.0], 100.0), [100.0])
        assert np.allclose(chain([0.6, 0.4], 10.0), [1.2, 4.0])
        assert np.allclose(chain([0.9, 0.1], 10.0), [4.5, 1.0])


@given(st.integers(1, 6), st.floats(0.5, 200.0))
@settings(max_examples=60, deadline=None)
def test_satellite_chain_telescopes_at_full_power(k, sat_snr):
    # equal full-budget split: sum of slot capacities equals C(S_DR)
    alphas = np.full(k, 1.0 / k)
    gammas = _sat_chain(alphas, sat_snr)
    total = sum(awgn_capacity(float(g)) for g in gammas)
    assert total == pytest.approx(awgn_capacity(sat_snr), rel=1e-9)
    assert np.allclose(gammas, oracles.chain_sinrs(alphas, 1.0 / sat_snr), rtol=1e-12)


def _chains_close_per_trial(draws, scales, gamma_t):
    # each trial's chain on Python floats, slot j's SNR draws[i, j] * scales[j]
    out = []
    for row in draws.tolist():
        snrs = [d * float(c) for d, c in zip(row, scales)]
        tail = snrs[-1]
        ok = tail >= gamma_t
        for v in reversed(snrs[:-1]):
            ok = (v >= gamma_t * (tail + 1.0)) and ok
            tail += v
        out.append(ok)
    return out


def test_sic_chains_close_is_the_per_trial_loop():
    rng = np.random.default_rng(14)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, 7):
            for gamma_t in (0.0, 0.02, sinr_threshold(0.5), 1.0, 7.0):
                # plain draws, some exactly 0, under rates like the estimator's
                draws = rng.standard_exponential((200, k))
                draws[rng.random((200, k)) < 0.02] = 0.0
                scales = 1.0 / np.sort(rng.uniform(0.01, 1.0, size=k))
                # draws tied with gamma_t*(tail + 1.0): the scales are powers
                # of two, so draw * scale is the tied SNR exactly
                tied = rng.standard_exponential((200, k))
                pow2 = 2.0 ** rng.integers(-3, 4, size=k).astype(float)
                for row, tie in zip(tied, rng.random((200, k)) < 0.5):
                    tail = row[-1] * pow2[-1]
                    for j in range(k - 2, -1, -1):
                        if tie[j]:
                            row[j] = gamma_t * (tail + 1.0) / pow2[j]
                            assert row[j] * pow2[j] == gamma_t * (tail + 1.0)
                        tail += row[j] * pow2[j]
                # an infinite reciprocal from a subnormal rate, in each slot
                inf_scales = [np.where(np.arange(k) == j, 1.0 / 5e-324, scales)
                              for j in range(k)]
                for d, c in [(draws, scales), (tied, pow2)] + [(draws, c) for c in inf_scales]:
                    got = rate_core.sic_chains_close(d, c, gamma_t)
                    assert got.dtype == bool
                    assert got.tolist() == _chains_close_per_trial(d, c, gamma_t), (k, gamma_t)


def test_max_supported_users_values():
    assert max_supported_users(1000.0, 1.2, 40) == 8
    assert max_supported_users(1.0, 1.0, 10) == 1
    assert max_supported_users(0.5, 1.0, 10) == 0
    assert max_supported_users(7.0, 1.0, 10) == 3  # 2**3 - 1 == 7 exactly
    assert max_supported_users(6.999, 1.0, 10) == 2
    assert max_supported_users(1000.0, 1.2, 3) == 3
    with pytest.raises(ParameterError):
        max_supported_users(10.0, 0.0, 5)
    with pytest.raises(ParameterError):
        max_supported_users(math.inf, 0.1, 25)


def test_max_supported_users_exact_boundaries():
    # sat_snr = 2**n - 1 carries exactly n users at rate 1, the next float
    # below it n - 1; above 2**53 the float 2**n stands for 2**n - 1
    for n in range(1, 1024):
        boundary = 2.0**n - 1.0
        assert max_supported_users(boundary, 1.0, 2000) == n
        assert max_supported_users(math.nextafter(boundary, 0.0), 1.0, 2000) == n - 1
    dbl_max = sys.float_info.max  # 2**1024 - 1 exceeds every float
    assert max_supported_users(dbl_max, 1.0, 2000) == 1023
    assert max_supported_users(dbl_max, 0.5, 3000) == 2047
    # a tiny rate target caps at n_users instead of converting an infinite
    # or 10**300-sized estimate
    assert max_supported_users(1e308, 5e-324, 4) == 4
    assert max_supported_users(dbl_max, 1e-300, 10**6) == 10**6
    assert sinr_threshold(1023.0) == math.expm1(1023.0 * math.log(2.0))
    with pytest.raises(ParameterError):
        sinr_threshold(1024.0)


def test_throughput_split_passes_relay_rates():
    snrs = np.array([10.0, 4.0])
    alphas = throughput_power_split(snrs, 1.0, float(2**60))
    gammas = np.array(oracles.chain_sinrs(alphas, 2.0**-60))
    relay = np.array(oracles.chain_sinrs(snrs))
    assert np.all(gammas >= relay - 1e-9)
    assert sum(alphas) == pytest.approx(1.0, abs=1e-9)


def test_throughput_split_satellite_limited():
    # relay sum rate exceeds C(10): targets shrink toward r_target but the
    # per-slot satellite rates still sum to the cut-set capacity
    snrs = np.array([30.0, 8.0])
    alphas = throughput_power_split(snrs, 1.0, 10.0)
    gammas = oracles.chain_sinrs(alphas, 0.1)
    rates = [awgn_capacity(float(g)) for g in gammas]
    assert all(r >= 1.0 - 1e-9 for r in rates)
    assert sum(rates) == pytest.approx(awgn_capacity(10.0), rel=1e-9)
    assert throughput_power_split(snrs, 2.0, 10.0) is None  # 2**4-1 > 10


def test_split_power_surplus_grants_are_the_min_max_form():
    # the surplus branch grants min(max(rate - r_target, 0.0), max(surplus,
    # 0.0)) by plain comparisons; pin it by repr on relay rates at K 1..8,
    # some tied with r_target, under satellite capacities that leave the
    # surplus negative, zero and positive
    rng = np.random.default_rng(29)
    seen = {"negative": 0, "zero": 0, "positive": 0, "tied": 0, "clipped": 0}
    for k in range(1, 9):
        for _ in range(400):
            r_target = float(rng.choice([0.1, 0.3, 0.5, 1.0, 2.5]))
            rates = rng.uniform(0.0, 3.0 * r_target, size=k)
            rates[rng.random(k) < 0.3] = r_target
            rates = rates.tolist()
            total = 0.0
            for rate in rates:
                total += rate
            for surplus in (-float(rng.uniform(0.0, r_target)), 0.0,
                            float(rng.uniform(0.0, max(total - k * r_target, 0.0) + r_target))):
                cap = k * r_target + surplus
                if not cap > 0.0:
                    continue
                sat_snr = math.expm1(cap * math.log(2.0))
                got = rate_core._split_power(list(rates), r_target, sat_snr, cap)
                want = oracles.split_power_min_max(list(rates), r_target, sat_snr, cap)
                assert repr(got) == repr(want), (rates, r_target, cap)
                if total > cap:
                    seen["negative" if surplus < 0.0 else "zero" if surplus == 0.0
                         else "positive"] += 1
                    seen["tied"] += r_target in rates
                    seen["clipped"] += any(rate < r_target for rate in rates)
    assert min(seen.values()) > 200, seen


def test_schedule_validation():
    Schedule(users=(0, 1), alphas=(0.6, 0.4))
    with pytest.raises(ConstraintError):
        Schedule(users=(0, 0), alphas=(0.5, 0.5))
    with pytest.raises(ConstraintError):
        Schedule(users=(0, 1), alphas=(0.9, 0.2))
    with pytest.raises(ConstraintError):
        Schedule(users=(0, 1), alphas=(0.5,))
    # within _ALPHA_TOL of [0, 1]: stored clamped
    clamped = Schedule(users=(0, 1), alphas=(1.0 + _ALPHA_TOL / 2, -_ALPHA_TOL / 2))
    assert clamped.alphas == (1.0, 0.0)
    for bad in (-2 * _ALPHA_TOL, math.nan):
        with pytest.raises(ConstraintError):
            Schedule(users=(0,), alphas=(bad,))
    # left to right these sum to 1.0000000010000003 > 1 + _ALPHA_TOL on any
    # Python; the compensated sum() of Python 3.12 on gives 1.000000001
    edge = (2.704354051073242e-07, 0.0005301516726257736, 2.7386361305598543e-05,
            0.0002738800858142029, 2.9282892635022605e-05, 9.373056973356988e-06,
            0.9991296520331814, 4.462059750406634e-09)
    with pytest.raises(ConstraintError, match=r"^alphas sum to 1\.0000000010000003 > 1$"):
        Schedule(users=range(8), alphas=edge)


@pytest.mark.parametrize("users, bad", [
    ((1.5, 2.7), 1.5),
    ("12", "1"),
    ((True, 0), True),
    ((0, math.nan), math.nan),
    ((np.float64(2.0),), np.float64(2.0)),
    ((np.True_,), np.True_),
])
def test_schedule_rejects_user_indices_that_are_not_integers(users, bad):
    # these were once truncated to ints, or raised a bare ValueError
    for alphas in (None, (1.0,) + (0.0,) * (len(users) - 1)):
        with pytest.raises(ConstraintError, match=f"^user index {re.escape(repr(bad))} is not"):
            Schedule(users=users, alphas=alphas)
    assert Schedule(users=(np.int64(3), np.uint8(1), 0)).users == (3, 1, 0)


def test_evaluate_schedule_hand_example():
    csi = CsiRealization(np.array([10.0, 4.0]), float(2**60))
    alphas = throughput_power_split(csi.user_snrs, 1.0, csi.sat_snr)
    report = evaluate_schedule(Schedule(users=(0, 1), alphas=tuple(alphas)),
                               csi, 1.0)
    assert report.per_user_rates == pytest.approx(
        (math.log2(3.0), math.log2(5.0)), rel=1e-12)
    assert report.sum_rate == pytest.approx(math.log2(15.0), rel=1e-12)
    assert report.sum_rate < awgn_capacity(csi.sat_snr)  # the terrestrial cut binds
    assert report.meets_target
    assert report.sum_rate == pytest.approx(sum(report.per_user_rates), rel=1e-9)


def test_evaluate_schedule_satellite_bound():
    csi = CsiRealization(np.array([50.0]), 3.0)
    report = evaluate_schedule(Schedule(users=(0,), alphas=(1.0,)), csi, 1.0)
    assert report.sum_rate == pytest.approx(2.0, rel=1e-12)
    assert report.sum_rate == awgn_capacity(csi.sat_snr)  # the satellite cut binds
    assert report.per_user_rates[0] == pytest.approx(2.0, rel=1e-12)


def test_evaluate_schedule_empty_and_errors():
    csi = CsiRealization(np.array([5.0, 1.0]), 10.0)
    report = evaluate_schedule(Schedule(users=(), alphas=()), csi, 1.0)
    assert report.sum_rate == 0.0
    assert not report.meets_target
    with pytest.raises(ParameterError):
        evaluate_schedule(Schedule(users=(0, 1), alphas=None), csi, 1.0)
    with pytest.raises(ParameterError):
        evaluate_schedule(Schedule(users=(0, 5), alphas=(0.5, 0.5)), csi, 1.0)


def test_evaluate_schedule_detects_missed_target():
    csi = CsiRealization(np.array([10.0, 4.0, 1.5, 0.9]), float(2**60))
    # users 2,3 cannot both clear gamma_t = 1 at the relay
    alphas = throughput_power_split(csi.user_snrs[[2, 3]], 1.0, csi.sat_snr)
    report = evaluate_schedule(Schedule(users=(2, 3), alphas=tuple(alphas)),
                               csi, 1.0)
    assert not report.meets_target


def test_evaluate_schedule_order_sensitive():
    csi = CsiRealization(np.array([10.0, 4.0]), float(2**60))
    fwd = evaluate_schedule(
        Schedule(users=(0, 1),
                 alphas=tuple(throughput_power_split(csi.user_snrs, 1.0,
                                                     csi.sat_snr))),
        csi, 1.0)
    rev_alphas = throughput_power_split(csi.user_snrs[[1, 0]], 1.0, csi.sat_snr)
    rev = evaluate_schedule(Schedule(users=(1, 0), alphas=tuple(rev_alphas)),
                            csi, 1.0)
    # decode order changes per-user rates exactly as the chain oracle says
    expect = [awgn_capacity(g) for g in oracles.chain_sinrs([4.0, 10.0])]
    assert rev.per_user_rates == pytest.approx(tuple(expect), rel=1e-12)
    assert fwd.per_user_rates != rev.per_user_rates
    # but not the schedule throughput, which only sees the SNR sum
    assert rev.sum_rate == pytest.approx(fwd.sum_rate, rel=1e-12)


_TOL = _ALPHA_TOL


@pytest.mark.parametrize("users, alphas", [
    ((0, 0), (0.5, 0.5)),
    ((0, -1), (0.5, 0.5)),
    ((-3,), None),
    ((0,), (math.nan,)),
    ((0, 1), (math.nan, 0.2)),
    ((0, 1), (0.5, -2 * _TOL)),
    ((0, 1), (1 + 2 * _TOL, 0.0)),
    ((0,), (math.inf,)),
    ((0, 1), (math.inf, -math.inf)),
    ((0, 1), (0.9, 0.2)),
    ((0, 1, 2), (0.5, 0.5, 0.5)),
    ((0, 1), (0.5,)),
    ((0, 1), (1.0 + _TOL / 2, -_TOL / 2)),
    ((0, 1), (-0.0, 1.0)),
    ((2,), (1.0,)),
    ((), ()),
    ((), None),
    ((4, 1), None),
    ((np.int64(3), np.int32(1)), np.array([0.25, 0.75])),
    ([5, 4], [0.3, 0.7]),
])
def test_schedule_checks_match_the_three_pass_schedule(users, alphas):
    def built(cls):
        try:
            schedule = cls(users=users, alphas=alphas)
        except ConstraintError as exc:
            return f"ConstraintError: {exc}"
        return repr((schedule.users, schedule.alphas))

    assert built(Schedule) == built(oracles.ScheduleThreePass)
