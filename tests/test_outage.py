"""Outage closed forms against four independent oracles (hand integrals,
a triangular-substitution solve, nested quadrature, and a 50-digit series
for the incomplete gamma) plus the Monte-Carlo estimator's self-consistency."""

import math
import sys
import types

import numpy as np
import pytest

import oracles
from satsched import (
    NumericError,
    ParameterError,
    SrParams,
    monte_carlo_outage,
    phase1_outage,
    phase2_outage,
    sinr_threshold,
    total_outage,
)
from satsched.outage import _gammainc_int

HEAVY = dict(omega=8.97e-4, b0=0.063, m_s=0.739)


def test_phase1_single_user_exact():
    assert phase1_outage(np.array([0.1]), 1.0) == pytest.approx(
        1.0 - math.exp(-0.1), rel=1e-15)


def test_phase1_two_user_hand_value():
    # analytic double integral over {s1 >= gamma*(s2+1), s2 >= gamma}
    got = phase1_outage(np.array([0.1, 0.1]), 1.0)
    assert got == pytest.approx(1.0 - 0.5 * math.exp(-0.3), rel=1e-12)
    assert got == pytest.approx(0.62959, abs=5e-6)


def test_phase1_matches_substitution_oracle():
    rng = np.random.default_rng(733)
    for _ in range(60):
        k = int(rng.integers(1, 7))
        lam = np.sort(rng.uniform(0.02, 2.0, size=k))
        gamma = float(rng.uniform(0.05, 2.0))
        want = 1.0 - oracles.phase1_success_linear(lam, gamma)
        assert phase1_outage(lam, gamma) == pytest.approx(want, rel=1e-10, abs=1e-14)


def test_phase1_matches_nested_quadrature():
    rng = np.random.default_rng(947)
    for k in (2, 3):
        for _ in range(4):
            lam = np.sort(rng.uniform(0.05, 1.0, size=k))
            gamma = float(rng.uniform(0.1, 1.5))
            want = oracles.phase1_outage_quad(lam, gamma)
            assert phase1_outage(lam, gamma) == pytest.approx(want, rel=1e-8)
    # deeper chains are slow to integrate, one spot check each
    lam4 = np.array([0.05, 0.1, 0.2, 0.4])
    assert phase1_outage(lam4, 0.5) == pytest.approx(
        oracles.phase1_outage_quad(lam4, 0.5), rel=1e-6)


def test_phase1_tiny_outage_keeps_relative_precision():
    # log-space evaluation: a chain whose outage is ~5e-7 must not lose
    # digits to the 1 - success cancellation
    lam = np.array([0.001, 0.002])
    gamma = 1e-6
    want = oracles.phase1_outage_linear(lam, gamma)
    got = phase1_outage(lam, gamma)
    assert got < 1e-6
    assert got == pytest.approx(want, rel=1e-12)


def test_phase1_extreme_chain_not_saturated():
    # large gamma*B exponent: success underflows but outage must stay < 1
    lam = np.sort(np.linspace(0.5, 5.0, 8))
    got = phase1_outage(lam, 3.0)
    assert 0.0 < got <= 1.0
    want = 1.0 - oracles.phase1_success_linear(lam, 3.0)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-300)


def test_phase1_monotone_in_gamma_and_first_lambda():
    lam = np.array([0.1, 0.2, 0.4])
    grid = [phase1_outage(lam, g) for g in np.linspace(0.05, 3.0, 40)]
    assert all(b >= a - 1e-15 for a, b in zip(grid, grid[1:]))
    # only the first-decoded user's rate is monotone: it never appears as
    # interference, so weakening it can only hurt
    prev = -1.0
    for scale in np.linspace(1.0, 8.0, 20):
        bumped = lam.copy()
        bumped[0] *= scale
        cur = phase1_outage(bumped, 0.8)
        assert cur >= prev - 1e-15
        prev = cur


def test_phase1_last_lambda_unimodal():
    # weakening the last-decoded user relieves interference on the others,
    # so outage dips to an interior minimum before rising; the minimizer is
    # the closed-form optimum of the benchmark solver
    from satsched import last_lambda_opt

    gamma = 0.8
    b_prefix = (1 + gamma) * 0.1 + 0.2
    lam_star = last_lambda_opt(b_prefix, gamma)
    at_star = phase1_outage(np.array([0.1, 0.2, lam_star]), gamma)
    for lam3 in (lam_star / 4, lam_star / 2, lam_star * 2, lam_star * 4):
        assert phase1_outage(np.array([0.1, 0.2, lam3]), gamma) > at_star
    vals = [phase1_outage(np.array([0.1, 0.2, x]), gamma)
            for x in np.linspace(lam_star / 8, lam_star * 8, 60)]
    drops = sum(b < a - 1e-12 for a, b in zip(vals, vals[1:]))
    rises = sum(b > a + 1e-12 for a, b in zip(vals, vals[1:]))
    assert drops > 0 and rises > 0
    # and the sequence is decreasing-then-increasing, not oscillating
    first_rise = next(i for i, (a, b) in enumerate(zip(vals, vals[1:])) if b > a)
    assert all(b >= a - 1e-12 for a, b in
               zip(vals[first_rise:], vals[first_rise + 1:]))


def test_phase2_zero_threshold():
    sr = SrParams(tx_power=1000.0, **HEAVY)
    assert phase2_outage(sr, 3, 0.0) == 0.0


def test_phase2_matches_quadrature():
    for p2 in (10.0, 100.0, 1000.0, 10000.0):
        sr = SrParams(tx_power=p2, **HEAVY)
        for k in (1, 2, 5, 10):
            for r in (0.02, 0.1, 1.0):
                want = oracles.phase2_outage_quad(
                    HEAVY["omega"], HEAVY["b0"], HEAVY["m_s"], p2, k, r)
                assert phase2_outage(sr, k, r) == pytest.approx(
                    want, rel=1e-8, abs=1e-12)


def test_phase2_bundled_values_pinned():
    # the eight phase-2 outages of the bundled cdi_outage configs, as the
    # general-order incomplete gamma of scipy.special gave them
    sr = SrParams(tx_power=1000.0, **HEAVY)
    want = {2: ["0x1.d092c42e07eb4p-13", "0x1.33010b1dab560p-10",
                "0x1.01366fa4317f8p-7", "0x1.7ecc62028b252p-6"],
            3: ["0x1.5ed90370ac9c0p-12", "0x1.dd116b7a7828dp-10",
                "0x1.d4c3c7ab1b650p-7", "0x1.b7a8efd2ab652p-5"]}
    for k, values in want.items():
        got = [phase2_outage(sr, k, r).hex() for r in (0.02, 0.1, 0.5, 1.0)]
        assert got == values, k


def test_gammainc_int_within_its_bound_of_a_decimal_oracle():
    # a log grid of x plus x = a + 1 and the floats either side of it,
    # where the power series hands over to the Poisson sum
    grid = np.geomspace(1e-8, 700.0, 60).tolist()
    checked = 0
    for a in range(1, 61):
        edge = float(a + 1)
        for x in grid + [math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf)]:
            want = oracles.gammainc_decimal(a, x)
            if want < sys.float_info.min:
                continue  # the stated bound covers normal floats
            bound = 2.0**-50 * (a * abs(math.log(x)) + x + math.lgamma(a + 1) + a + 8)
            got = _gammainc_int(a, x)
            assert abs(got - want) <= bound * want, (a, x, got, want)
            checked += 1
        assert _gammainc_int(a, math.inf) == 1.0 and _gammainc_int(a, 0.0) == 0.0
    assert checked > 3000


def test_phase2_average_shadowing():
    sr = SrParams(tx_power=100.0, omega=0.835, b0=0.126, m_s=10.1)
    want = oracles.phase2_outage_quad(0.835, 0.126, 10.1, 100.0, 2, 0.5)
    assert phase2_outage(sr, 2, 0.5) == pytest.approx(want, rel=1e-8)


def test_phase2_saturates_at_one():
    sr = SrParams(tx_power=1000.0, **HEAVY)
    assert phase2_outage(sr, 5000, 0.02) == pytest.approx(1.0, abs=1e-12)


def test_phase2_rejects_overflowing_parameters():
    # 2*b0*m_s + omega overflows here, so the series prefactor is NaN; it
    # was once clamped to an outage of 1.0
    with pytest.raises(ParameterError):
        SrParams(omega=1e308, b0=1e308, m_s=0.739, tx_power=1000.0)
    unchecked = types.SimpleNamespace(omega=1e308, b0=1e308, m_s=0.739, tx_power=1000.0)
    with pytest.raises(NumericError, match="not finite"):
        phase2_outage(unchecked, 2, 0.02)


def test_phase2_monotone_in_k():
    sr = SrParams(tx_power=1000.0, **HEAVY)
    vals = [phase2_outage(sr, k, 0.1) for k in range(1, 40)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_total_outage_values():
    assert total_outage(0.0, 0.0) == 0.0
    assert total_outage(1.0, 0.25) == 1.0
    assert total_outage(0.2, 0.3) == pytest.approx(0.44, rel=1e-15)
    for bad in ((-0.1, 0.5), (0.5, 1.2), (math.nan, 0.1)):
        with pytest.raises(ParameterError):
            total_outage(*bad)


def test_mc_two_user_perfect_satellite():
    rng = np.random.default_rng(606)
    # at this relay power the satellite SNR falls below 2**2 - 1 with
    # probability about 1e-11, so no trial's satellite hop fails
    sr = SrParams(tx_power=1e12, **HEAVY)
    rep = monte_carlo_outage(np.array([0.1, 0.1]), sr, 1.0, 100_000, rng)
    want = 1.0 - 0.5 * math.exp(-0.3)
    assert rep.p2 == 0.0
    assert abs(rep.p1 - want) <= 3.0 * rep.mc_stats.p1_std_error
    assert abs(rep.total - want) <= 3.0 * rep.mc_stats.std_error


def test_mc_with_satellite_hop():
    lam = np.array([0.05, 0.2])
    sr = SrParams(tx_power=1000.0, **HEAVY)
    rng = np.random.default_rng(1234)
    rep = monte_carlo_outage(lam, sr, 0.5, 50_000, rng)
    p1 = phase1_outage(lam, sinr_threshold(0.5))
    p2 = phase2_outage(sr, 2, 0.5)
    assert abs(rep.p1 - p1) <= 3.0 * rep.mc_stats.p1_std_error + 1e-9
    assert abs(rep.p2 - p2) <= 3.0 * rep.mc_stats.p2_std_error + 1e-9
    assert abs(rep.total - total_outage(p1, p2)) <= 3.0 * rep.mc_stats.std_error + 1e-9


def test_mc_single_trial_is_indicator():
    rng = np.random.default_rng(7)
    rep = monte_carlo_outage(np.array([0.1, 0.2]), SrParams(tx_power=1000.0, **HEAVY), 0.5, 1,
                             rng)
    assert rep.total in (0.0, 1.0)
    assert rep.mc_stats.trials == 1


def test_mc_matches_the_fully_sampled_estimator():
    # the satellite mask and the scaled standard exponentials change no
    # estimate and leave the generator where full sampling leaves it
    for shadowing, tx_power in ((HEAVY, 1000.0), (HEAVY, 10.0),
                                (dict(omega=0.835, b0=0.126, m_s=10.1), 100.0)):
        sr = SrParams(tx_power=tx_power, **shadowing)
        rng = np.random.default_rng(2024)
        for k in (1, 2, 3, 4):
            lam = np.sort(rng.uniform(0.01, 1.0, size=k))
            # 600 * k >= 1024 for k >= 2: a phase-2 threshold of inf
            for r in (0.0, 0.02, 0.1, 0.5, 1.0, 3.0, 600.0):
                seed = int(rng.integers(1 << 30))
                got_rng = np.random.default_rng(seed)
                want_rng = np.random.default_rng(seed)
                got = monte_carlo_outage(lam, sr, r, 2_000, got_rng)
                want = oracles.monte_carlo_outage_sampled(lam, sr, r, 2_000, want_rng)
                assert got == want, (k, r)
                assert got_rng.random() == want_rng.random()


def test_mc_determinism():
    lam = np.array([0.05, 0.1, 0.3])
    sr = SrParams(tx_power=1000.0, **HEAVY)
    a = monte_carlo_outage(lam, sr, 0.3, 5_000, np.random.default_rng(99))
    b = monte_carlo_outage(lam, sr, 0.3, 5_000, np.random.default_rng(99))
    assert a == b


def test_validation_errors():
    with pytest.raises(ParameterError):
        phase1_outage(np.array([0.1, -0.2]), 1.0)
    with pytest.raises(ParameterError):
        phase1_outage(np.array([]), 1.0)
    with pytest.raises(ParameterError):
        phase1_outage(np.array([0.1]), -1.0)
    sr = SrParams(tx_power=1000.0, **HEAVY)
    with pytest.raises(ParameterError):
        phase2_outage(sr, 0, 0.1)
    with pytest.raises(ParameterError):
        phase2_outage(sr, 2, -0.1)
    with pytest.raises(ParameterError):
        monte_carlo_outage(np.array([0.1]), sr, 0.5, 0, np.random.default_rng(1))


def test_report_probabilities_in_range():
    rng = np.random.default_rng(5150)
    for _ in range(30):
        k = int(rng.integers(1, 6))
        lam = np.sort(rng.uniform(0.01, 1.0, size=k))
        r = float(rng.uniform(0.05, 1.5))
        p1 = phase1_outage(lam, sinr_threshold(r))
        p2 = phase2_outage(SrParams(tx_power=1000.0, **HEAVY), k, r)
        total = total_outage(p1, p2)
        for p in (p1, p2, total):
            assert 0.0 <= p <= 1.0
        assert total >= max(p1, p2) - 1e-15
