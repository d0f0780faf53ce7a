"""Fading-model tests: exponential terrestrial SNR law and the
shadowed-Rician satellite law, checked against the scipy-based density
oracle, quadrature CDFs, and seeded-stream determinism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import default_rng
from scipy.integrate import quad

import oracles
from satsched import (
    CsiRealization,
    ParameterError,
    RayleighLink,
    SrParams,
    sample_rayleigh_snr,
    sample_sr_snr,
)

HEAVY = dict(omega=8.97e-4, b0=0.063, m_s=0.739)


def test_rayleigh_rate_and_mean():
    link = RayleighLink(sigma_sq=5.0, tx_power=1.0)
    assert link.snr_rate == pytest.approx(0.1, rel=1e-15)
    assert link.mean_snr == pytest.approx(10.0, rel=1e-15)
    link = RayleighLink(sigma_sq=0.5, tx_power=4.0)
    assert link.snr_rate == pytest.approx(0.25, rel=1e-15)
    assert link.mean_snr == pytest.approx(4.0, rel=1e-15)


def test_rayleigh_sample_mean_within_two_percent():
    link = RayleighLink(sigma_sq=5.0, tx_power=1.0)
    snrs = sample_rayleigh_snr(link, 1_000_000, default_rng(7))
    assert abs(snrs.mean() - link.mean_snr) / link.mean_snr < 0.02
    assert np.all(snrs > 0)


def test_rayleigh_sample_determinism():
    link = RayleighLink(sigma_sq=5.0, tx_power=1.0)
    a = sample_rayleigh_snr(link, 256, default_rng(11))
    b = sample_rayleigh_snr(link, 256, default_rng(11))
    c = sample_rayleigh_snr(link, 256, default_rng(12))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_rayleigh_validation():
    with pytest.raises(ParameterError):
        RayleighLink(sigma_sq=0.0, tx_power=1.0)
    with pytest.raises(ParameterError):
        RayleighLink(sigma_sq=1.0, tx_power=-2.0)
    with pytest.raises(ParameterError):
        sample_rayleigh_snr(RayleighLink(1.0, 1.0), 0, default_rng(0))


@given(st.floats(0.05, 50.0), st.floats(0.05, 50.0))
@settings(max_examples=30, deadline=None)
def test_rayleigh_rate_mean_reciprocal(sigma_sq, tx_power):
    link = RayleighLink(sigma_sq=sigma_sq, tx_power=tx_power)
    assert link.snr_rate * link.mean_snr == pytest.approx(1.0, rel=1e-12)


def test_sr_pdf_integrates_to_one():
    total, err = quad(
        lambda s: oracles.sr_pdf_reference(HEAVY["omega"], HEAVY["b0"],
                                           HEAVY["m_s"], 1.0, s),
        0.0, np.inf, limit=200)
    assert total == pytest.approx(1.0, abs=1e-8)


def test_sr_sampler_matches_cdf():
    sr = SrParams(tx_power=1.0, **HEAVY)
    samples = sample_sr_snr(sr, 100_000, default_rng(41))
    grid, cdf = oracles.sr_cdf_grid(HEAVY["omega"], HEAVY["b0"], HEAVY["m_s"],
                                    1.0, float(samples.max()) * 1.01)
    ks = oracles.ks_statistic(samples, lambda x: np.interp(x, grid, cdf))
    assert ks < 0.01


def test_sr_sample_determinism():
    sr = SrParams(tx_power=1000.0, **HEAVY)
    a = sample_sr_snr(sr, 512, default_rng(3))
    b = sample_sr_snr(sr, 512, default_rng(3))
    assert np.array_equal(a, b)
    assert np.all(a >= 0)


def test_sr_params_validation():
    with pytest.raises(ParameterError):
        SrParams(omega=-1.0, b0=0.063, m_s=0.739, tx_power=1.0)
    with pytest.raises(ParameterError):
        SrParams(omega=1.0, b0=0.0, m_s=0.739, tx_power=1.0)
    with pytest.raises(ParameterError):
        sample_sr_snr(SrParams(tx_power=1.0, **HEAVY), -5, default_rng(0))


def test_csi_realization_validation():
    csi = CsiRealization(np.array([3.0, 1.0]), 10.0)
    assert csi.n_users == 2
    with pytest.raises(ParameterError):
        CsiRealization(np.array([]), 10.0)
    with pytest.raises(ParameterError):
        CsiRealization(np.array([-1.0, 2.0]), 10.0)
    with pytest.raises(ParameterError):
        CsiRealization(np.array([1.0, np.nan]), 10.0)
    for sat_snr in (-2.0, 0.0, np.inf, np.nan):
        with pytest.raises(ParameterError):
            CsiRealization(np.array([1.0]), sat_snr)
