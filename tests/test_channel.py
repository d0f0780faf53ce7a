"""Fading-model tests: exponential terrestrial SNR law and the
shadowed-Rician satellite law, checked against the scipy-based density
oracle, quadrature CDFs, and seeded-stream determinism."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import default_rng
from scipy.integrate import quad

import oracles
from satsched import (
    CsiRealization,
    GroupCdi,
    ParameterError,
    RayleighLink,
    SrParams,
    aoius,
    channel,
    determine_k,
    exhaustive,
    exhaustive_groups,
    gius,
    lbus,
    sample_rayleigh_snr,
    sample_sr_snr,
    sinr_threshold,
    sr_snr_below,
    sum_rate_bounds,
)
from satsched.outage import _phase2_threshold

HEAVY = dict(omega=8.97e-4, b0=0.063, m_s=0.739)
AVERAGE = dict(omega=0.835, b0=0.126, m_s=10.1)


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
    with pytest.raises(ParameterError):
        sr_snr_below(SrParams(tx_power=1.0, **HEAVY), 0, default_rng(0), 1.0)
    # derived scales that overflow: the mean SNR, and 2*b0*m_s + omega,
    # which the closed-form phase-2 outage divides by
    with pytest.raises(ParameterError, match="mean SNR"):
        SrParams(omega=1e308, b0=1e308, m_s=0.739, tx_power=1000.0)
    with pytest.raises(ParameterError, match="mean SNR"):
        SrParams(tx_power=1.7e308, **AVERAGE)
    with pytest.raises(ParameterError, match="2\\*b0\\*m_s"):
        SrParams(omega=1.0, b0=1e300, m_s=1e10, tx_power=1e-10)
    # and the diffuse scale 2*b0*tx_power that underflows to 0
    with pytest.raises(ParameterError, match="underflows"):
        SrParams(tx_power=5e-324, **AVERAGE)


# the largest relay power of each set keeps its mean SNR finite, while the
# SNR composition overflows to inf on the draws far enough above the mean
SR_MASK_CASES = [pytest.param(shadowing, tx_power, id=f"{name}-{tx_power:g}")
                 for name, shadowing, powers in (("heavy", HEAVY, (1.0, 1000.0, 1.7e308)),
                                                 ("average", AVERAGE, (1.0, 1000.0, 1.6e308)))
                 for tx_power in powers]


@pytest.mark.parametrize("shadowing, tx_power", SR_MASK_CASES)
def test_sr_snr_below_is_the_sampled_comparison(shadowing, tx_power):
    sr = SrParams(tx_power=tx_power, **shadowing)
    count = 400
    with np.errstate(over="ignore"):
        samples = sample_sr_snr(sr, count, default_rng(29))
    # every sampled value and its neighbours, where a rounding error in the
    # bounds would show, plus the extremes; inf < inf is False
    thresholds = np.concatenate([samples, np.nextafter(samples, np.inf),
                                 np.nextafter(samples, -np.inf), [0.0, 5e-324, np.inf]])
    if shadowing is AVERAGE and tx_power > 1e308:
        assert np.isinf(samples).any()
    for threshold in thresholds:
        rng = default_rng(29)
        with np.errstate(over="ignore"):
            got = sr_snr_below(sr, count, rng, float(threshold))
        assert got.dtype == bool
        assert np.array_equal(got, samples < threshold), threshold
    # the generator ends where sample_sr_snr leaves it
    ref = default_rng(29)
    with np.errstate(over="ignore"):
        sample_sr_snr(sr, count, ref)
    assert rng.random() == ref.random()


@pytest.mark.parametrize("shadowing", [HEAVY, AVERAGE], ids=["heavy", "average"])
def test_sr_snr_below_at_the_triangle_bounds(monkeypatch, shadowing):
    # a LOS phase along the scatter or against it puts the SNR on an end of
    # the triangle-inequality interval, R = |n| + a or D = ||n| - a|, where
    # only the margins of the scalar cutoffs U = s*_BELOW_CUT and V =
    # s*_NOT_BELOW_CUT keep a draw from being settled wrongly
    sr = SrParams(tx_power=1000.0, **shadowing)
    amp, phase, scatter_re, scatter_im = channel._sr_fade(sr, 1000, default_rng(5))
    phase = np.arctan2(scatter_im, scatter_re) % (2.0 * np.pi)
    phase[::2] = (phase[::2] + np.pi) % (2.0 * np.pi)
    fade = (amp, phase, scatter_re, scatter_im)
    monkeypatch.setattr(channel, "_sr_fade", lambda *_: fade)
    snrs = channel._sr_power(sr, *fade)
    for threshold in np.concatenate([snrs, np.nextafter(snrs, np.inf),
                                     np.nextafter(snrs, -np.inf)]):
        assert np.array_equal(sr_snr_below(sr, 1000, None, threshold), snrs < threshold)


def _cutoff_fade(root):
    # draws whose |n| + a or ||n| - a| lands on each cutoff and one float to
    # either side: a = 0 puts both on |n|; a = v/2 with |n| = v/2 puts R on
    # v and D on 0; a = v with |n| = 2v puts D on v.  The scatter lies on
    # the real axis, so a phase of 0 or pi puts |z| on an end of [D, R].
    cuts = [root * channel._BELOW_CUT, root * channel._NOT_BELOW_CUT,
            root * channel._RADIUS_CAP]
    values = [f(c) for c in cuts for f in (lambda c: np.nextafter(c, 0.0), float,
                                           lambda c: np.nextafter(c, np.inf))]
    amp, scatter = [], []
    for v in values:
        for a, n in ((0.0, v), (v / 2.0, v / 2.0), (v, 2.0 * v)):
            assert math.sqrt(n * n) == n
            amp.append(a)
            scatter.append(n)
    amp = np.repeat(amp, 4)
    scatter_re = np.repeat(scatter, 4)
    phase = np.tile([0.0, np.pi, 0.5 * np.pi, 2.0], len(values) * 3)
    return amp, phase, scatter_re, np.zeros_like(scatter_re)


@pytest.mark.parametrize("shadowing", [HEAVY, AVERAGE], ids=["heavy", "average"])
def test_sr_snr_below_at_its_cutoffs(monkeypatch, shadowing):
    # (tx_power, threshold, whether the cutoffs may settle draws): the
    # bundled thresholds, tau at 2**-600 and one float below, and the
    # thresholds whose tau is 0, subnormal, below 2**-600, infinite or
    # overflowing, plus a subnormal threshold whose tau is normal
    cases = [(1000.0, _phase2_threshold(k, r), True) for k, r in ((2, 0.02), (3, 0.5), (3, 1.0))]
    cases += [(1024.0, 2.0**-590, True), (1024.0, 2.0**-590 * (1.0 - 2.0**-53), False)]
    cases += [(1000.0, 0.0, False), (1000.0, 5e-324, False), (1.0, 1e-310, False),
              (1000.0, 1e-200, False), (1000.0, math.inf, False), (0.5, 1.7e308, False),
              (1e-300, 5e-324, False)]
    power = channel._sr_power
    composed = []
    monkeypatch.setattr(channel, "_sr_power",
                        lambda sr, amp, *rest: composed.append(amp.size) or power(sr, amp, *rest))
    for tx_power, threshold, settles in cases:
        sr = SrParams(tx_power=tx_power, **shadowing)
        tau = threshold / tx_power
        fades = [channel._sr_fade(sr, 200, default_rng(3))]
        if sys.float_info.min <= tau < math.inf:  # |n| = sqrt(n*n) stays exact
            fades.append(_cutoff_fade(math.sqrt(tau)))
        for fade in fades:
            monkeypatch.setattr(channel, "_sr_fade", lambda *_: fade)
            composed.clear()
            with np.errstate(over="ignore", invalid="ignore"):
                want = power(sr, *fade) < threshold
                got = sr_snr_below(sr, fade[0].size, None, threshold)
            assert np.array_equal(got, want), (tx_power, threshold)
            if not settles:
                assert composed == [fade[0].size], (tx_power, threshold)
        if settles:  # on the cutoff fade some draws settle and some do not
            assert 0 < sum(composed) < fade[0].size, (tx_power, threshold)


def _margin_fade(root, rng, count):
    # LOS along a scatter of modulus root/2 puts R = |n| + a up to four
    # half-ulps below root; LOS against a scatter of modulus 2**8 * root
    # puts D = ||n| - a| within 300 ulps of root, on either side.  cos and
    # sin round, so the composed |z| strays from those ends by a few ulps
    theta = rng.uniform(0.0, 2.0 * np.pi, count)
    re, im = 0.5 * root * np.cos(theta), 0.5 * root * np.sin(theta)
    along = root * (1.0 + rng.integers(-4, 0, count) * 2.0**-53) - np.sqrt(re * re + im * im)
    far_re, far_im = 2.0**8 * re, 2.0**8 * im
    against = (np.sqrt(far_re * far_re + far_im * far_im)
               - root * (1.0 + rng.integers(-300, 301, count) * 2.0**-52))
    return (np.concatenate([along, against]),
            np.concatenate([theta, (theta + np.pi) % (2.0 * np.pi)]),
            np.concatenate([re, far_re]), np.concatenate([im, far_im]))


def test_sr_snr_below_margins_at_the_threshold(monkeypatch):
    # draws whose composed SNR lands within a few ulps of the bundled
    # thresholds, with R just below s or D just above it.  Some compose to
    # the other side of the threshold, so cutoffs at s itself (_BELOW_CUT
    # or _NOT_BELOW_CUT 1.0) would settle them wrongly; the margins must not
    sr = SrParams(tx_power=1000.0, **HEAVY)
    rng = default_rng(12)
    wrong_below = wrong_not_below = 0
    for k, r in ((2, 0.02), (3, 0.5), (3, 1.0)):
        threshold = _phase2_threshold(k, r)
        root = math.sqrt(threshold / sr.tx_power)
        fade = _margin_fade(root, rng, 2000)
        monkeypatch.setattr(channel, "_sr_fade", lambda *_: fade)
        want = channel._sr_power(sr, *fade) < threshold
        assert np.array_equal(sr_snr_below(sr, fade[0].size, None, threshold), want), threshold
        amp, _, re, im = fade
        modulus = np.sqrt(re * re + im * im)
        radius, gap = modulus + amp, np.abs(modulus - amp)
        wrong_below += np.count_nonzero((radius < root) & ~want)
        wrong_not_below += np.count_nonzero((gap > root) & (radius < 2.0**10 * root) & want)
    assert wrong_below > 0 and wrong_not_below > 0


@pytest.mark.parametrize("shadowing", [HEAVY, AVERAGE, dict(omega=2.0, b0=0.5, m_s=1.0)],
                         ids=["heavy", "average", "unit-shape"])
def test_sr_fade_is_the_generator_calls(shadowing):
    # gamma, uniform and normal are scale * standard_gamma, 0.0 + 2*pi *
    # random and 0.0 + scale * standard_normal: the amplitude and phase
    # keep their bits, and the scatter its value (the sum could only turn
    # -0.0 into 0.0); the generator ends in the same state
    sr = SrParams(tx_power=1000.0, **shadowing)
    for seed in range(100):
        count = 1 + 37 * (seed % 9)
        got_rng, want_rng = default_rng(seed), default_rng(seed)
        got = channel._sr_fade(sr, count, got_rng)
        want = oracles.sr_fade_generator_calls(sr, count, want_rng)
        for g, w in zip(got[:2], want[:2]):
            assert np.array_equal(g.view(np.uint64), w.view(np.uint64)), seed
        for g, w in zip(got[2:], want[2:]):
            assert np.array_equal(g, w), seed
        assert got_rng.random() == want_rng.random()


def test_mask_and_estimator_under_baseline_dispatch():
    # numpy picks float64 kernels by CPU; with its AVX-512 targets disabled
    # the sampled-comparison check and one estimator-vs-oracle case must
    # hold on the baseline kernels too
    here = Path(__file__).resolve().parent
    script = (
        "import numpy as np, oracles, test_channel\n"
        "from satsched import SrParams, monte_carlo_outage\n"
        "for case in test_channel.SR_MASK_CASES:\n"
        "    test_channel.test_sr_snr_below_is_the_sampled_comparison(*case.values)\n"
        "sr = SrParams(tx_power=1000.0, **test_channel.HEAVY)\n"
        "lam = np.array([0.05, 0.1, 0.3])\n"
        "got = monte_carlo_outage(lam, sr, 0.5, 10_000, np.random.default_rng(7))\n"
        "want = oracles.monte_carlo_outage_sampled(lam, sr, 0.5, 10_000,\n"
        "                                          np.random.default_rng(7))\n"
        "assert got == want, (got, want)\n"
        "print('ok')\n"
    )
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4",
               PYTHONPATH=os.pathsep.join([str(here.parent / "src"), str(here)]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0 and proc.stdout.split() == ["ok"], proc.stderr


@pytest.mark.parametrize("size", [1, 2, 7, 64, 1000, 10_000])
def test_trig_of_a_gathered_subset_is_bitwise_the_full_arrays(size):
    # sr_snr_below composes the undecided draws on a gathered subset and
    # relies on np.cos and np.sin giving each element the bits it gets in
    # the full array, at the estimator's sizes up to the bundled 10,000
    rng = default_rng(size)
    phase = rng.uniform(0.0, 2.0 * np.pi, size=size)
    full = {fn: fn(phase).view(np.uint64) for fn in (np.cos, np.sin)}
    for n_sub in sorted({1, 2, 3, 5, 8, 17, 63, 257, size // 2, size}):
        if not 1 <= n_sub <= size:
            continue
        for idx in (np.sort(rng.choice(size, size=n_sub, replace=False)),
                    np.arange(size - n_sub, size)):
            for fn, bits in full.items():
                assert np.array_equal(fn(phase[idx]).view(np.uint64), bits[idx]), fn


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


def test_records_keep_a_read_only_copy():
    # a write into the caller's arrays after construction reaches neither
    # record, and each record's own array refuses writes
    snrs = np.array([9.0, 6.5, 4.0, 3.0, 2.2, 1.4, 0.8, 0.3])
    lambdas = np.array([0.05, 0.2, 0.1, 0.9, 0.4, 0.02])
    csi = CsiRealization(snrs, float(2**60))
    cdi = GroupCdi(lambdas)
    gamma_t = sinr_threshold(0.1)

    def decisions():
        k = determine_k(csi, 0.9)
        return (k, gius(csi, k, 0.9), lbus(csi, k, 0.9), exhaustive(csi, k, 0.9),
                sum_rate_bounds(csi, k, 0.9), aoius(cdi, 3, gamma_t, default_rng(7), 20),
                exhaustive_groups(cdi, 3, gamma_t))

    before = decisions()
    assert before[0] == 4
    snrs[:] = np.nan
    lambdas[:] = np.nan
    assert decisions() == before
    for own in (csi.user_snrs, cdi.lambdas):
        with pytest.raises(ValueError, match="read-only"):
            own[0] = 1.0
