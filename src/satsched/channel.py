"""Fading models for the two hops of the relayed uplink.

Terrestrial user-to-relay links are Rayleigh: the channel vector is
CN(0, 2*sigma_sq*I), so the received SNR P1*|h|^2 is exponential with rate
1/(2*P1*sigma_sq).  The relay-to-satellite link is shadowed-Rician with
parameters (omega, b0, m_s): a Rician fade whose line-of-sight power is
gamma-distributed with shape m_s and mean omega, on top of diffuse scatter
of per-component variance b0.  The satellite SNR density is

    p(s) = 1/(2*P2*b0) * (2*b0*m_s/(2*b0*m_s+omega))**m_s * exp(-s/(2*P2*b0))
           * 1F1(m_s; 1; omega*s / (2*P2*b0*(2*b0*m_s+omega)))

with 1F1 the confluent hypergeometric function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator

from .errors import ParameterError


@dataclass(frozen=True)
class RayleighLink:
    """One user-to-relay link.

    sigma_sq is the per-dimension variance of the channel coefficient and
    tx_power the user's transmit power.  Note the exponential SNR mean is
    2*tx_power*sigma_sq, twice the per-dimension variance.
    """

    sigma_sq: float
    tx_power: float

    def __post_init__(self):
        if not (self.sigma_sq > 0 and math.isfinite(self.sigma_sq)):
            raise ParameterError(f"sigma_sq must be positive finite, got {self.sigma_sq}")
        if not (self.tx_power > 0 and math.isfinite(self.tx_power)):
            raise ParameterError(f"tx_power must be positive finite, got {self.tx_power}")
        if not math.isfinite(self.mean_snr):
            raise ParameterError(f"mean SNR 2*tx_power*sigma_sq overflows: {self.mean_snr}")

    @property
    def snr_rate(self) -> float:
        """Rate of the exponential SNR law: 1/(2*tx_power*sigma_sq)."""
        return 1.0 / (2.0 * self.tx_power * self.sigma_sq)

    @property
    def mean_snr(self) -> float:
        return 2.0 * self.tx_power * self.sigma_sq


@dataclass(frozen=True)
class SrParams:
    """Shadowed-Rician satellite link parameters plus relay transmit power."""

    omega: float
    b0: float
    m_s: float
    tx_power: float

    def __post_init__(self):
        for name in ("omega", "b0", "m_s", "tx_power"):
            v = getattr(self, name)
            if not (v > 0 and math.isfinite(v)):
                raise ParameterError(f"{name} must be positive finite, got {v}")
        mean_snr = self.tx_power * (self.omega + 2.0 * self.b0)
        if not math.isfinite(mean_snr):
            raise ParameterError(f"mean SNR tx_power*(omega + 2*b0) overflows: {mean_snr}")
        shape_scale = 2.0 * self.b0 * self.m_s + self.omega
        if not math.isfinite(shape_scale):
            raise ParameterError(f"2*b0*m_s + omega overflows: {shape_scale}")
        if 2.0 * self.b0 * self.tx_power == 0.0:  # the phase-2 outage divides by it
            raise ParameterError(f"2*b0*tx_power underflows to 0: {self.b0}, {self.tx_power}")


def _checked_snrs(values) -> np.ndarray:
    """A read-only float copy of user SNRs, once they pass the checks below."""
    snrs = np.array(values, dtype=float)
    if snrs.ndim != 1 or snrs.size == 0:
        raise ParameterError("SNRs must be a non-empty 1-D array")
    if not (snrs.min() >= 0.0 and snrs.max() < math.inf):  # a NaN fails both
        raise ParameterError("SNRs must be finite and non-negative")
    snrs.setflags(write=False)
    return snrs


@dataclass(frozen=True)
class CsiRealization:
    """Instantaneous SNRs: one per ground user, kept as a read-only copy, plus
    the satellite SNR, positive and finite (huge for an unconstrained hop)."""

    user_snrs: np.ndarray
    sat_snr: float

    def __post_init__(self):
        object.__setattr__(self, "user_snrs", _checked_snrs(self.user_snrs))
        if not (0 < self.sat_snr < math.inf):
            raise ParameterError(f"sat_snr must be positive finite, got {self.sat_snr}")

    @property
    def n_users(self) -> int:
        return int(self.user_snrs.size)


def sample_rayleigh_snr(link: RayleighLink, count: int, rng: Generator) -> np.ndarray:
    """Draw iid exponential SNRs for `count` users of a common link class."""
    if count < 1:
        raise ParameterError(f"count must be >= 1, got {count}")
    return rng.exponential(scale=1.0 / link.snr_rate, size=count)


def _sr_fade(params: SrParams, count: int, rng: Generator) -> tuple:
    """The fade's draws: Nakagami LOS amplitude (gamma-distributed power,
    shape m_s, mean omega), uniform LOS phase, complex Gaussian scatter
    with per-component variance b0.

    Draw order is fixed (LOS power, phase, scatter re, scatter im) so a
    seeded generator reproduces the stream exactly.
    Returns (amplitude, phase, scatter_re, scatter_im).
    """
    if count < 1:
        raise ParameterError(f"count must be >= 1, got {count}")
    los_power = rng.gamma(shape=params.m_s, scale=params.omega / params.m_s, size=count)
    phase = rng.uniform(0.0, 2.0 * np.pi, size=count)
    scatter_re = rng.normal(0.0, math.sqrt(params.b0), size=count)
    scatter_im = rng.normal(0.0, math.sqrt(params.b0), size=count)
    return np.sqrt(los_power), phase, scatter_re, scatter_im


def _sr_power(params: SrParams, amp, phase, scatter_re, scatter_im) -> np.ndarray:
    """Satellite SNR tx_power * |amp * e^(i*phase) + scatter|^2 of the fade."""
    re = amp * np.cos(phase) + scatter_re
    im = amp * np.sin(phase) + scatter_im
    return params.tx_power * (re * re + im * im)


def sample_sr_snr(params: SrParams, count: int, rng: Generator) -> np.ndarray:
    """Draw satellite SNRs by composing the shadowed-Rician fade of
    _sr_fade; a seeded generator reproduces the stream exactly."""
    return _sr_power(params, *_sr_fade(params, count, rng))


# sr_snr_below's slack: relative to (a + |n|)**2 and absolute
_MASK_REL = 2.0**-32
_MASK_ABS = 2.0**-1000


def sr_snr_below(params: SrParams, count: int, rng: Generator, threshold: float) -> np.ndarray:
    """sample_sr_snr(params, count, rng) < threshold, bit for bit, with the
    generator left in the same state, but without the trigonometry for
    draws the triangle inequality already settles.

    With a the LOS amplitude and n the scatter, |a*e^(i*phase) + n|^2 lies
    in [(|n| - a)^2, (|n| + a)^2].  Let u = 2**-53 and assume np.cos and
    np.sin are within eta <= 2**-34 of the exact values (they are within a
    few ulp).  The squared modulus sample_sr_snr computes before scaling by
    tx_power is then within (3*eta + 8*u) * R^2 + 2**-1070 * (1 + R) of
    the exact one, with R = |n| + a; underflow in the scatter's squares
    adds at most 2**-536 * R.  The slack 2**-32 * R^2 + 2**-1000 covers
    both with room for the rounding of the bounds themselves, so the
    computed bounds enclose the computed squared modulus, and as rounding
    is monotone, tx_power*lower <= SNR <= tx_power*upper as computed,
    overflow to inf included.  A draw is settled below when
    tx_power*upper < threshold and not below when tx_power*lower >=
    threshold; a bound that is NaN settles nothing.
    The rest are composed exactly on the gathered subset, which relies on
    np.cos and np.sin giving an element the same bits in a subset as in
    the full array.
    """
    amp, phase, scatter_re, scatter_im = _sr_fade(params, count, rng)
    # in place: the bounds cost a few passes where cos and sin cost many;
    # a bound that overflows is still a bound, and a NaN one settles nothing
    with np.errstate(over="ignore", invalid="ignore"):
        lower = scatter_re * scatter_re
        lower += scatter_im * scatter_im
        np.sqrt(lower, out=lower)  # |n|
        upper = lower + amp
        lower -= amp
        upper *= upper
        lower *= lower
        slack = upper * _MASK_REL
        slack += _MASK_ABS
        upper += slack
        upper *= params.tx_power
        lower -= slack
        lower *= params.tx_power
        below = upper < threshold
    undecided = np.flatnonzero(~(below | (lower >= threshold)))
    if undecided.size:
        below[undecided] = _sr_power(params, amp[undecided], phase[undecided],
                                     scatter_re[undecided], scatter_im[undecided]) < threshold
    return below
