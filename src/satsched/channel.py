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
import sys
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
    seeded generator reproduces the stream exactly.  numpy's Generator
    defines gamma(shape, scale) as scale * standard_gamma(shape),
    uniform(low, high) as low + (high - low) * random() and normal(loc,
    scale) as loc + scale * standard_normal(); the fills below take the
    same draws and form the same products in place.  Adding loc = 0.0
    would only turn a scatter of -0.0 into 0.0, which squares away.
    Returns (amplitude, phase, scatter_re, scatter_im).
    """
    if count < 1:
        raise ParameterError(f"count must be >= 1, got {count}")
    amp = rng.standard_gamma(params.m_s, size=count)
    amp *= params.omega / params.m_s
    np.sqrt(amp, out=amp)
    phase = rng.random(count)
    phase *= 2.0 * np.pi
    scatter = rng.standard_normal((2, count))
    scatter *= math.sqrt(params.b0)
    return amp, phase, scatter[0], scatter[1]


def _sr_power(params: SrParams, amp, phase, scatter_re, scatter_im) -> np.ndarray:
    """Satellite SNR tx_power * |amp * e^(i*phase) + scatter|^2 of the fade."""
    re = amp * np.cos(phase) + scatter_re
    im = amp * np.sin(phase) + scatter_im
    return params.tx_power * (re * re + im * im)


def sample_sr_snr(params: SrParams, count: int, rng: Generator) -> np.ndarray:
    """Draw satellite SNRs by composing the shadowed-Rician fade of
    _sr_fade; a seeded generator reproduces the stream exactly."""
    return _sr_power(params, *_sr_fade(params, count, rng))


# sr_snr_below's cutoffs, as multiples of sqrt(threshold/tx_power), and the
# least threshold/tx_power its error bound covers
_BELOW_CUT = 1.0 - 2.0**-32
_NOT_BELOW_CUT = 1.0 + 2.0**-22
_RADIUS_CAP = 2.0**10
_TAU_MIN = 2.0**-600


def sr_snr_below(params: SrParams, count: int, rng: Generator, threshold: float) -> np.ndarray:
    """sample_sr_snr(params, count, rng) < threshold, bit for bit, with the
    generator left in the same state, but without the trigonometry for
    draws that three scalar cutoffs already settle.

    With a the LOS amplitude, n the scatter and z = a*e^(i*phase) + n, the
    triangle inequality puts |z| in [||n| - a|, |n| + a].  Let D and R be
    those two ends as computed, and s = sqrt(tau), tau = threshold/tx_power,
    as computed.  A draw is settled

      below where R < U = s*(1 - 2**-32),
      not below where D > V = s*(1 + 2**-22) and R < R_cap = 2**10*s;

    every other draw is composed as sample_sr_snr composes it, on the
    gathered subset, which relies on np.cos and np.sin giving an element
    the same bits in a subset as in the full array.

    The bound.  Let u = 2**-53 and t = 2**-536, assume np.cos and np.sin
    are within eta <= 2**-34 of the exact values (they are within a few
    ulp), and let e = sqrt(2)*(eta + 1.01*u) <= 2**-33.49.  A rounded sum,
    square, product or root errs by a relative u, plus 2**-1075 for a
    product that underflows.  So sample_sr_snr's sum of squares q has

      (1-u)**2 * (|z| - e*a) - t  <=  sqrt(q)  <=  (1+u)**2 * (|z| + e*a) + t,

    and the exact ends R_x = |n| + a and D_x = ||n| - a| obey
    R_x <= R*(1 + 3.01*u) + 2*t and D_x >= D*(1 - u) - 2.01*u*R_x - t.
    The cutoffs are rounded multiples of s, U <= s*(1 - 2**-32)*(1 + u) and
    V >= s*(1 + 2**-22)*(1 - u), with R_cap exact.  As a <= R_x, a draw
    settled below has sqrt(q) < s*(1 - 2**-33) + 3*t; as
    2**10*(e + 2.01*u) < 0.36 * 2**-22, one settled not below has
    sqrt(q) > s*(1 + 2**-24) - 5*t.  The rounded s is within a factor
    1 +- 1.6*u of the exact sqrt(threshold/tx_power), and, rounding being
    monotone, tx_power*q rounds below a normal threshold where sqrt(q) lies
    below that exact root by a factor 1 - 2**-50, and to the threshold or
    above, inf included, where it lies above it by a factor 1 + 2**-50.
    Both margins hold as t <= 2**-236*s, which tau >= 2**-600 buys.  A
    draw settled below has q < tau, so its composition overflows nowhere,
    and where one settled not below overflows, inf is not below either.
    Where the threshold is not a normal float, or tau is below 2**-600,
    infinite or NaN, the cutoffs settle nothing.  A NaN or infinite R or D
    fails every cutoff test, so that draw is composed too.
    """
    amp, phase, scatter_re, scatter_im = _sr_fade(params, count, rng)
    threshold = float(threshold)
    tau = threshold / params.tx_power
    if not (threshold >= sys.float_info.min and _TAU_MIN <= tau < math.inf):
        return _sr_power(params, amp, phase, scatter_re, scatter_im) < threshold
    root = math.sqrt(tau)
    # an overflowing R or D is inf and a NaN one fails each test
    with np.errstate(over="ignore", invalid="ignore"):
        gap = np.multiply(scatter_im, scatter_im)
        radius = scatter_re * scatter_re
        radius += gap
        np.sqrt(radius, out=radius)  # |n|
        np.subtract(radius, amp, out=gap)
        np.abs(gap, out=gap)  # D
        radius += amp  # R
        below = radius < root * _BELOW_CUT
        settled = radius < root * _RADIUS_CAP
        settled &= gap > root * _NOT_BELOW_CUT
    settled |= below
    undecided = np.flatnonzero(~settled)
    if undecided.size:
        below[undecided] = _sr_power(params, amp[undecided], phase[undecided],
                                     scatter_re[undecided], scatter_im[undecided]) < threshold
    return below
