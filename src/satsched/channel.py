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


@dataclass(frozen=True)
class CsiRealization:
    """Instantaneous SNRs: one entry per ground user plus the satellite SNR,
    positive and finite (a huge one models an unconstrained satellite hop)."""

    user_snrs: np.ndarray
    sat_snr: float

    def __post_init__(self):
        snrs = np.asarray(self.user_snrs, dtype=float)
        if snrs.ndim != 1 or snrs.size == 0:
            raise ParameterError("user_snrs must be a non-empty 1-D array")
        if not np.all(np.isfinite(snrs)) or np.any(snrs < 0):
            raise ParameterError("user SNRs must be finite and non-negative")
        object.__setattr__(self, "user_snrs", snrs)
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


def sample_sr_snr(params: SrParams, count: int, rng: Generator) -> np.ndarray:
    """Draw satellite SNRs by composing the fade: Nakagami LOS amplitude
    (gamma-distributed power, shape m_s, mean omega), uniform LOS phase,
    complex Gaussian scatter with per-component variance b0.

    Draw order is fixed (LOS power, phase, scatter re, scatter im) so a
    seeded generator reproduces the stream exactly.
    """
    if count < 1:
        raise ParameterError(f"count must be >= 1, got {count}")
    los_power = rng.gamma(shape=params.m_s, scale=params.omega / params.m_s, size=count)
    phase = rng.uniform(0.0, 2.0 * np.pi, size=count)
    scatter_re = rng.normal(0.0, math.sqrt(params.b0), size=count)
    scatter_im = rng.normal(0.0, math.sqrt(params.b0), size=count)
    amp = np.sqrt(los_power)
    re = amp * np.cos(phase) + scatter_re
    im = amp * np.sin(phase) + scatter_im
    return params.tx_power * (re * re + im * im)
