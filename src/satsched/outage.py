"""Outage probability under statistical CSI.

With only channel statistics at hand the scheduler fixes a decode order
v_1..v_K by exponential SNR rates lambda (strongest mean first, so
ascending lambda).  The last decoded user v_K fails whenever any slot of
the phase-1 SINR chain breaks, and the whole two-hop transmission fails if
additionally the satellite hop cannot carry K*r_target.

Phase-1 success has a closed form built from the recursion

    A_1 = 1, B_1 = lambda_1,
    A_k = lambda_k * A_{k-1} / (gamma*B_{k-1} + lambda_k),
    B_k = (1+gamma)*B_{k-1} + lambda_k,

    P_success = lambda_K * A_{K-1} / (gamma*B_{K-1} + lambda_K)
                * exp(-gamma*((1+gamma)*B_{K-1} + lambda_K)).

Phase-2 outage is the shadowed-Rician CDF at 2**(K*r_target) - 1, evaluated
as a power series whose n-th term couples the Pochhammer coefficient with a
regularized lower incomplete gamma P(n+1, x) of integer order, in closed
form: a power series below x = n + 2, one minus a finite Poisson sum above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator

from .channel import SrParams, sr_snr_below
from .errors import NumericError, ParameterError
from .rate_core import _LN2, sic_chains_close, sinr_threshold

_PHASE2_RTOL = 1e-12
_PHASE2_MAX_TERMS = 1000


@dataclass(frozen=True)
class GroupCdi:
    """Statistical CSI for M user groups: one exponential SNR rate each."""

    lambdas: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lambdas", _check_lambdas(self.lambdas))

    @property
    def n_groups(self) -> int:
        return int(self.lambdas.size)

    @classmethod
    def from_sigma_sq(cls, sigma_sqs, tx_power: float) -> "GroupCdi":
        sig = np.asarray(sigma_sqs, dtype=float)
        if np.any(sig <= 0):
            raise ParameterError("sigma_sqs must be positive")
        return cls(lambdas=1.0 / (2.0 * tx_power * sig))


@dataclass(frozen=True)
class McStats:
    trials: int
    std_error: float
    p1_std_error: float
    p2_std_error: float


@dataclass(frozen=True)
class OutageReport:
    p1: float
    p2: float
    total: float
    mc_stats: McStats


def _check_lambdas(lambdas_in_order) -> np.ndarray:
    lam = np.asarray(lambdas_in_order, dtype=float)
    if lam.ndim != 1 or lam.size == 0:
        raise ParameterError("lambdas must be a non-empty 1-D array")
    if np.any(lam <= 0) or not np.all(np.isfinite(lam)):
        raise ParameterError("lambdas must be positive finite")
    return lam


def _check_gamma(gamma_t: float) -> float:
    if not (gamma_t >= 0 and math.isfinite(gamma_t)):
        raise ParameterError(f"gamma_t must be non-negative finite, got {gamma_t}")
    return float(gamma_t)


def phase1_outage(lambdas_in_order: np.ndarray, gamma_t: float) -> float:
    """Outage of the last decoded user over the relay SINR chain.

    Evaluated in log space and returned through expm1, so tiny outages and
    long chains both stay at machine precision.
    """
    return _phase1(_check_lambdas(lambdas_in_order).tolist(), _check_gamma(gamma_t))


def _phase1(lam: list, gamma_t: float) -> float:
    """phase1_outage on a non-empty list of positive finite floats and a
    non-negative finite gamma_t, without the checks."""
    if len(lam) == 1:
        return -math.expm1(-lam[0] * gamma_t)
    b = lam[0]
    log_success = 0.0
    for k in range(1, len(lam)):
        lk = lam[k]
        log_success += math.log(lk) - math.log(gamma_t * b + lk)
        if k < len(lam) - 1:
            b = (1.0 + gamma_t) * b + lk
    log_success -= gamma_t * ((1.0 + gamma_t) * b + lam[-1])
    return -math.expm1(log_success)


def _phase2_threshold(k_users: int, r_target: float) -> float:
    """Satellite SNR 2**(k_users*r_target) - 1; inf beyond float range."""
    with np.errstate(over="ignore"):
        return float(np.expm1(k_users * r_target * _LN2))


def _gammainc_int(a: int, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x), integer a >= 1, x >= 0: the
    power series of DLMF 8.7.1 below x = a + 1, else 1 minus the Poisson sum
    e**-x sum_{j<a} x**j / j! of DLMF 8.4.10 summed down from its largest term.
    The rounding of each leading term's exponent dominates: where P is a normal
    float its relative error is at most 2**-50 * (a*|ln x| + x + ln Gamma(a+1) + a + 8)."""
    if x == 0.0 or x == math.inf:  # P(a, 0) = 0 and P(a, inf) = 1
        return min(x, 1.0)
    if x < a + 1:
        term = total = 1.0
        n = a
        while term > total * 2.0**-53:
            n += 1
            term *= x / n
            total += term
        return total * math.exp(a * math.log(x) - x - math.lgamma(a + 1))
    term = total = math.exp((a - 1) * math.log(x) - x - math.lgamma(a))
    for j in range(a - 1, 0, -1):
        term *= j / x
        total += term
    return 1.0 - total


def phase2_outage(sr: SrParams, k_users: int, r_target: float) -> float:
    """Probability the satellite hop cannot carry k_users * r_target."""
    if k_users < 1:
        raise ParameterError(f"k_users must be >= 1, got {k_users}")
    if not (r_target >= 0 and math.isfinite(r_target)):
        raise ParameterError(f"r_target must be non-negative finite, got {r_target}")
    threshold = _phase2_threshold(k_users, r_target)
    if threshold == 0.0:
        return 0.0
    x0 = threshold / (2.0 * sr.b0 * sr.tx_power)
    denom = 2.0 * sr.b0 * sr.m_s + sr.omega
    z = sr.omega / denom
    pref = (2.0 * sr.b0 * sr.m_s / denom) ** sr.m_s
    coeff = 1.0  # (m_s)_n z^n / n!
    acc = _gammainc_int(1, x0)
    for n in range(1, _PHASE2_MAX_TERMS):
        coeff *= (sr.m_s + n - 1.0) * z / n
        term = coeff * _gammainc_int(n + 1, x0)
        acc += term
        # geometric tail bound: the coefficient ratio is monotone toward z,
        # so its supremum over the tail is max(current ratio, z), and the
        # gammainc factors only shrink
        ratio = max((sr.m_s + n) * z / (n + 1.0), z)
        if ratio < 1.0 and coeff * ratio / (1.0 - ratio) <= _PHASE2_RTOL * acc:
            p2 = pref * acc
            if not math.isfinite(p2):
                raise NumericError(f"phase-2 outage is not finite: pref={pref!r} sum={acc!r}")
            return min(1.0, p2)
    raise NumericError(
        "phase-2 series did not converge: z=%r x0=%r after %d terms"
        % (z, x0, _PHASE2_MAX_TERMS)
    )


def total_outage(p1: float, p2: float) -> float:
    """Failure of either independent hop: 1 - (1-p1)(1-p2)."""
    for name, p in (("p1", p1), ("p2", p2)):
        if not (0.0 <= p <= 1.0):
            raise ParameterError(f"{name} must lie in [0, 1], got {p}")
    return p1 + p2 - p1 * p2


def monte_carlo_outage(lambdas_in_order, sr: SrParams, r_target: float,
                       trials: int, rng: Generator) -> OutageReport:
    """Empirical outage over seeded trials.

    Per trial, user SNRs are exponential with the given rates and the
    satellite SNR is shadowed-Rician.  All user SNRs are drawn from rng
    first, then all satellite SNRs, so the estimate is a function of rng's
    state and p1 does not depend on sr.  The satellite hop fails where
    sr_snr_below says its SNR falls short of 2**(K*r_target) - 1, which is
    the comparison of the sampled SNRs, bit for bit.
    """
    lam = _check_lambdas(lambdas_in_order)
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    gamma_t = sinr_threshold(r_target)
    k = lam.size

    # rng.exponential(scale=1/lam) draws the same stream, scaled the same way
    snrs = rng.standard_exponential((trials, k))
    snrs *= 1.0 / lam
    phase1_fail = ~sic_chains_close(snrs.T[::-1], gamma_t)[0]
    phase2_fail = sr_snr_below(sr, trials, rng, _phase2_threshold(k, r_target))

    p1 = int(np.count_nonzero(phase1_fail)) / trials
    p2 = int(np.count_nonzero(phase2_fail)) / trials
    total = int(np.count_nonzero(phase1_fail | phase2_fail)) / trials

    def se(p):
        return math.sqrt(max(p * (1.0 - p), 0.0) / trials)

    return OutageReport(
        p1=p1,
        p2=p2,
        total=total,
        mc_stats=McStats(trials=trials, std_error=se(total),
                         p1_std_error=se(p1), p2_std_error=se(p2)),
    )
