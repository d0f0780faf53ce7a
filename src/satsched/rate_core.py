"""Rate bookkeeping for the two-phase decode-and-forward uplink.

Phase 1: K scheduled users transmit superposed to the relay, which decodes
by descending SNR with successive cancellation, so user at decode slot k
sees interference from slots k+1..K plus unit noise.  Phase 2: the relay
re-encodes with power fractions alpha and the satellite runs the same kind
of cancellation chain; the last decoded message sees no interference.  A
user's end-to-end rate is the minimum of its two hops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import CsiRealization, _checked_snrs
from .errors import ConstraintError, ParameterError

_LN2 = math.log(2.0)
_ALPHA_TOL = 1e-9


def sinr_threshold(r_target: float) -> float:
    """SINR needed to carry r_target bit/s/Hz: 2**r_target - 1."""
    if not (r_target >= 0 and math.isfinite(r_target)):
        raise ParameterError(f"r_target must be non-negative finite, got {r_target}")
    try:
        math.pow(2.0, r_target)  # 2**r_target itself must be a float
        return math.expm1(r_target * _LN2)
    except OverflowError:
        raise ParameterError(f"r_target {r_target} needs an SINR beyond float range") from None


def awgn_capacity(snr: float) -> float:
    """log2(1 + snr); snr may be +inf."""
    if math.isnan(snr) or snr < 0:
        raise ParameterError(f"snr must be non-negative, got {snr}")
    return math.log1p(snr) / _LN2


@dataclass(frozen=True)
class Schedule:
    """A scheduling decision.

    users: distinct non-negative integer user indices in relay decode order
        (descending SNR when emitted by the schedulers here), stored as ints.
    alphas: relay power fractions in *satellite decode position* order, or
        None for orthogonal access where no split applies.  The satellite
        decodes relay slot k k-th.  Fractions within _ALPHA_TOL of [0, 1]
        are stored clamped to it.

    This constructor checks every field; _finish_superposition builds its
    Schedules without it, under the same alpha rule, _checked_alphas.
    """

    users: tuple
    alphas: tuple | None = None

    def __post_init__(self):
        users = tuple(self.users)
        for u in users:
            if isinstance(u, bool) or not isinstance(u, (int, np.integer)):
                raise ConstraintError(f"user index {u!r} is not an integer")
        users = tuple(map(int, users))
        object.__setattr__(self, "users", users)
        if len(set(users)) != len(users):
            raise ConstraintError(f"duplicate users in schedule: {users}")
        if users and min(users) < 0:
            raise ConstraintError("user indices must be non-negative")
        if self.alphas is not None:
            alphas = tuple(map(float, self.alphas))
            if len(alphas) != len(users):
                raise ConstraintError("alphas must have one entry per user")
            object.__setattr__(self, "alphas", _checked_alphas(alphas))

    @property
    def n_users(self) -> int:
        return len(self.users)


def _checked_alphas(alphas: tuple) -> tuple:
    """A Schedule's alphas, a tuple of floats, clamped to [0, 1]; raises
    ConstraintError when one is NaN or more than _ALPHA_TOL outside [0, 1],
    or when their sum exceeds 1 + _ALPHA_TOL."""
    # one pass, left to right (sum() compensates from Python 3.12 on); the
    # sum is NaN when any alpha is, which low and high miss
    total, low, high = 0.0, math.inf, -math.inf
    for a in alphas:
        total += a
        if a < low:
            low = a
        if a > high:
            high = a
    if total != total or low < -_ALPHA_TOL or high > 1 + _ALPHA_TOL:
        raise ConstraintError(f"alphas outside [0, 1]: {alphas}")
    if total > 1 + _ALPHA_TOL:
        raise ConstraintError(f"alphas sum to {total} > 1")
    if low < 0.0 or high > 1.0:
        return tuple(min(max(a, 0.0), 1.0) for a in alphas)
    return alphas


class RateReport(NamedTuple):
    per_user_rates: tuple
    sum_rate: float
    meets_target: bool


def _chain_rates(vals, inv: float, out=None):
    """awgn_capacity of each successive-decoding SINR of the sequence vals,
    with denominator tail + inv > 0, last slot first; unchecked, as no SINR
    here is NaN or negative.  Where a list out is given, each rate is taken
    into it in place as min(out[k], rate).  Returns (rates, total).

    Plain floats on purpose: chains are a handful of slots and sit on every
    scheduler's hot path, where ndarray temporaries cost more than the math.
    """
    out = [math.inf] * len(vals) if out is None else out
    log1p = math.log1p
    tail = 0.0
    k = len(vals)
    for v in reversed(vals):
        k -= 1
        rate = log1p(v / (tail + inv)) / _LN2
        if rate < out[k]:
            out[k] = rate
        tail += v
    return out, tail


def sic_chains_close(draws: np.ndarray, scales, gamma_t: float) -> np.ndarray:
    """Batched decode-chain test: which chains clear gamma_t in every slot.

    draws is a (chains, K) float array of unscaled draws in decode order;
    slot j's SNRs are draws[:, j] * scales[j].  Each slot is decoded against
    the slots after it plus unit noise, S_j >= gamma_t * (tail + 1.0) with
    the tail summed last slot first.  The slots are scaled one column at a
    time into preallocated buffers, so no scaled copy of draws is made.
    Returns the mask of chains that close.
    """
    k = draws.shape[1]
    tail = np.multiply(draws[:, k - 1], scales[k - 1])  # the last slot sees noise only
    closes = tail >= gamma_t
    if k > 1:
        snr = np.empty_like(tail)
        need = np.empty_like(tail)
        clears = np.empty_like(closes)
        for j in range(k - 2, -1, -1):
            np.multiply(draws[:, j], scales[j], out=snr)
            np.add(tail, 1.0, out=need)
            need *= gamma_t
            np.greater_equal(snr, need, out=clears)
            closes &= clears
            tail += snr
    return closes


def max_supported_users(sat_snr: float, r_target: float, n_users: int) -> int:
    """Largest K <= n_users the relay-satellite hop can carry at r_target,
    i.e. the largest K with 2**(K*r_target) - 1 <= sat_snr."""
    if r_target <= 0 or math.isnan(r_target):
        raise ParameterError(f"r_target must be positive, got {r_target}")
    if n_users < 0:
        raise ParameterError(f"n_users must be non-negative, got {n_users}")
    if not (sat_snr >= 0 and math.isfinite(sat_snr)):
        raise ParameterError(f"sat_snr must be non-negative finite, got {sat_snr}")
    estimate = math.log2(1.0 + sat_snr) / r_target + 1e-12
    k = n_users if estimate >= n_users else int(estimate)
    # settle the boundary with the exact comparison
    while k >= 1 and not _hop_carries(k, r_target, sat_snr):
        k -= 1
    while k + 1 <= n_users and _hop_carries(k + 1, r_target, sat_snr):
        k += 1
    return k


def _hop_carries(k: int, r_target: float, sat_snr: float) -> bool:
    """2**(k*r_target) - 1 <= sat_snr for a finite sat_snr.

    math.pow rather than expm1 of k*r_target*ln2, whose rounded product
    puts 2**11 - 1 above 2047.0 and 2**1024 - 1 below the largest float;
    2**x is exact at every integer x."""
    try:
        return math.pow(2.0, k * r_target) - 1.0 <= sat_snr
    except OverflowError:  # the power exceeds every finite sat_snr
        return False


def _split_power(relay_rates: list, r_target: float, sat_snr: float, cap: float):
    """Relay power fractions in decode order carrying relay_rates through a
    satellite hop of capacity cap = awgn_capacity(sat_snr) that can carry
    len(relay_rates) positions at r_target; None only when rounding pushes
    their sum past 1 + _ALPHA_TOL."""
    k = len(relay_rates)
    total = 0.0
    for rate in relay_rates:  # left to right: sum() compensates from Python 3.12 on
        total += rate
    if total <= cap:
        targets = relay_rates
    else:
        surplus = cap - k * r_target
        targets = []
        for rate in relay_rates:
            # min(max(rate - r_target, 0.0), max(surplus, 0.0)) bit for bit, no calls
            extra = rate - r_target
            extra = 0.0 if 0.0 > extra else extra
            room = 0.0 if 0.0 > surplus else surplus
            extra = room if room < extra else extra
            targets.append(r_target + extra)
            surplus -= extra
    alphas = [0.0] * k
    inv = 1.0 / sat_snr
    tail = 0.0
    for j in range(k - 1, -1, -1):
        alphas[j] = math.expm1(targets[j] * _LN2) * (tail + inv)
        tail += alphas[j]
    if tail > 1.0 + _ALPHA_TOL:
        return None
    alphas[0] += max(0.0, 1.0 - tail)
    return alphas


def throughput_power_split(snrs_in_order, r_target: float, sat_snr: float):
    """Split carrying each user's relay-chain rate through the satellite hop.

    Per-position rate targets equal the relay chain rates when C(sat_snr)
    can carry their sum; otherwise every target starts at r_target and the
    remaining satellite capacity is granted in decode order.  Unused budget
    goes to the first-decoded position, whose power interferes with nobody.
    Returns None exactly when the satellite hop cannot carry k positions at
    r_target, i.e. when 2**(k*r_target) - 1 > sat_snr.
    """
    vals = _checked_snrs(snrs_in_order).tolist()
    k = len(vals)
    if max_supported_users(sat_snr, r_target, k) < k:
        return None
    relay_rates, _ = _chain_rates(vals, 1.0)
    # the budget check above makes _split_power's fp guard unreachable
    alphas = _split_power(relay_rates, r_target, sat_snr, awgn_capacity(sat_snr))
    return None if alphas is None else np.array(alphas)


# no user served
EMPTY_RATE_REPORT = RateReport(per_user_rates=(), sum_rate=0.0, meets_target=False)


def evaluate_schedule(schedule: Schedule, csi: CsiRealization, r_target: float) -> RateReport:
    """Rates for a superposition schedule.

    per_user_rates are the guaranteed end-to-end rates under the schedule's
    own power split: the minimum of the relay chain rate and the satellite
    chain rate per user.  sum_rate is the schedule's throughput, the smaller
    cut-set min{C(sum of scheduled SNRs), C(sat_snr)}: re-splitting relay
    power can always pass the full phase-1 sum through a satellite hop with
    that much capacity, so this is the sum the selection actually supports
    (and it upper-bounds the per-user total for any fixed split).
    """
    if schedule.n_users == 0:
        return EMPTY_RATE_REPORT
    if schedule.alphas is None:
        raise ParameterError("schedule has no power split to evaluate")
    users = schedule.users
    if max(users) >= csi.n_users:
        raise ParameterError("schedule references a user outside the realization")
    all_snrs = csi.user_snrs
    # the realization already vetted the SNRs, the Schedule its alphas
    relay_rates, total_snr = _chain_rates([float(all_snrs[u]) for u in users], 1.0)
    return _rate_report(relay_rates, total_snr, schedule.alphas, csi.sat_snr,
                        awgn_capacity(csi.sat_snr), r_target)


def _rate_report(relay_rates: list, total_snr: float, alphas, sat_snr: float,
                 satellite_cap: float, r_target: float) -> RateReport:
    """evaluate_schedule from the relay chain's rates, which it overwrites,
    and SNR sum, and the satellite hop's capacity awgn_capacity(sat_snr)."""
    rates, _ = _chain_rates(alphas, 1.0 / sat_snr, relay_rates)
    # no rate is NaN, so the smallest meets the target when all do
    return RateReport(tuple(rates), min(awgn_capacity(total_snr), satellite_cap),
                      min(rates) >= r_target - 1e-12)


def _finish_superposition(users, snrs: list, r_target: float, sat_snr: float):
    """(Schedule, RateReport) of users decoded in the order given, with
    SNRs snrs: throughput_power_split, a Schedule built without its
    constructor but under its alpha rule, and evaluate_schedule, in one pass
    with the same arithmetic, so every alpha and rate has the same bits.

    Unchecked: users are distinct non-negative Python ints, the SNRs are
    finite and non-negative, sat_snr is positive and finite, and the
    satellite hop carries len(users) positions at r_target.  None where
    throughput_power_split's fp guard would be.
    """
    relay_rates, total_snr = _chain_rates(snrs, 1.0)
    sat_cap = awgn_capacity(sat_snr)
    alphas = _split_power(relay_rates, r_target, sat_snr, sat_cap)
    if alphas is None:
        return None
    alphas = _checked_alphas(tuple(alphas))
    schedule = object.__new__(Schedule)
    object.__setattr__(schedule, "users", tuple(users))
    object.__setattr__(schedule, "alphas", alphas)
    return schedule, _rate_report(relay_rates, total_snr, alphas, sat_snr, sat_cap, r_target)
