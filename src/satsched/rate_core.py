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

import numpy as np

from .channel import CsiRealization
from .errors import ConstraintError, ParameterError

_LN2 = math.log(2.0)
_ALPHA_TOL = 1e-9


def sinr_threshold(r_target: float) -> float:
    """SINR needed to carry r_target bit/s/Hz: 2**r_target - 1."""
    if not (r_target >= 0 and math.isfinite(r_target)):
        raise ParameterError(f"r_target must be non-negative finite, got {r_target}")
    try:
        return math.expm1(r_target * _LN2)
    except OverflowError:
        raise ParameterError(f"r_target {r_target} needs an SINR beyond float range") from None


def awgn_capacity(snr: float) -> float:
    """log2(1 + snr); snr may be +inf."""
    if math.isnan(snr) or snr < 0:
        raise ParameterError(f"snr must be non-negative, got {snr}")
    if math.isinf(snr):
        return math.inf
    return math.log1p(snr) / _LN2


@dataclass(frozen=True)
class Schedule:
    """A scheduling decision.

    users: user indices in relay decode order (descending SNR when emitted
        by the schedulers here).
    alphas: relay power fractions in *satellite decode position* order, or
        None for orthogonal access where no split applies.  The satellite
        decodes relay slot k k-th.
    """

    users: tuple
    alphas: tuple | None = None

    def __post_init__(self):
        users = tuple(int(u) for u in self.users)
        object.__setattr__(self, "users", users)
        if len(set(users)) != len(users):
            raise ConstraintError(f"duplicate users in schedule: {users}")
        if any(u < 0 for u in users):
            raise ConstraintError("user indices must be non-negative")
        if self.alphas is not None:
            alphas = tuple(float(a) for a in self.alphas)
            object.__setattr__(self, "alphas", alphas)
            if len(alphas) != len(users):
                raise ConstraintError("alphas must have one entry per user")
            if any(a < -_ALPHA_TOL or a > 1 + _ALPHA_TOL for a in alphas):
                raise ConstraintError(f"alphas outside [0, 1]: {alphas}")
            if sum(alphas) > 1 + _ALPHA_TOL:
                raise ConstraintError(f"alphas sum to {sum(alphas)} > 1")

    @property
    def n_users(self) -> int:
        return len(self.users)


@dataclass(frozen=True)
class RateReport:
    per_user_rates: tuple
    sum_rate: float
    binding_hop: str  # "terrestrial" or "satellite"
    meets_target: bool


def _chain_back_to_front(vals: list, inv: float):
    """Successive-decoding SINRs with denominator tail + inv, last slot first.

    Plain floats on purpose: chains are a handful of slots and sit on every
    scheduler's hot path, where ndarray temporaries cost more than the math.
    Returns (sinrs, total).
    """
    out = [0.0] * len(vals)
    tail = 0.0
    for k in range(len(vals) - 1, -1, -1):
        v = vals[k]
        denom = tail + inv
        if denom > 0.0:
            out[k] = v / denom
        else:
            # zero interference and noise-free: any positive power saturates
            out[k] = math.inf if v > 0.0 else 0.0
        tail += v
    return out, tail


def sic_chains_close(slot_snrs, gamma_t: float):
    """Batched decode-chain test: which chains clear gamma_t in every slot.

    slot_snrs yields one SNR array per decode slot, last decode slot first,
    holding one entry per chain; each slot is decoded against the slots
    after it plus unit noise.  Returns (closes, sums): the mask of chains
    that close and each chain's SNR sum, both updated in place slot by slot.
    """
    slots = iter(slot_snrs)
    sums = np.array(next(slots), dtype=float)  # the last slot sees noise only
    closes = sums >= gamma_t
    for v in slots:
        closes &= v >= gamma_t * (sums + 1.0)
        sums += v
    return closes, sums


def _checked_snr_list(snrs_in_order) -> list:
    s = np.asarray(snrs_in_order, dtype=float)
    if s.ndim != 1 or s.size == 0:
        raise ParameterError("snrs_in_order must be a non-empty 1-D array")
    vals = s.tolist()
    for v in vals:
        if not (v >= 0.0 and math.isfinite(v)):
            raise ParameterError("SNRs must be finite and non-negative")
    return vals


def relay_sinr_chain(snrs_in_order: np.ndarray) -> np.ndarray:
    """SINRs at the relay for users in decode order.

    Slot k is decoded against the residual interference of slots k+1..K
    plus unit noise, so the last slot sees clean SNR.
    """
    out, _ = _chain_back_to_front(_checked_snr_list(snrs_in_order), 1.0)
    return np.array(out)


def _checked_alpha_list(alphas_in_sat_order) -> list:
    a = np.asarray(alphas_in_sat_order, dtype=float)
    if a.ndim != 1 or a.size == 0:
        raise ParameterError("alphas must be a non-empty 1-D array")
    vals = a.tolist()
    total = 0.0
    for v in vals:
        if not (-_ALPHA_TOL <= v <= 1 + _ALPHA_TOL):
            raise ConstraintError("alphas must lie in [0, 1]")
        total += v
    if total > 1 + _ALPHA_TOL:
        raise ConstraintError(f"alphas sum to {total} > 1")
    return [0.0 if v < 0.0 else (1.0 if v > 1.0 else v) for v in vals]


def _sat_noise_over_power(sat_snr: float) -> float:
    if math.isnan(sat_snr) or sat_snr < 0:
        raise ParameterError(f"sat_snr must be non-negative, got {sat_snr}")
    return 0.0 if math.isinf(sat_snr) else 1.0 / sat_snr if sat_snr > 0 else math.inf


def satellite_sinr_chain(alphas_in_sat_order: np.ndarray, sat_snr: float) -> np.ndarray:
    """SINRs at the satellite given power fractions in decode order.

    gamma_j = alpha_j / (sum_{i>j} alpha_i + 1/sat_snr); the final position
    reduces to alpha_K * sat_snr.  sat_snr may be +inf (noise-free limit).
    """
    inv = _sat_noise_over_power(sat_snr)
    out, _ = _chain_back_to_front(_checked_alpha_list(alphas_in_sat_order), inv)
    return np.array(out)


def max_supported_users(sat_snr: float, r_target: float, n_users: int) -> int:
    """Largest K <= n_users the relay-satellite hop can carry at r_target,
    i.e. the largest K with 2**(K*r_target) - 1 <= sat_snr."""
    if r_target <= 0 or math.isnan(r_target):
        raise ParameterError(f"r_target must be positive, got {r_target}")
    if n_users < 0:
        raise ParameterError(f"n_users must be non-negative, got {n_users}")
    if math.isnan(sat_snr) or sat_snr < 0:
        raise ParameterError(f"sat_snr must be non-negative, got {sat_snr}")
    if math.isinf(sat_snr):
        return n_users
    if sat_snr < math.expm1(r_target * _LN2):
        return 0
    k = int(math.log2(1.0 + sat_snr) / r_target + 1e-12)
    # settle the boundary with the exact comparison
    while k >= 1 and not _hop_carries(k, r_target, sat_snr):
        k -= 1
    while k + 1 <= n_users and _hop_carries(k + 1, r_target, sat_snr):
        k += 1
    return min(k, n_users)


def _hop_carries(k: int, r_target: float, sat_snr: float) -> bool:
    """2**(k*r_target) - 1 <= sat_snr for a finite sat_snr."""
    try:
        return math.expm1(k * r_target * _LN2) <= sat_snr
    except OverflowError:  # the power exceeds every finite sat_snr
        return False


def allocate_relay_power(k_users: int, r_target: float, sat_snr: float):
    """Minimal power split supporting k_users at r_target over the satellite
    hop, leftover budget added to the first decoded position.  Returns the
    fractions in satellite decode order, or None when even the minimal split
    exceeds the unit budget.

    Position j (1-based) gets (gamma_t/sat_snr)*(1+gamma_t)**(K-j); the
    minimal total is (2**(K*r_target) - 1)/sat_snr.  An infinite sat_snr is
    allocated against the tightest supporting SNR 2**(K*r_target) - 1 so
    every satellite SINR still clears gamma_t in the noise-free limit.
    """
    if k_users < 1:
        raise ParameterError(f"k_users must be >= 1, got {k_users}")
    gamma_t = sinr_threshold(r_target)
    if max_supported_users(sat_snr, r_target, k_users) < k_users:
        return None
    s_eff = sat_snr if math.isfinite(sat_snr) else float(np.expm1(k_users * r_target * _LN2))
    powers = np.arange(k_users - 1, -1, -1, dtype=float)
    alphas = (gamma_t / s_eff) * np.power(1.0 + gamma_t, powers)
    alphas[0] += max(0.0, 1.0 - alphas.sum())
    return alphas


def throughput_power_split(snrs_in_order, r_target: float, sat_snr: float):
    """Split carrying each user's relay-chain rate through the satellite hop.

    Per-position rate targets equal the relay chain rates when C(sat_snr)
    can carry their sum; otherwise every target starts at r_target and the
    remaining satellite capacity is granted in decode order.  Unused budget
    goes to the first-decoded position, whose power interferes with nobody.
    Returns None exactly when k positions at r_target do not fit, the same
    condition as allocate_relay_power.
    """
    vals = _checked_snr_list(snrs_in_order)
    k = len(vals)
    if max_supported_users(sat_snr, r_target, k) < k:
        return None
    chain, _ = _chain_back_to_front(vals, 1.0)
    relay_rates = [awgn_capacity(g) for g in chain]
    cap = awgn_capacity(sat_snr)
    if math.isinf(cap) or sum(relay_rates) <= cap:
        targets = relay_rates
    else:
        surplus = cap - k * r_target
        targets = []
        for rate in relay_rates:
            extra = min(max(rate - r_target, 0.0), max(surplus, 0.0))
            targets.append(r_target + extra)
            surplus -= extra
    if math.isinf(sat_snr):
        # chain SINRs above the last position depend only on power ratios
        alphas = [0.0] * k
        alphas[-1] = 1.0
        tail = 1.0
        for j in range(k - 2, -1, -1):
            alphas[j] = math.expm1(targets[j] * _LN2) * tail
            tail += alphas[j]
        return np.array(alphas) / tail
    alphas = [0.0] * k
    inv = 1.0 / sat_snr
    tail = 0.0
    for j in range(k - 1, -1, -1):
        alphas[j] = math.expm1(targets[j] * _LN2) * (tail + inv)
        tail += alphas[j]
    if tail > 1.0 + _ALPHA_TOL:
        return None  # fp guard; the budget check above makes this unreachable
    alphas[0] += max(0.0, 1.0 - tail)
    return np.array(alphas)


def _binding_hop(terrestrial_cap: float, satellite_cap: float) -> str:
    return "terrestrial" if terrestrial_cap <= satellite_cap else "satellite"


def empty_rate_report(sat_snr: float) -> RateReport:
    return RateReport(
        per_user_rates=(),
        sum_rate=0.0,
        binding_hop=_binding_hop(0.0, awgn_capacity(sat_snr)),
        meets_target=False,
    )


def evaluate_schedule(schedule: Schedule, csi: CsiRealization, r_target: float) -> RateReport:
    """Rates for a superposition schedule.

    per_user_rates are the guaranteed end-to-end rates under the schedule's
    own power split: the minimum of the relay chain rate and the satellite
    chain rate per user.  sum_rate is the schedule's throughput, the smaller
    cut-set min{C(sum of scheduled SNRs), C(sat_snr)}: re-splitting relay
    power can always pass the full phase-1 sum through a satellite hop with
    that much capacity, so this is the sum the selection actually supports
    (and it upper-bounds the per-user total for any fixed split).
    binding_hop names the smaller cut-set.
    """
    if schedule.n_users == 0:
        return empty_rate_report(csi.sat_snr)
    if schedule.alphas is None:
        raise ParameterError("schedule has no power split to evaluate")
    users = schedule.users
    if max(users) >= csi.n_users:
        raise ParameterError("schedule references a user outside the realization")
    all_snrs = csi.user_snrs
    # the realization constructor already vetted the SNRs
    snrs = [float(all_snrs[u]) for u in users]
    relay, total_snr = _chain_back_to_front(snrs, 1.0)
    inv = _sat_noise_over_power(csi.sat_snr)
    sat, _ = _chain_back_to_front(_checked_alpha_list(schedule.alphas), inv)
    rates = tuple(
        min(awgn_capacity(relay[k]), awgn_capacity(sat[k]))
        for k in range(schedule.n_users)
    )
    terrestrial_cap = awgn_capacity(total_snr)
    satellite_cap = awgn_capacity(csi.sat_snr)
    sum_rate = min(terrestrial_cap, satellite_cap)
    meets = all(r >= r_target - 1e-12 for r in rates)
    return RateReport(
        per_user_rates=rates,
        sum_rate=sum_rate,
        binding_hop=_binding_hop(terrestrial_cap, satellite_cap),
        meets_target=meets,
    )
