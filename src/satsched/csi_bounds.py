"""Feasibility test and sum-rate sandwich for terrestrial user selection.

Filling the decode slots from the last one backwards, each with the
smallest remaining SNR that clears its threshold (the cheapest SNR that can
absorb it), yields the economy selection S_hat: the K cheapest SNRs that
could possibly close the SINR chain.  The instance supports K users exactly
when that recursion completes, and the best selection's SNR profile is
sandwiched between the economy selection (with the strongest user
substituted into slot 1) and a geometric profile anchored at the strongest
SNR.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .channel import CsiRealization
from .errors import ParameterError
from .rate_core import awgn_capacity, sinr_threshold


@dataclass(frozen=True)
class BoundsResult:
    lb_snrs: tuple | None
    ub_snrs: tuple
    lb_rate: float
    ub_rate: float
    feasible: bool


def _check_selection_args(snrs, k: int, gamma_t: float) -> np.ndarray:
    s = np.asarray(snrs, dtype=float)
    if s.ndim != 1 or s.size == 0:
        raise ParameterError("snrs must be a non-empty 1-D array")
    if np.any(s < 0) or not np.all(np.isfinite(s)):
        raise ParameterError("SNRs must be finite and non-negative")
    if not (1 <= k <= s.size):
        raise ParameterError(f"k must be in [1, {s.size}], got {k}")
    if not (gamma_t > 0 and math.isfinite(gamma_t)):
        raise ParameterError(f"gamma_t must be positive finite, got {gamma_t}")
    return s


def _economy_recursion(asc: list, k: int, gamma_t: float) -> list:
    """Fill decode slots K..1 with the cheapest admissible SNRs of asc, a
    list of SNRs in ascending order.

    Returns the picks in fill order (slot K first), stopping early when a
    slot has no admissible element left, so K users fit exactly when all K
    picks are made.  Slot thresholds gamma*(tail+1) grow with every pick,
    so elements once below threshold stay inadmissible and one
    left-to-right sweep of asc fills all slots.  No pick depends on K.
    """
    picks = []
    tail_sum = 0.0
    i = 0
    n = len(asc)
    while len(picks) < k:
        i = bisect_left(asc, gamma_t * (tail_sum + 1.0), i)
        if i == n:
            break
        picks.append(asc[i])
        tail_sum += asc[i]
        i += 1
    return picks


def lower_bound_snrs(snrs, k: int, gamma_t: float):
    """Economy slot profile with the strongest SNR substituted into slot 1.

    None when the instance cannot support k users at gamma_t.
    """
    s = _check_selection_args(snrs, k, gamma_t)
    hat = _economy_recursion(np.sort(s).tolist(), k, gamma_t)
    if len(hat) < k:
        return None
    hat.reverse()  # decode order
    hat[0] = float(s.max())
    return np.array(hat)


def upper_bound_snrs(s_max: float, k: int, gamma_t: float) -> np.ndarray:
    """Geometric SNR profile anchored at the strongest user.

    Slot j < K gets s_max/(1+gamma_t)**(j-1); the final slot gets
    s_max/((1+gamma_t)**(K-2) * gamma_t) - 1, which can go negative for
    large K and is reported as-is (callers clamp at zero when summing); it
    is -1 when (1+gamma_t)**(K-2) overflows.
    """
    if not (s_max >= 0 and math.isfinite(s_max)):
        raise ParameterError(f"s_max must be non-negative finite, got {s_max}")
    if not (gamma_t > 0 and math.isfinite(gamma_t)):
        raise ParameterError(f"gamma_t must be positive finite, got {gamma_t}")
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    if k == 1:
        return np.array([s_max])
    with np.errstate(over="ignore"):  # an overflowing power is inf: slot 0
        out = s_max / np.power(1.0 + gamma_t, np.arange(k, dtype=float))
    try:
        out[k - 1] = s_max / ((1.0 + gamma_t) ** (k - 2) * gamma_t) - 1.0
    except OverflowError:
        out[k - 1] = -1.0
    return out


def feasibility_check(snrs, k: int, gamma_t: float) -> bool:
    """True when some k-user selection closes the full SINR chain.

    Equivalent to the economy recursion completing: a slot's economy pick
    already implies its threshold is at most the strongest SNR, and a slot
    with no admissible element cannot be filled by any selection.
    """
    s = _check_selection_args(snrs, k, gamma_t)
    return len(_economy_recursion(np.sort(s).tolist(), k, gamma_t)) == k


def sum_rate_bounds(csi: CsiRealization, k: int, r_target: float) -> BoundsResult:
    """Sandwich on the best achievable sum rate for k scheduled users.

    Both bounds are capped by the satellite cut-set C(sat_snr).  On an
    infeasible instance lb_snrs is None and lb_rate is 0.
    """
    gamma_t = sinr_threshold(r_target)
    # lower_bound_snrs checks the arguments for both bounds
    lb = lower_bound_snrs(csi.user_snrs, k, gamma_t)
    sat_cap = awgn_capacity(csi.sat_snr)
    feasible = lb is not None
    lb_rate = min(awgn_capacity(float(lb.sum())), sat_cap) if feasible else 0.0

    ub = upper_bound_snrs(float(csi.user_snrs.max()), k, gamma_t)
    ub_rate = min(awgn_capacity(float(np.clip(ub, 0.0, None).sum())), sat_cap)

    return BoundsResult(
        lb_snrs=tuple(lb) if feasible else None,
        ub_snrs=tuple(ub),
        lb_rate=lb_rate,
        ub_rate=ub_rate,
        feasible=feasible,
    )
