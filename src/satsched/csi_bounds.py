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
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .channel import CsiRealization, _checked_snrs
from .errors import ParameterError
from .rate_core import awgn_capacity, sinr_threshold


class BoundsResult(NamedTuple):
    lb_rate: float
    ub_rate: float
    feasible: bool


def _sorted_selection_args(snrs: np.ndarray, k: int, gamma_t: float) -> list:
    """Already checked SNRs as an ascending list, once k and gamma_t are checked."""
    asc = np.sort(snrs).tolist()
    if not (1 <= k <= len(asc)):
        raise ParameterError(f"k must be in [1, {len(asc)}], got {k}")
    if not (gamma_t > 0 and math.isfinite(gamma_t)):
        raise ParameterError(f"gamma_t must be positive finite, got {gamma_t}")
    return asc


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


@lru_cache(maxsize=256)
def _upper_divisors(gamma_t: float, k: int) -> tuple:
    """Divisors of the strongest SNR in the geometric upper profile, as
    plain floats: (1+gamma_t)**(j-1) for slots j < K, then
    (1+gamma_t)**(K-2) * gamma_t for slot K (inf where that overflows),
    whose quotient less 1 is the slot's SNR; (1.0,) at K = 1.
    """
    if k == 1:
        return (1.0,)
    with np.errstate(over="ignore"):  # an overflowing power is inf: slot 0
        powers = np.power(1.0 + gamma_t, np.arange(k, dtype=float))
    try:
        last = (1.0 + gamma_t) ** (k - 2) * gamma_t
    except OverflowError:
        last = math.inf
    return (*powers[:-1].tolist(), last)


def _pairwise_sum(xs: list) -> float:
    """float(np.sum(xs)) bit for bit on plain floats, in numpy's float64
    order: under 8 values left to right; up to 128 in eight strided
    accumulators, combined ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the
    rest left to right; beyond that each half, split at a multiple of 8,
    on its own.  numpy starts the reduction from its identity +0.0, which
    only turns a -0.0 sum into 0.0.
    """
    n = len(xs)
    if n < 8:
        total = 0.0
        for v in xs:  # left to right: sum() compensates from Python 3.12 on
            total += v
        return total
    if n > 128:
        half = n // 2 - (n // 2) % 8
        return _pairwise_sum(xs[:half]) + _pairwise_sum(xs[half:])
    m = n - n % 8
    r = []
    for j in range(8):
        acc = xs[j]
        for v in xs[j + 8:m:8]:
            acc += v
        r.append(acc)
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for v in xs[m:]:
        total += v
    return total + 0.0


def feasibility_check(snrs, k: int, gamma_t: float) -> bool:
    """True when some k-user selection closes the full SINR chain.

    Equivalent to the economy recursion completing: a slot's economy pick
    already implies its threshold is at most the strongest SNR, and a slot
    with no admissible element cannot be filled by any selection.
    """
    asc = _sorted_selection_args(_checked_snrs(snrs), k, gamma_t)
    return len(_economy_recursion(asc, k, gamma_t)) == k


def sum_rate_bounds(csi: CsiRealization, k: int, r_target: float) -> BoundsResult:
    """Sandwich on the best achievable sum rate for k scheduled users.

    The lower profile is the economy selection in decode order with the
    strongest SNR substituted into slot 1, the upper one the geometric
    profile of _upper_divisors, its final slot clamped at zero.  Both are
    summed in numpy's order, and both bounds are capped by the satellite
    cut-set C(sat_snr).  On an infeasible instance lb_rate is 0.
    """
    gamma_t = sinr_threshold(r_target)
    # one ascending list serves the economy fill and the maximum
    asc = _sorted_selection_args(csi.user_snrs, k, gamma_t)
    s_max = asc[-1]
    lb = _economy_recursion(asc, k, gamma_t)
    sat_cap = awgn_capacity(csi.sat_snr)
    feasible = len(lb) == k
    if feasible:
        lb.reverse()  # decode order
        lb[0] = s_max
        lb_rate = min(awgn_capacity(_pairwise_sum(lb)), sat_cap)
    else:
        lb_rate = 0.0

    ub = [s_max / d for d in _upper_divisors(gamma_t, k)]
    if k > 1:  # only the final slot can go negative
        ub[-1] = max(ub[-1] - 1.0, 0.0)
    ub_rate = min(awgn_capacity(_pairwise_sum(ub)), sat_cap)
    return BoundsResult(lb_rate, ub_rate, feasible)
