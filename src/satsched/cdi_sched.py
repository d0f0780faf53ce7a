"""Group selection under statistical CSI: minimize the last decoded user's
phase-1 outage over which K of the M groups transmit.

The continuous relaxation (rates free above lambda_min) has a unique
stationary profile characterized coordinate-wise: slot 1 takes lambda_min,
the last slot has a closed-form optimum in the accumulated B prefix, and
every middle slot k solves h(lambda) = 0 with

    h(lambda) = 1/lambda - sum_{i in [k..K]} 1/(lambda + D_{k,i})
                - gamma*(1+gamma)**(K-k),

where the D values collect the influence of the other slots and do not
depend on slot k's own rate.  With two or more D values h is not monotone
(it rises back toward -tail, its last term, for large lambda), but
lambda*h(lambda) = 1 - q(lambda) with q(lambda) = sum lambda/(lambda+D)
+ tail*lambda concave and strictly increasing from 0, so h crosses zero
exactly once and bisection finds it; find_zero_h answers most of the
bisection's sign tests from q without evaluating h.  solve_theorem3 iterates
coordinate updates to that stationary profile; aoius runs the same
coordinate moves over the discrete group rates, picking per slot the best
of the two groups bracketing the continuous optimum, which makes every
update, and hence the whole outage trace, monotone non-increasing.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator

from .errors import NumericError, ParameterError, budgeted_comb
from .outage import GroupCdi, _phase1, phase1_outage

_BISECT_MAX_ITERS = 500
_SWEEP_TOL = 1e-10
_MAX_SWEEPS = 10_000
_UNIT_ROUNDOFF = 2.0**-53
_NEWTON_MAX_STEPS = 200
_CERTIFY_MAX_WIDENINGS = 60
_CERTIFY_RANGE = 2.0**500  # D values and tail within [1/range, range]


@dataclass(frozen=True)
class CoordinateContext:
    """Everything h needs for one middle slot: the SINR threshold, the slot
    position (1-based, in [2, K-1]), the slot count, and the D values for
    i = position..K."""

    gamma_t: float
    position: int
    n_selected: int
    d_values: tuple

    def __post_init__(self):
        if not (2 <= self.position <= self.n_selected - 1):
            raise ParameterError(
                f"position must be in [2, {self.n_selected - 1}], got {self.position}"
            )
        if len(self.d_values) != self.n_selected - self.position + 1:
            raise ParameterError("one D value per slot in [position, n_selected] required")
        if any(d <= 0 or not math.isfinite(d) for d in self.d_values):
            raise ParameterError("D values must be positive finite")
        if not (self.gamma_t > 0 and math.isfinite(self.gamma_t)):
            raise ParameterError(f"gamma_t must be positive finite, got {self.gamma_t}")


def _coordinate_context(lam: list, position: int, g: float) -> CoordinateContext:
    """The middle-slot context of slot `position` in the float list `lam`.

    The profile entry at `position` itself is ignored: its analytic
    contribution to every D cancels, so the D values are computed from the
    other slots only and the context is exactly independent of the
    coordinate being optimized.
    """
    k = len(lam)
    p = position - 1  # 0-based slot of the coordinate

    # weighted prefix sums skipping slot p: for target slot i (0-based),
    # B~_{i} = sum_{j <= i, j != p} (1+g)^(i-j) * lam_j
    ds = []
    # i = position (D_{k,k}): gamma * B_{k-1} over slots 0..p-1
    b = 0.0
    for j in range(p):
        b = (1.0 + g) * b + lam[j]
    ds.append(g * b)
    # i > position: (gamma * B~_{i-1} + lam_i) / (gamma * (1+g)^(i-1-p))
    bt = b  # running B over slots != p, currently through slot p-1
    for i in range(p + 1, k):
        # advance through slot i-1, skipping p
        if i - 1 != p:
            bt = (1.0 + g) * bt + lam[i - 1]
        else:
            bt = (1.0 + g) * bt  # slot p contributes nothing
        ds.append((g * bt + lam[i]) / (g * (1.0 + g) ** (i - 1 - p)))
    return CoordinateContext(gamma_t=g, position=position, n_selected=k,
                             d_values=tuple(ds))


def h_function(lam: float, context: CoordinateContext) -> float:
    """Stationarity function for a middle slot; positive left of the
    optimum, negative right of it."""
    if not (lam > 0 and math.isfinite(lam)):
        raise ParameterError(f"lambda must be positive finite, got {lam}")
    g = context.gamma_t
    tail = g * (1.0 + g) ** (context.n_selected - context.position)
    return 1.0 / lam - sum(1.0 / (lam + d) for d in context.d_values) - tail


def _q(x: float, ds: tuple, tail: float) -> float:
    """q(x) = sum x/(x+D) + tail*x, so that x*h(x) = 1 - q(x)."""
    q = tail * x
    for d in ds:
        q += x / (x + d)
    return q


def _certified_bracket(context: CoordinateContext) -> tuple:
    """(a, b) such that the computed h is > 0 at every lambda <= a and <= 0
    at every lambda >= b; (0, inf) when that cannot be certified.

    Newton on q = 1 starts at 1/(sum 1/D + tail), left of the root, and
    rises monotonically as q is concave.  A bracket around its end point
    widens until rounding-error bounds (Higham's gamma_n: e_q on computed
    q, e_h on computed h) prove the sign of h through x*h(x) = 1 - q(x):
    positive wherever q < (1-e_h)/(1+e_h), non-positive wherever
    q > (1+e_h)/(1-e_h).  With every D and the tail in [2**-500, 2**500],
    nothing overflows or underflows at the lambdas find_zero_h probes,
    all in [2**-400, 2**400].
    """
    ds = context.d_values
    g = context.gamma_t
    tail = g * (1.0 + g) ** (context.n_selected - context.position)
    lim = _CERTIFY_RANGE
    if not (tail <= lim and 1.0 / lim <= min(ds) and max(ds) <= lim):
        return 0.0, math.inf
    n = len(ds)
    e_h = 2 * (n + 4) * _UNIT_ROUNDOFF
    e_q = 2 * (2 * n + 4) * _UNIT_ROUNDOFF
    x = 1.0 / (sum(1.0 / d for d in ds) + tail)
    for _ in range(_NEWTON_MAX_STEPS):
        q, dq = tail * x, tail
        for d in ds:
            s = x + d
            q += x / s
            dq += d / s / s
        step = (1.0 - q) / dq
        x += step
        if abs(step) <= 1e-12 * x:
            break
    pos_cap = (1.0 - e_h) / (1.0 + e_h)
    neg_cap = (1.0 + e_h) / (1.0 - e_h)
    lo, hi = 0.0, math.inf
    delta = 2.0 * (e_q + 2.0 * e_h) / (x * dq)
    for _ in range(_CERTIFY_MAX_WIDENINGS):
        if delta >= 1.0:
            break
        if lo == 0.0 and _q(x - x * delta, ds, tail) * (1.0 + e_q) < pos_cap:
            lo = x - x * delta
        if hi == math.inf and _q(x + x * delta, ds, tail) * (1.0 - e_q) > neg_cap:
            hi = x + x * delta
        if lo > 0.0 and hi < math.inf:
            break
        delta *= 2.0
    return lo, hi


def find_zero_h(context: CoordinateContext) -> float:
    """Unique zero of h by bracketing from 1 to the float range's ends and
    bisection to machine-level relative width, so |h(root)| lands well below 1e-9.
    Sign tests outside _certified_bracket's (a, b) skip evaluating h, so
    the root is plain bisection's, bit for bit."""
    a, b = _certified_bracket(context)

    def positive(x):
        if x <= a:
            return True
        if x >= b:
            return False
        return h_function(x, context) > 0.0

    lo = hi = 1.0
    if positive(1.0):
        while hi < 2.0**1023:  # the largest power of two a float holds
            hi *= 2.0
            if not positive(hi):
                break
        else:
            raise NumericError(f"no sign change up to lambda={hi}")
    else:
        while lo > 2.0**-1074:  # the smallest positive float
            lo /= 2.0
            if positive(lo):
                break
        else:
            raise NumericError(f"no sign change down to lambda={lo}")
    for _ in range(_BISECT_MAX_ITERS):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # interval at floating-point resolution
            break
        if positive(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def last_lambda_opt(b_prefix: float, gamma_t: float) -> float:
    """Final-slot optimum: the positive root of lam^2 + gamma*B*lam - B,
    in the cancellation-free form 2B / (sqrt(gamma^2 B^2 + 4B) + gamma*B)."""
    if not (b_prefix > 0 and math.isfinite(b_prefix)):
        raise ParameterError(f"b_prefix must be positive finite, got {b_prefix}")
    if not (gamma_t >= 0 and math.isfinite(gamma_t)):
        raise ParameterError(f"gamma_t must be non-negative finite, got {gamma_t}")
    gb = gamma_t * b_prefix
    return 2.0 * b_prefix / (math.sqrt(gb * gb + 4.0 * b_prefix) + gb)


def slot_optimum(lam: list, position: int, gamma_t: float) -> float:
    """Continuous optimum of slot `position` (1-based, >= 2) of the float
    list `lam` with the other slots held: the zero of h for a middle slot,
    last_lambda_opt of the B prefix B_{K-1} for the last slot.  A D value,
    tail or B prefix beyond float range raises NumericError."""
    k = len(lam)
    try:
        if position < k:
            return find_zero_h(_coordinate_context(lam, position, gamma_t))
        b = 0.0
        for j in range(k - 1):
            b = (1.0 + gamma_t) * b + lam[j]
        return last_lambda_opt(b, gamma_t)
    except (OverflowError, ParameterError) as exc:
        raise NumericError(f"slot {position} of {k} is beyond float range: {exc}") from exc


@dataclass(frozen=True)
class Theorem3Solution:
    lambda_opt: tuple
    benchmark_outage: float
    iterations: int


@dataclass(frozen=True)
class GroupSchedule:
    groups: tuple
    outage: float
    trace: tuple
    evaluations: int = 0


def solve_theorem3(lambda_min: float, k: int, gamma_t: float) -> Theorem3Solution:
    """Stationary rate profile of the continuous relaxation: slot 1 pinned
    at lambda_min, coordinates swept to their unimodal optima (projected
    onto [lambda_min, inf)) until the largest change falls below
    _SWEEP_TOL relative to the largest rate; NumericError after
    _MAX_SWEEPS sweeps."""
    if not (lambda_min > 0 and math.isfinite(lambda_min)):
        raise ParameterError(f"lambda_min must be positive finite, got {lambda_min}")
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    if not (gamma_t > 0 and math.isfinite(gamma_t)):
        raise ParameterError(f"gamma_t must be positive finite, got {gamma_t}")
    if k == 1:
        return Theorem3Solution((lambda_min,), phase1_outage([lambda_min], gamma_t), 0)

    lam = [float(lambda_min)] * k
    for sweeps in range(1, _MAX_SWEEPS + 1):
        delta = 0.0
        for pos in range(2, k + 1):
            new = max(slot_optimum(lam, pos, gamma_t), lam[0])
            delta = max(delta, abs(new - lam[pos - 1]))
            lam[pos - 1] = new
        if delta <= 1e-12 + _SWEEP_TOL * max(lam):
            break
    else:
        raise NumericError(
            f"coordinate sweeps did not settle after {_MAX_SWEEPS} iterations "
            f"(last max change {delta})"
        )
    return Theorem3Solution(
        lambda_opt=tuple(lam),
        benchmark_outage=phase1_outage(lam, gamma_t),
        iterations=sweeps,
    )


def _bracket_pick(below, above, lambdas, z, gamma_t, selection, slot):
    """Best group for `slot` of the two window members bracketing z:
    `below` has the largest rate <= z, `above` the smallest rate > z, and
    either may be None, not both.

    The coordinate objective is unimodal in the slot rate with its peak at
    z, so the discrete optimum over the window is one of the bracketing
    members; evaluating both keeps every move non-increasing in outage.
    `lambdas` is a list of floats.  Returns (group, outage, evaluations).
    """
    best = None
    evals = 0
    for cand in (below, above):
        if cand is None:
            continue
        trial = list(selection)
        trial[slot] = cand
        out = _phase1([lambdas[g] for g in trial], gamma_t)
        evals += 1
        key = (out, abs(lambdas[cand] - z), cand)
        if best is None or key < best[0]:
            best = (key, cand, out)
    return best[1], best[2], evals


def _selector_checks(m: int, k: int, gamma_t: float) -> None:
    """The group selectors' shared checks: 1 <= k <= m and gamma_t > 0 finite."""
    if not (1 <= k <= m):
        raise ParameterError(f"k must be in [1, {m}], got {k}")
    if not (gamma_t > 0 and math.isfinite(gamma_t)):
        raise ParameterError(f"gamma_t must be positive finite, got {gamma_t}")


def aoius(cdi: GroupCdi, k: int, gamma_t: float, rng: Generator,
          max_iters: int = 100) -> GroupSchedule:
    """Alternating per-slot group reselection.

    Slot 1 is pinned to the smallest-rate group.  The other slots start as
    a draw from rng (sorted by rate) and are revisited in sweeps: each middle
    slot computes the continuous optimum z from find_zero_h, the final slot
    from last_lambda_opt, and moves to the best bracketing group inside its
    ordering window.  Sweeps stop after the first sweep that does not lower
    the outage, or after max_iters.
    The returned trace starts at the initialization's outage and is
    monotone non-increasing.

    Each window is a bisected range of one stable ascending order of the
    rates, less the groups the other slots hold, so a slot visit costs
    O(log M + K) instead of a scan of all M groups.  Ties resolve as in
    that scan: among equal rates the lowest group index.
    """
    m = cdi.n_groups
    _selector_checks(m, k, gamma_t)
    if max_iters < 1:
        raise ParameterError(f"max_iters must be >= 1, got {max_iters}")

    first = int(np.argmin(cdi.lambdas))
    lam = cdi.lambdas.tolist()
    if k == 1:
        out = _phase1([lam[first]], gamma_t)
        return GroupSchedule((first,), out, (out,), 1)

    others = np.array([g for g in range(m) if g != first], dtype=int)
    picked = rng.choice(others, size=k - 1, replace=False)
    picked = picked[np.argsort(cdi.lambdas[picked], kind="stable")]
    selection = [first] + [int(g) for g in picked]

    # one stable ascending order of the rates, equal rates in index order:
    # a slot's window lower < rate < upper is the bisected range of it
    asc = np.argsort(cdi.lambdas, kind="stable").tolist()
    asc_lam = [lam[g] for g in asc]
    free = [True] * m
    for g in selection:
        free[g] = False

    def first_free(start, stop):
        """First position in [start, stop) whose group is free, or None."""
        for p in range(start, stop):
            if free[asc[p]]:
                return p
        return None

    def last_free(start, stop):
        """Last position in [start, stop) whose group is free, or None."""
        for p in range(stop - 1, start - 1, -1):
            if free[asc[p]]:
                return p
        return None

    evals = 1
    outage = _phase1([lam[g] for g in selection], gamma_t)
    trace = [outage]
    for _sweep in range(max_iters):
        for slot in range(1, k):  # 0-based; slots 2..K in 1-based terms
            free[selection[slot]] = True  # the slot's own group stays eligible
            lo = bisect_right(asc_lam, lam[selection[slot - 1]])
            hi = bisect_left(asc_lam, lam[selection[slot + 1]], lo) if slot < k - 1 else m
            if first_free(lo, hi) is not None:
                z = slot_optimum([lam[g] for g in selection], slot + 1, gamma_t)
                mid = bisect_right(asc_lam, z, lo, hi)
                above = first_free(mid, hi)
                below = last_free(lo, mid)
                if below is not None:
                    # among equal rates the lowest index, first in the run
                    below = first_free(bisect_left(asc_lam, asc_lam[below], lo, below), below + 1)
                below = None if below is None else asc[below]
                above = None if above is None else asc[above]
                selection[slot], outage, used = _bracket_pick(below, above, lam, z, gamma_t,
                                                              selection, slot)
                evals += used
            free[selection[slot]] = False
        trace.append(outage)
        if trace[-1] >= trace[-2]:
            break
    return GroupSchedule(
        groups=tuple(selection),
        outage=outage,
        trace=tuple(trace),
        evaluations=evals,
    )


def exhaustive_groups(cdi: GroupCdi, k: int, gamma_t: float) -> GroupSchedule:
    """Minimum-outage K-subset by full enumeration (ascending-rate decode
    order within each subset).  Raises EnumerationBudgetError when
    comb(M, K) exceeds the budget of errors.budgeted_comb."""
    _selector_checks(cdi.n_groups, k, gamma_t)
    n_subsets = budgeted_comb(cdi.n_groups, k)
    lam = cdi.lambdas.tolist()
    asc = np.argsort(cdi.lambdas, kind="stable")
    best_groups = None
    best_outage = math.inf
    for combo in itertools.combinations(asc.tolist(), k):
        out = _phase1([lam[g] for g in combo], gamma_t)
        if out < best_outage:
            best_outage = out
            best_groups = combo
    return GroupSchedule(
        groups=tuple(int(g) for g in best_groups),
        outage=float(best_outage),
        trace=(float(best_outage),),
        evaluations=n_subsets,
    )
