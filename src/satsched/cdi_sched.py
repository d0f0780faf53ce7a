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
exactly once and bisection finds it.  find_zero_h settles most of the
bisection's sign tests by comparing with a bracket (a, b) that Newton on
q = 1 and rounding-error bounds on q certify, and evaluates h only strictly
inside it, so every root is plain bisection's, bit for bit.  It takes
the D values and the tail as they are; _slot_d_values builds the D values
and checks that they are positive and finite.  Both callers warm-start
the Newton run from the slot's current rate, which a sweep moves little
once the profile settles.  solve_theorem3 iterates coordinate updates to
that stationary profile, and aoius runs the same coordinate moves over
the discrete group rates; both carry the B prefix along each sweep and
take the powers of 1+gamma once per call.  aoius picks per slot the best
of the two groups bracketing the continuous optimum, which makes every
update, and hence the whole outage trace, monotone non-increasing.  The
root lies in the certified bracket, so aoius places it among the group
rates from the bracket alone unless a rate falls inside it or the two
groups' outages tie.  exhaustive_groups walks every K-subset in
lexicographic order with the shared prefixes' phase-1 sums carried along.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import partial

from numpy.random import Generator

from .errors import NumericError, ParameterError, budgeted_comb
from .outage import GroupCdi, _phase1, phase1_outage

_SWEEP_TOL = 1e-10
_MAX_SWEEPS = 10_000
_UNIT_ROUNDOFF = 2.0**-53
_NEWTON_MAX_STEPS = 200
_CERTIFY_MAX_WIDENINGS = 60
_CERTIFY_RANGE = 2.0**500  # D values and tail within [1/range, range]


def h_function(lam: float, ds, tail: float) -> float:
    """Stationarity function of a middle slot with D values `ds` and last
    term `tail`: positive left of the optimum, negative right of it."""
    if not 0.0 < lam < math.inf:
        raise ParameterError(f"lambda must be positive finite, got {lam}")
    if not (0.0 < tail < math.inf and all(0.0 < d < math.inf for d in ds)):
        raise ParameterError("D values and tail must be positive finite")
    return _h(lam, ds, tail)


def _h(x: float, ds, tail: float) -> float:
    """h_function at a positive finite x, without the check.  The sum runs
    left to right, as builtin sum() did up to Python 3.11, which the pinned
    outputs were made with; a loop is also two to three times cheaper than
    sum() over a generator at these lengths.  find_zero_h's bisection runs
    the same arithmetic inline."""
    s = 0.0
    for d in ds:
        s += 1.0 / (x + d)
    return 1.0 / x - s - tail


def _slot_d_values(lam: list, p: int, b: float, gamma_t: float, gpow: list) -> list:
    """The D values of middle slot p (0-based) of the float list `lam`.

    b is the B prefix through slot p-1, B_j = (1+g)*B_{j-1} + lam_j from
    B_0 = lam_0, and gpow[e] is g*(1+g)**e.  D_{p,p} = g*B_{p-1}; each later
    slot i has D = (g*B~_{i-1} + lam_i) / (g*(1+g)**(i-1-p)), where B~ is
    the B prefix with slot p left out: its analytic contribution to every D
    cancels, so the D values do not depend on the coordinate being
    optimized.  ParameterError unless gpow reaches e = len(lam) - 1 - p,
    the slot's tail, and every D value is positive and finite.
    """
    if len(gpow) < len(lam) - p:
        raise ParameterError("a power of 1+gamma is not finite")
    c = 1.0 + gamma_t
    ds = [gamma_t * b]
    bt = c * b  # slot p contributes nothing
    for i in range(p + 1, len(lam)):
        ds.append((gamma_t * bt + lam[i]) / gpow[i - 1 - p])
        bt = c * bt + lam[i]
    for d in ds:
        if not 0.0 < d < math.inf:
            raise ParameterError("D values must be positive finite")
    return ds


def _q(x: float, ds, tail: float) -> float:
    """q(x) = sum x/(x+D) + tail*x, so that x*h(x) = 1 - q(x)."""
    q = tail * x
    for d in ds:
        q += x / (x + d)
    return q


def _certified_bracket(ds, tail: float, guess: float | None = None) -> tuple:
    """(a, b) such that the computed h with D values `ds` and last term
    `tail` is > 0 at every lambda <= a and <= 0 at every lambda >= b;
    (0, inf) when that cannot be certified.

    Newton on q = 1 starts at the larger of the cold start
    1/(sum 1/D + tail) and one Newton step from a positive finite `guess`.
    q is concave, so its tangents lie above it and both points lie at or
    left of the root in exact arithmetic, and from there x rises
    monotonically.  In floating point a step from far right of the root
    cancels and can land right of it, and a step from the right lands left
    of the root, possibly at or below zero, where q has other branches.
    So every iterate is floored at the cold start, a positive point left of
    the root, which is also where a NaN step goes.  A bracket around its
    end point widens until rounding-error bounds (Higham's gamma_n: e_q on
    computed q, e_h on computed h) prove the sign of h through
    x*h(x) = 1 - q(x): positive wherever q < (1-e_h)/(1+e_h), non-positive
    wherever q > (1+e_h)/(1-e_h).  Those tests hold wherever x came from,
    so (a, b) is a proof for any guess.  With every D and the tail in
    [2**-500, 2**500], nothing overflows or underflows at the lambdas
    find_zero_h probes, all in [2**-400, 2**400].
    """
    lim = _CERTIFY_RANGE
    if not (tail <= lim and 1.0 / lim <= min(ds) and max(ds) <= lim):
        return 0.0, math.inf
    n = len(ds)
    e_h = 2 * (n + 4) * _UNIT_ROUNDOFF
    e_q = 2 * (2 * n + 4) * _UNIT_ROUNDOFF
    s = 0.0
    for d in ds:
        s += 1.0 / d
    cold = 1.0 / (s + tail)
    # Newton on q = 1, q and q' inline; a usable guess takes one step first
    warm = guess is not None and 0.0 < guess < math.inf
    x = guess if warm else cold
    for i in range(_NEWTON_MAX_STEPS + warm):
        q, dq = tail * x, tail
        for d in ds:
            t = x + d
            q += x / t
            dq += d / t / t
        step = (1.0 - q) / dq
        x = max(cold, x + step)  # cold for NaN too
        if (i or not warm) and abs(step) <= 1e-12 * x:
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


def find_zero_h(ds, tail: float, guess: float | None = None) -> float:
    """Unique zero of h with D values `ds` (positive finite, as
    _slot_d_values builds them) and last term `tail`, by bracketing from 1
    to the float range's ends and bisection to machine-level relative
    width, so |h(root)| lands well below 1e-9.
    Sign tests outside _certified_bracket's (a, b) are settled by comparing
    with a and b; only those strictly inside evaluate h, so the root is
    plain bisection's, bit for bit, for any `guess`.  A guess near the root
    (the slot's current rate) only shortens the certificate's Newton run."""
    a, b = _certified_bracket(ds, tail, guess)
    # x is left of the root (h > 0) when x <= a or (a < x < b and h(x) > 0)
    lo = hi = 1.0
    if 1.0 <= a or (1.0 < b and _h(1.0, ds, tail) > 0.0):
        while hi < 2.0**1023:  # the largest power of two a float holds
            hi *= 2.0
            if not (hi <= a or (hi < b and _h(hi, ds, tail) > 0.0)):
                break
        else:
            raise NumericError(f"no sign change up to lambda={hi}")
    else:
        while lo > 2.0**-1074:  # the smallest positive float
            lo /= 2.0
            if lo <= a or (lo < b and _h(lo, ds, tail) > 0.0):
                break
        else:
            raise NumericError(f"no sign change down to lambda={lo}")
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # interval at floating-point resolution
            break
        if mid <= a:
            lo = mid
        elif mid >= b:
            hi = mid
        else:  # h(mid) > 0, as _h computes it
            s = 0.0
            for d in ds:
                s += 1.0 / (mid + d)
            if 1.0 / mid - s - tail > 0.0:
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


def _gamma_powers(gamma_t: float, k: int) -> list:
    """g*(1+g)**e for e = 0..k-2, up to the first beyond float range."""
    gpow = []
    try:
        for e in range(k - 1):
            gpow.append(gamma_t * (1.0 + gamma_t) ** e)
    except OverflowError:
        pass
    return gpow


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
    c = 1.0 + gamma_t
    gpow = _gamma_powers(gamma_t, k)
    for sweeps in range(1, _MAX_SWEEPS + 1):
        delta = 0.0
        b = lam[0]  # the B prefix through the slot before p
        for p in range(1, k):
            try:
                if p < k - 1:
                    z = find_zero_h(_slot_d_values(lam, p, b, gamma_t, gpow),
                                    gpow[k - 1 - p], lam[p])
                else:
                    z = last_lambda_opt(b, gamma_t)
            except ParameterError as exc:
                raise NumericError(f"slot {p + 1} of {k} is beyond float range: {exc}") from exc
            new = max(z, lam[0])
            delta = max(delta, abs(new - lam[p]))
            lam[p] = new
            b = c * b + new
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


def _bracket_pick(below, above, lambdas, gamma_t, rates, slot, b, head, z):
    """Best group for `slot` of the two window members bracketing the
    slot's continuous optimum: `below` has the largest rate <= it, `above`
    the smallest rate > it, and either may be None, not both.

    The coordinate objective is unimodal in the slot rate with its peak at
    the optimum, so the discrete optimum over the window is one of the
    bracketing members; evaluating both keeps every move non-increasing in
    outage.  The lower outage wins; a tie goes to the rate nearer the
    optimum, then to the lower index, so only a tie needs the optimum
    itself: `z` is it, or a function that computes it.  `lambdas` is a list
    of floats and `rates` the selection's rates, whose entry at `slot` this
    overwrites; both candidates share b and head, _phase1's B prefix and
    log success before `slot`.  Returns (group, outage, evaluations).
    """
    best = best_out = None
    evals = 0
    for cand in (below, above):
        if cand is None:
            continue
        rates[slot] = lambdas[cand]
        out = _phase1(rates, gamma_t, slot, b, head)
        evals += 1
        if best is None or out < best_out:
            best, best_out = cand, out
        elif out == best_out:
            if callable(z):
                z = z()
            if (abs(lambdas[cand] - z), cand) < (abs(lambdas[best] - z), best):
                best = cand
    return best, best_out, evals


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
    a draw from rng (sorted by rate) and are revisited in sweeps: each slot
    moves to the best of the two groups of its ordering window that
    bracket its continuous optimum, the root of h (find_zero_h) for a
    middle slot and last_lambda_opt for the final slot.  Sweeps stop after
    the first sweep that does not lower the outage, or after max_iters.
    The returned trace starts at the initialization's outage and is
    monotone non-increasing.

    Each window is a bisected range of one stable ascending order of the
    rates: the selection's rates never decrease from slot to slot (slot 1
    is the minimum, the draw is sorted and every move lands strictly
    between the neighbours' rates), so no other slot holds a group inside
    a window.  Ties resolve as in a scan of all M groups: among equal
    rates the lowest group index.

    A middle slot needs its optimum only to place it among the window's
    rates, and find_zero_h's root lies in _certified_bracket's [a, b].  So
    when no window rate lies in (a, b], bisecting at a places it; the root
    itself is found only when one does, or when the two candidates'
    outages tie.  A slot visited again before any slot has moved has the
    same D values, window and candidates: the visit is skipped and counts
    its last evaluations again.
    """
    m = cdi.n_groups
    _selector_checks(m, k, gamma_t)
    if max_iters < 1:
        raise ParameterError(f"max_iters must be >= 1, got {max_iters}")

    lam = cdi.lambdas.tolist()
    # one stable ascending order of the rates, equal rates in index order:
    # a slot's window lower < rate < upper is the bisected range of it
    asc = sorted(range(m), key=lam.__getitem__)
    first = asc[0]  # the lowest index of the smallest rate
    if k == 1:
        out = _phase1([lam[first]], gamma_t)
        return GroupSchedule((first,), out, (out,), 1)

    # the same stream as drawing from the groups other than `first`
    picked = rng.choice(m - 1, size=k - 1, replace=False).tolist()
    selection = [first] + sorted((g + (g >= first) for g in picked), key=lam.__getitem__)
    asc_lam = [lam[g] for g in asc]

    rates = [lam[g] for g in selection]
    c = 1.0 + gamma_t
    gpow = _gamma_powers(gamma_t, k)
    evals = 1
    outage = _phase1(rates, gamma_t)
    trace = [outage]
    moves = 0  # visits that changed their slot's group
    seen_at = [-1] * k  # moves after each slot's last visit
    seen_evals = [0] * k  # that visit's evaluations
    for _sweep in range(max_iters):
        b, head = rates[0], 0.0  # _phase1's B prefix and log success before slot 2
        for slot in range(1, k):  # 0-based; slots 2..K in 1-based terms
            if slot > 1:  # carry both past slot - 1, as _phase1's loop does
                v = rates[slot - 1]
                head += math.log(v) - math.log(gamma_t * b + v)
                b = c * b + v
            lo = bisect_right(asc_lam, rates[slot - 1])
            hi = bisect_left(asc_lam, rates[slot + 1], lo) if slot < k - 1 else m
            if lo == hi:
                continue
            if seen_at[slot] == moves:  # nothing moved since this slot's last visit
                evals += seen_evals[slot]
                continue
            try:
                if slot < k - 1:
                    ds = _slot_d_values(rates, slot, b, gamma_t, gpow)
                    left, right = _certified_bracket(ds, gpow[k - 1 - slot], rates[slot])
                    mid = bisect_right(asc_lam, left, lo, hi)
                    z = partial(find_zero_h, ds, gpow[k - 1 - slot], rates[slot])
                    if mid != bisect_right(asc_lam, right, lo, hi):  # a rate in (left, right]
                        z = z()
                        mid = bisect_right(asc_lam, z, lo, hi)
                else:
                    z = last_lambda_opt(b, gamma_t)
                    mid = bisect_right(asc_lam, z, lo, hi)
            except ParameterError as exc:
                raise NumericError(f"slot {slot + 1} of {k} is beyond float range: {exc}") from exc
            above = asc[mid] if mid < hi else None
            # among equal rates the lowest index, first in the run
            below = asc[bisect_left(asc_lam, asc_lam[mid - 1], lo)] if mid > lo else None
            group, outage, used = _bracket_pick(below, above, lam, gamma_t, rates, slot,
                                                b, head, z)
            rates[slot] = lam[group]
            evals += used
            if group != selection[slot]:
                selection[slot] = group
                moves += 1
            seen_at[slot], seen_evals[slot] = moves, used
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
    order within each subset), the first minimum in lexicographic order of
    the ascending rates' positions.  Raises EnumerationBudgetError when
    comb(M, K) exceeds the budget of errors.budgeted_comb.

    The subsets are walked as itertools.combinations walks them, with the
    B prefix and the log-success sum of each subset's first K-1 slots
    carried from the subset before it, so each outage is _phase1's, bit
    for bit, at one logarithm and one expm1 per subset."""
    _selector_checks(cdi.n_groups, k, gamma_t)
    n_subsets = budgeted_comb(cdi.n_groups, k)
    lam = cdi.lambdas.tolist()
    asc = sorted(range(len(lam)), key=lam.__getitem__)
    x = [lam[g] for g in asc]
    n = len(x)
    if k == 1:
        outs = [_phase1([v], gamma_t) for v in x]
        best = outs.index(min(outs))
        return GroupSchedule((asc[best],), outs[best], (outs[best],), n_subsets)

    logs = [math.log(v) for v in x]
    c = 1.0 + gamma_t
    head = list(range(k - 1))  # positions of the first K-1 slots
    bs = [0.0] * (k - 1)  # B prefix through each of them
    ls = [0.0] * (k - 1)  # log success through each of them
    best, best_out = None, math.inf
    fresh = 0  # first head slot whose carried state is stale
    while True:
        for j in range(fresh, k - 1):
            v = x[head[j]]
            if j:
                ls[j] = ls[j - 1] + (logs[head[j]] - math.log(gamma_t * bs[j - 1] + v))
                bs[j] = c * bs[j - 1] + v
            else:
                bs[0] = v
        b, l = bs[-1], ls[-1]
        gb, cb = gamma_t * b, c * b
        for i in range(head[-1] + 1, n):
            v = x[i]
            out = -math.expm1(l + (logs[i] - math.log(gb + v)) - gamma_t * (cb + v))
            if out < best_out:
                best, best_out = head + [i], out
        # the next head in lexicographic order: slot j ends at n - k + j
        j = k - 2
        while j >= 0 and head[j] == n - k + j:
            j -= 1
        if j < 0:
            break
        head[j:] = range(head[j] + 1, head[j] + k - j)
        fresh = j
    return GroupSchedule(
        groups=tuple(asc[i] for i in best),
        outage=best_out,
        trace=(best_out,),
        evaluations=n_subsets,
    )
