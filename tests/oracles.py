"""Independent reference implementations used to pin test expectations.

Everything here is written against the math directly (plain loops, scipy
quadrature, triangular solves) and deliberately avoids the production code
paths it is used to check.  The exceptions are the earlier versions of
the decode-chain loops, the CSI schedulers and the TDMA baseline, their
power split and finishing step, the sum-rate sandwich and its upper
profile, the continuous CDI benchmark solver and its slot optimum, the
two CDI group selectors, the Monte-Carlo estimator and its satellite
fade draws, kept verbatim as equivalence references.
"""

from __future__ import annotations

import decimal
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.linalg import solve_triangular
from scipy.special import hyp1f1

_LN2 = math.log(2.0)


def chain_sinrs(snrs_in_order, noise=1.0):
    """Decode-order SINRs with a plain loop: slot k against slots k+1..K
    plus noise.  The relay chain has unit noise; the satellite chain takes
    power fractions and noise 1/sat_snr, where noise 0 (an infinite
    satellite SNR) gives a slot with nothing after it infinite SINR."""
    s = list(map(float, snrs_in_order))
    out = []
    for k in range(len(s)):
        denom = sum(s[k + 1:]) + noise
        out.append(s[k] / denom if denom > 0 else math.inf)
    return out


def chain_back_to_front(vals: list, inv: float):
    """Successive-decoding SINRs with denominator tail + inv > 0, last slot first.

    rate_core's chain loop before it took the capacities in the same pass.
    Returns (sinrs, total).
    """
    out = [0.0] * len(vals)
    tail = 0.0
    for k in range(len(vals) - 1, -1, -1):
        v = vals[k]
        out[k] = v / (tail + inv)
        tail += v
    return out, tail


def chain_capacities(sinrs: list) -> list:
    """awgn_capacity of each chain SINR, unchecked: chain_back_to_front
    never yields a NaN or a negative SINR."""
    return [math.log1p(g) / _LN2 for g in sinrs]


def subset_feasible(snrs_desc, gamma_t):
    return all(g >= gamma_t for g in chain_sinrs(snrs_desc))


def brute_force_best_subset(snrs, k, gamma_t):
    """(best index tuple, best SNR sum) over feasible k-subsets, or None.

    Subsets are decoded strongest-first; ties keep the lexicographically
    first index tuple, matching a stable argmax over enumeration order.
    """
    snrs = np.asarray(snrs, dtype=float)
    best = None
    for combo in itertools.combinations(range(snrs.size), k):
        vals = sorted((float(snrs[i]) for i in combo), reverse=True)
        if not subset_feasible(vals, gamma_t):
            continue
        total = sum(vals)
        if best is None or total > best[1] + 1e-12:
            best = (combo, total)
    return best


def exhaustive_itertools(snrs, sat_snr, k, r_target):
    """Users, in decode order, that exhaustive() picks, or None.

    exhaustive() written as a list of itertools.combinations tuples: the
    first feasible maximum-sum K-subset, in lexicographic order over the
    positions of the stable descending SNR order.
    """
    s = np.asarray(snrs, dtype=float)
    gamma_t = math.expm1(r_target * math.log(2.0))
    if math.expm1(k * r_target * math.log(2.0)) > sat_snr:
        return None
    order = np.argsort(-s, kind="stable")
    combos = np.array(list(itertools.combinations(order.tolist(), k)), dtype=int)
    vals = s[combos]
    tail = np.concatenate(
        [np.cumsum(vals[:, ::-1], axis=1)[:, ::-1][:, 1:], np.zeros((vals.shape[0], 1))],
        axis=1,
    )
    feasible = np.all(vals >= gamma_t * (tail + 1.0), axis=1)
    if not feasible.any():
        return None
    sums = np.where(feasible, vals.sum(axis=1), -np.inf)
    return tuple(combos[int(np.argmax(sums))].tolist())


def brute_force_feasible(snrs, k, gamma_t):
    return brute_force_best_subset(snrs, k, gamma_t) is not None


def determine_k_descending(csi, r_target):
    """determine_k as a search from the satellite hop's limit downwards:
    the largest K <= max_supported_users whose feasibility_check passes."""
    from satsched import feasibility_check, max_supported_users, sinr_threshold

    gamma_t = sinr_threshold(r_target)
    upper = max_supported_users(csi.sat_snr, r_target, csi.n_users)
    for k in range(upper, 0, -1):
        if feasibility_check(csi.user_snrs, k, gamma_t):
            return k
    return 0


def phase1_success_linear(lambdas, gamma_t):
    """Exact success probability of the full decode chain.

    The constraints S_j >= gamma*(sum_{i>j} S_i + 1) are linear, so
    y = (I - gamma*U) S maps the success region onto the orthant
    {y_j >= gamma} with unit Jacobian; the transformed exponential
    density integrates in closed form with a = (I - gamma*U)^{-T} lambda.
    """
    lam = np.asarray(lambdas, dtype=float)
    k = lam.size
    a_mat = np.eye(k) - gamma_t * np.triu(np.ones((k, k)), 1)
    a = solve_triangular(a_mat.T, lam, lower=True)
    return float(np.prod(lam / a) * math.exp(-gamma_t * a.sum()))


def phase1_outage_linear(lambdas, gamma_t):
    """Chain outage via the substitution oracle, kept accurate for tiny
    outages by assembling 1 - success in log space."""
    lam = np.asarray(lambdas, dtype=float)
    k = lam.size
    a_mat = np.eye(k) - gamma_t * np.triu(np.ones((k, k)), 1)
    a = solve_triangular(a_mat.T, lam, lower=True)
    log_success = float(np.sum(np.log(lam) - np.log(a)) - gamma_t * a.sum())
    return -math.expm1(log_success)


def phase1_outage_quad(lambdas, gamma_t):
    """Chain outage by adaptive nested quadrature (K <= 5).

    The two innermost layers integrate analytically; the remaining K-2
    layers nest scipy.integrate.quad over the tail-sum recursion.
    """
    lam = [float(v) for v in lambdas]
    k = len(lam)
    g = gamma_t
    if k == 1:
        return 1.0 - math.exp(-lam[0] * g)
    c = lam[1] + g * lam[0]

    def success_tail(t):
        # P(S_2 >= g*(1+t+..), S_1 >= ...) marginalized analytically
        return lam[1] / c * math.exp(-(c + lam[0]) * g * (1.0 + t))

    def layer(j):
        if j == 1:
            return success_tail

        inner = layer(j - 1)

        def integrate(t):
            lo = g * (1.0 + t)
            val, _ = quad(lambda s: lam[j] * math.exp(-lam[j] * s) * inner(t + s),
                          lo, np.inf, epsabs=1e-13, epsrel=1e-11, limit=200)
            return val

        return integrate

    return 1.0 - layer(k - 1)(0.0)


def phase1_outage_laguerre(lambdas, gamma_t):
    """Chain outage by nested Gauss-Laguerre quadrature, vectorized in numpy.

    The integral of phase1_outage_quad with the same two analytic inner
    layers.  Each remaining layer j, the integral of
    lam_j exp(-lam_j s) inner(t + s) over s >= g(1+t), becomes
    exp(-lam_j g(1+t)) times the Laguerre sum of inner(t + g(1+t) + x/lam_j)
    under the substitution s = g(1+t) + x/lam_j, with 80 nodes per layer.
    """
    lam = [float(v) for v in lambdas]
    k = len(lam)
    g = gamma_t
    if k == 1:
        return 1.0 - math.exp(-lam[0] * g)
    x, w = np.polynomial.laguerre.laggauss(80)
    c = lam[1] + g * lam[0]

    def layer(j, t):
        if j == 1:
            return lam[1] / c * np.exp(-(c + lam[0]) * g * (1.0 + t))
        lo = g * (1.0 + t)
        inner = layer(j - 1, (t + lo)[..., None] + x / lam[j])
        return np.exp(-lam[j] * lo) * (inner @ w)

    return 1.0 - float(layer(k - 1, np.asarray(0.0)))


def sr_pdf_reference(omega, b0, m_s, tx_power, s):
    """Shadowed-Rician SNR density via scipy's confluent hypergeometric."""
    s = np.asarray(s, dtype=float)
    x = s / tx_power
    scale = 2.0 * b0 * m_s / (2.0 * b0 * m_s + omega)
    delta = omega / (2.0 * b0 * (2.0 * b0 * m_s + omega))
    base = scale ** m_s / (2.0 * b0) * np.exp(-x / (2.0 * b0))
    return base * hyp1f1(m_s, 1.0, delta * x) / tx_power


def sr_cdf_grid(omega, b0, m_s, tx_power, upper, n=200_001):
    """(grid, CDF on the grid) by trapezoid integration of the density."""
    grid = np.linspace(0.0, upper, n)
    pdf = sr_pdf_reference(omega, b0, m_s, tx_power, grid)
    cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) * 0.5 * np.diff(grid))))
    return grid, cdf


def phase2_outage_quad(omega, b0, m_s, tx_power, k_users, r_target):
    threshold = math.pow(2.0, k_users * r_target) - 1.0
    val, _ = quad(lambda s: sr_pdf_reference(omega, b0, m_s, tx_power, s),
                  0.0, threshold, epsabs=1e-13, epsrel=1e-11, limit=400)
    return val


def gammainc_decimal(a, x):
    """Regularized lower incomplete gamma P(a, x) for integer a >= 1 as
    e**-x sum_{k>=0} x**(a+k) / (a+k)! at 50 digits.  Every term is
    positive, so nothing cancels, and the sum runs past its largest term
    until the next one falls below 1e-45 of the total."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        dx = decimal.Decimal(x)
        term = dx**a / math.factorial(a)
        total = decimal.Decimal(0)
        n = a
        while n <= dx or term > total * decimal.Decimal("1e-45"):
            total += term
            n += 1
            term = term * dx / n
        return float(total * (-dx).exp())


def ks_statistic(samples, cdf_fn):
    """Kolmogorov-Smirnov distance of samples against a callable CDF."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    theo = cdf_fn(x)
    upper = np.arange(1, n + 1) / n - theo
    lower = theo - np.arange(0, n) / n
    return float(max(upper.max(), lower.max()))


def best_group_subset(lambdas, k, gamma_t):
    """(groups, outage) minimizing chain outage over ascending-ordered subsets."""
    lam = np.asarray(lambdas, dtype=float)
    best = None
    for combo in itertools.combinations(range(lam.size), k):
        ordered = tuple(sorted(combo, key=lambda i: (lam[i], i)))
        out = 1.0 - phase1_success_linear(lam[list(ordered)], gamma_t)
        if best is None or out < best[1] - 1e-15:
            best = (ordered, out)
    return best


def coordinate_context(lam, position, g):
    """(D values, tail) of middle slot `position` (1-based, in [2, K-1]) of
    the float list `lam`, the arguments h_function and find_zero_h take
    after lambda; tail = g*(1+g)**(K-position) is h's last term.

    The profile entry at `position` itself is ignored: its analytic
    contribution to every D cancels, so the D values are computed from the
    other slots only and are exactly independent of the coordinate being
    optimized.
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
    return tuple(ds), g * (1.0 + g) ** (k - position)


def find_zero_h_bisect(ds, tail):
    """find_zero_h as plain bracketing and bisection, every sign test an h
    evaluation: geometric bracketing from 1 and bisection to machine-level
    relative width, the bracket reaching out to 2**1023 and 2**-1074.  The
    production root must equal this one bit for bit."""
    from satsched import NumericError, h_function

    lo = hi = 1.0
    if h_function(1.0, ds, tail) > 0.0:
        for _ in range(1023):
            hi *= 2.0
            if h_function(hi, ds, tail) <= 0.0:
                break
        else:
            raise NumericError(f"no sign change up to lambda={hi}")
    else:
        for _ in range(1074):
            lo /= 2.0
            if h_function(lo, ds, tail) > 0.0:
                break
        else:
            raise NumericError(f"no sign change down to lambda={lo}")
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # interval at floating-point resolution
            break
        if h_function(mid, ds, tail) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def find_zero_h_decimal(ds, tail):
    """Root of h(x) = 1/x - sum(1/(x+D)) - tail solved in 60-digit decimal
    by geometric bisection of [1e-400, 1e10], rounded to a float once."""
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = 60
        dd = [Decimal(d) for d in ds]
        t = Decimal(tail)
        lo, hi = Decimal("1e-400"), Decimal("1e10")
        for _ in range(200):
            mid = (lo * hi).sqrt()
            if 1 / mid - sum(1 / (mid + d) for d in dd) - t > 0:
                lo = mid
            else:
                hi = mid
        return float(lo)


def stationarity_residuals(lambdas_in_order, lambda_min: float, gamma_t: float) -> np.ndarray:
    """Per-slot violation of the optimality system; interior middle slots
    report |h|, projected slots and slot 1 report distance to lambda_min's
    pin, the last slot its closed-form mismatch."""
    from satsched.cdi_sched import h_function

    lam = np.asarray(lambdas_in_order, dtype=float)
    k = lam.size
    res = np.zeros(k)
    res[0] = abs(lam[0] - lambda_min)
    for pos in range(2, k):
        if lam[pos - 1] <= lambda_min * (1.0 + 1e-9):
            continue  # projected coordinate, equality not expected
        res[pos - 1] = abs(h_function(float(lam[pos - 1]),
                                      *coordinate_context(lam.tolist(), pos, gamma_t)))
    if k >= 2 and lam[k - 1] > lambda_min * (1.0 + 1e-9):
        res[k - 1] = abs(lam[k - 1] - slot_optimum(lam.tolist(), k, gamma_t))
    return res


def slot_optimum(lam, position, gamma_t):
    """Continuous optimum of slot `position` (1-based, >= 2) of the float
    list `lam` with the other slots held: the zero of h for a middle slot,
    last_lambda_opt of the B prefix B_{K-1} for the last slot.  A D value,
    tail or B prefix beyond float range raises NumericError.  The earlier
    production version, which aoius called at every slot visit."""
    from satsched import NumericError, ParameterError, last_lambda_opt
    from satsched.cdi_sched import _slot_d_values, find_zero_h

    k = len(lam)
    p = position - 1
    c = 1.0 + gamma_t
    b = lam[0]
    for j in range(1, p):
        b = c * b + lam[j]
    try:
        if p < k - 1:
            gpow = [gamma_t * c**e for e in range(k - p)]
            return find_zero_h(_slot_d_values(lam, p, b, gamma_t, gpow), gpow[-1], lam[p])
        return last_lambda_opt(b, gamma_t)
    except (OverflowError, ParameterError) as exc:
        raise NumericError(f"slot {position} of {k} is beyond float range: {exc}") from exc


# The continuous benchmark solver below is an earlier production version,
# kept unchanged but for its roots, which come from find_zero_h_bisect, so
# the sweep-carried solve_theorem3 can be held to the same profile,
# outage, sweep count and float-range errors.


def slot_optimum_rebuilt(lam, position, gamma_t):
    """slot_optimum with the D values rebuilt from the whole profile."""
    from satsched import NumericError, ParameterError, last_lambda_opt

    k = len(lam)
    try:
        if position < k:
            return find_zero_h_bisect(*coordinate_context(lam, position, gamma_t))
        b = 0.0
        for j in range(k - 1):
            b = (1.0 + gamma_t) * b + lam[j]
        return last_lambda_opt(b, gamma_t)
    except (OverflowError, ParameterError) as exc:
        raise NumericError(f"slot {position} of {k} is beyond float range: {exc}") from exc


def solve_theorem3_sweeps(lambda_min, k, gamma_t):
    """solve_theorem3 with every slot optimum from slot_optimum_rebuilt."""
    from satsched import NumericError, ParameterError, Theorem3Solution, phase1_outage
    from satsched.cdi_sched import _MAX_SWEEPS, _SWEEP_TOL

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
            new = max(slot_optimum_rebuilt(lam, pos, gamma_t), lam[0])
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


# The two CSI schedulers below are earlier production versions, kept
# unchanged so the current gius and lbus can be held to the same picks,
# rate reports and work counters.  They share the production entry checks,
# economy fill and _finish, which the current versions also call.


def gius_scan(csi, k, r_target):
    """gius with its window rebuilt by scanning all N users at every node."""
    from satsched.csi_sched import (
        InternalConsistencyError,
        _descending_order,
        _entry_checks,
        _finish,
        _infeasible,
        max_supported_users,
    )

    gamma_t = _entry_checks(csi, k, r_target)
    s = csi.user_snrs
    if max_supported_users(csi.sat_snr, r_target, k) < k:
        return _infeasible(0, 0)

    order = _descending_order(s)
    # plain-list lookups: numpy scalar access would dominate the search
    s_list = s.tolist()
    asc = np.sort(s)
    # lmin[n] = sum of the n smallest SNRs
    lmin = np.concatenate([[0.0], np.cumsum(asc)])
    s_min = float(asc[0])
    candidates = 0
    backtracks = 0
    chosen: list[int] = []

    def search(depth: int, available: list, t_prev: float) -> bool:
        nonlocal candidates, backtracks
        if depth > k:
            return True
        lower = gamma_t if depth == k else s_min
        if depth == 1:
            upper = math.inf
        else:
            upper = min(t_prev - 1.0 - float(lmin[k - depth]), s_list[chosen[-1]])
        window = [u for u in order if available[u] and lower <= s_list[u] <= upper]
        candidates += len(window)
        for u in window:
            s_u = s_list[u]
            t_here = s_u / gamma_t if depth == 1 else min(t_prev - s_u, s_u / gamma_t)
            chosen.append(u)
            available[u] = False
            if search(depth + 1, available, t_here):
                return True
            available[u] = True
            chosen.pop()
            backtracks += 1
        return False

    if not search(1, [True] * s.size, math.inf):
        raise InternalConsistencyError(
            "first-slot candidates exhausted although k came from determine_k"
        )
    return _finish(chosen, [s_list[u] for u in chosen], csi, r_target, candidates, backtracks)


def _economy_recursion(s, k, gamma_t):
    """The economy fill as lbus_two_sorts called it: its own ascending sort
    of s, then a linear sweep."""
    asc = np.sort(s).tolist()
    picks = []
    tail_sum = 0.0
    i = 0
    n = len(asc)
    while len(picks) < k:
        threshold = gamma_t * (tail_sum + 1.0)
        while i < n and asc[i] < threshold:
            i += 1
        if i == n:
            break
        picks.append(asc[i])
        tail_sum += asc[i]
        i += 1
    return picks


def lbus_two_sorts(csi, k, r_target):
    """lbus with a descending argsort, a second sort inside the economy
    fill and a third for its middle-slot sweep."""
    from bisect import bisect_left

    from satsched.csi_sched import (
        _descending_order,
        _entry_checks,
        _finish,
        _infeasible,
        max_supported_users,
    )

    gamma_t = _entry_checks(csi, k, r_target)
    s = csi.user_snrs
    if max_supported_users(csi.sat_snr, r_target, k) < k:
        return _infeasible(0, 0)

    order = _descending_order(s).tolist()
    s_list = s.tolist()
    first = order[0]
    s_max = s_list[first]
    candidates = 0

    if k == 1:
        if s_max < gamma_t:
            return _infeasible(0, 0)
        return _finish([first], [s_max], csi, r_target, 1, 0)

    # economy recursion; only its last slot seeds the scan window
    picks = _economy_recursion(s, k, gamma_t)
    if len(picks) < k:
        return _infeasible(0, 0)
    last_low = picks[0]
    last_high = s_max / ((1.0 + gamma_t) ** (k - 2) * gamma_t) - 1.0

    # strongest-first scan over admissible final-slot SNRs
    pool = order[1:]
    finals = [u for u in pool if last_low <= s_list[u] <= last_high]
    if not finals:  # the economy's own final pick is always scanned
        finals = [min((u for u in pool if s_list[u] >= last_low), key=lambda u: (s_list[u], u))]
    candidates += len(finals)
    # ascending SNR, equal SNRs in ascending index order
    asc_users = sorted(pool, key=s_list.__getitem__)
    asc_snrs = [s_list[u] for u in asc_users]
    n_pool = len(asc_users)
    for u_last in finals:
        # middle thresholds only grow along the back-to-front fill, so one
        # ascending sweep with a moving pointer covers all slots
        chosen = [u_last]
        tail_sum = s_list[u_last]
        last_pick = s_list[u_last]
        i = 0
        ok = True
        for _slot in range(k - 1, 1, -1):
            threshold = max(gamma_t * (tail_sum + 1.0), last_pick)
            i = bisect_left(asc_snrs, threshold, i)
            if i < n_pool and asc_users[i] == u_last:
                i += 1
            candidates += 1
            if i == n_pool:
                ok = False
                break
            last_pick = asc_snrs[i]
            chosen.append(asc_users[i])
            i += 1
            tail_sum += last_pick
        # the first slot's chain constraint is not guaranteed by
        # construction, so verify before accepting
        if ok and s_max >= gamma_t * (tail_sum + 1.0):
            chosen.reverse()
            chosen.insert(0, first)
            return _finish(chosen, [s_list[u] for u in chosen], csi, r_target, candidates, 0)
    return _infeasible(candidates, 0)


# The CSI finishing step and sum-rate sandwich below are earlier
# production versions, kept unchanged so the fused finishing kernel, the
# Schedule checks and the sort-once sum_rate_bounds can be held to the same
# bits and error messages.


@dataclass(frozen=True)
class ScheduleThreePass:
    """Schedule with its checks in one pass each over users and alphas."""

    users: tuple
    alphas: tuple | None = None

    def __post_init__(self):
        from satsched import ConstraintError
        from satsched.rate_core import _ALPHA_TOL

        users = tuple(int(u) for u in self.users)
        object.__setattr__(self, "users", users)
        if len(set(users)) != len(users):
            raise ConstraintError(f"duplicate users in schedule: {users}")
        if any(u < 0 for u in users):
            raise ConstraintError("user indices must be non-negative")
        if self.alphas is not None:
            alphas = tuple(float(a) for a in self.alphas)
            if len(alphas) != len(users):
                raise ConstraintError("alphas must have one entry per user")
            if not all(-_ALPHA_TOL <= a <= 1 + _ALPHA_TOL for a in alphas):
                raise ConstraintError(f"alphas outside [0, 1]: {alphas}")
            total = 0.0
            for a in alphas:  # left to right: sum() compensates from Python 3.12 on
                total += a
            if total > 1 + _ALPHA_TOL:
                raise ConstraintError(f"alphas sum to {total} > 1")
            object.__setattr__(self, "alphas", tuple(min(max(a, 0.0), 1.0) for a in alphas))

    @property
    def n_users(self) -> int:
        return len(self.users)


def throughput_power_split_checked(snrs_in_order, r_target, sat_snr):
    """throughput_power_split with the split arithmetic inline."""
    from satsched.channel import _checked_snrs
    from satsched.rate_core import _ALPHA_TOL, awgn_capacity, max_supported_users

    vals = _checked_snrs(snrs_in_order).tolist()
    k = len(vals)
    if max_supported_users(sat_snr, r_target, k) < k:
        return None
    chain, _ = chain_back_to_front(vals, 1.0)
    relay_rates = chain_capacities(chain)
    cap = awgn_capacity(sat_snr)
    if sum(relay_rates) <= cap:
        targets = relay_rates
    else:
        surplus = cap - k * r_target
        targets = []
        for rate in relay_rates:
            extra = min(max(rate - r_target, 0.0), max(surplus, 0.0))
            targets.append(r_target + extra)
            surplus -= extra
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


def split_power_min_max(relay_rates, r_target, sat_snr, cap):
    """rate_core._split_power with its surplus grants written as
    min(max(rate - r_target, 0.0), max(surplus, 0.0))."""
    from satsched.rate_core import _ALPHA_TOL

    k = len(relay_rates)
    total = 0.0
    for rate in relay_rates:
        total += rate
    if total <= cap:
        targets = relay_rates
    else:
        surplus = cap - k * r_target
        targets = []
        for rate in relay_rates:
            extra = min(max(rate - r_target, 0.0), max(surplus, 0.0))
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


def evaluate_schedule_two_chains(schedule, csi, r_target):
    """evaluate_schedule computing the relay chain a second time."""
    from satsched import ParameterError, RateReport
    from satsched.rate_core import EMPTY_RATE_REPORT, awgn_capacity

    if schedule.n_users == 0:
        return EMPTY_RATE_REPORT
    if schedule.alphas is None:
        raise ParameterError("schedule has no power split to evaluate")
    users = schedule.users
    if max(users) >= csi.n_users:
        raise ParameterError("schedule references a user outside the realization")
    all_snrs = csi.user_snrs
    # the realization already vetted the SNRs, the Schedule its alphas
    snrs = [float(all_snrs[u]) for u in users]
    relay, total_snr = chain_back_to_front(snrs, 1.0)
    sat, _ = chain_back_to_front(schedule.alphas, 1.0 / csi.sat_snr)
    rates = tuple(map(min, chain_capacities(relay), chain_capacities(sat)))
    terrestrial_cap = awgn_capacity(total_snr)
    satellite_cap = awgn_capacity(csi.sat_snr)
    sum_rate = min(terrestrial_cap, satellite_cap)
    meets = all(r >= r_target - 1e-12 for r in rates)
    return RateReport(
        per_user_rates=rates,
        sum_rate=sum_rate,
        meets_target=meets,
    )


def csi_online_frames(count, seed=0):
    """(r_target, CsiRealization) of the first `count` decision frames of
    the benchmark's csi_online workload (perfbench/workloads.py): 32
    Rayleigh users of mean SNR 5, rate targets 0.9, 1.2 and 1.8 in turn,
    and a satellite SNR of 2**60 or 100 on alternate runs of three."""
    from satsched import CsiRealization, RayleighLink, sample_rayleigh_snr, trial_rng

    link = RayleighLink(sigma_sq=5.0, tx_power=1.0)
    return [((0.9, 1.2, 1.8)[i % 3],
             CsiRealization(sample_rayleigh_snr(link, 32, trial_rng(seed, 1000, i)),
                            (float(2**60), 100.0)[i // 3 % 2]))
            for i in range(count)]


def threshold_lattice(count, seed=0):
    """(SNR list, r_target) instances of 2 to 6 users whose SNRs sit on
    exact SINR thresholds, where the threshold form S >= gamma_t*(tail+1)
    and any other form of the chain test can round apart.  Each SNR is
    drawn from gamma_t, gamma_t*(gamma_t+1) and the next step of that
    chain (each summed as the threshold form sums its tail), the integers
    0 to 3, 2*gamma_t and gamma_t+1, at r_target 0.3, 0.5, 1.0 or 2.0."""
    from satsched import sinr_threshold

    rng = np.random.default_rng(seed)
    targets = (0.3, 0.5, 1.0, 2.0)
    lattices = []
    for r in targets:
        g = sinr_threshold(r)
        second = g * (g + 1.0)
        lattices.append([g, second, g * ((g + second) + 1.0), 0.0, 1.0, 2.0, 3.0, 2.0 * g,
                         g + 1.0])
    for _ in range(count):
        j = int(rng.integers(len(targets)))
        n = int(rng.integers(2, 7))
        yield [lattices[j][i] for i in rng.integers(len(lattices[j]), size=n)], targets[j]


def finish_three_steps(users, csi, r_target):
    """(schedule, rate report) of the CSI schedulers' finishing step as
    three checked calls: split, Schedule, evaluation."""
    from satsched import InternalConsistencyError

    alphas = throughput_power_split_checked(csi.user_snrs[list(users)], r_target, csi.sat_snr)
    if alphas is None:
        raise InternalConsistencyError("satellite hop cannot carry a selected schedule")
    schedule = ScheduleThreePass(users=tuple(users), alphas=tuple(alphas.tolist()))
    return schedule, evaluate_schedule_two_chains(schedule, csi, r_target)


def tdma_every_drop(csi, k, r_target):
    """baseline_tdma taking every kept user's capacity again after each
    drop of the weakest."""
    from satsched.csi_sched import (
        SchedulerOutcome,
        SchedulerStats,
        _descending_order,
        _entry_checks,
        _infeasible,
    )
    from satsched.rate_core import RateReport, Schedule, awgn_capacity

    _entry_checks(csi, k, r_target)
    s = csi.user_snrs
    order = _descending_order(s)
    kept = [int(u) for u in order[:k]]
    while kept:
        share = 1.0 / len(kept)
        rates = [share * awgn_capacity(float(s[u])) for u in kept]
        if rates[-1] >= r_target:
            total = 0.0
            for rate in rates:
                total += rate
            report = RateReport(tuple(rates), min(total, awgn_capacity(csi.sat_snr)), True)
            return SchedulerOutcome(Schedule(users=tuple(kept), alphas=None), report,
                                    SchedulerStats(len(kept), 0))
        kept.pop()  # weakest is last in descending order
    return _infeasible(0, 0)


def _check_selection_args(snrs, k: int, gamma_t: float) -> np.ndarray:
    from satsched import ParameterError

    s = np.asarray(snrs, dtype=float)
    if s.ndim != 1 or s.size == 0:
        raise ParameterError("SNRs must be a non-empty 1-D array")
    if np.any(s < 0) or not np.all(np.isfinite(s)):
        raise ParameterError("SNRs must be finite and non-negative")
    if not (1 <= k <= s.size):
        raise ParameterError(f"k must be in [1, {s.size}], got {k}")
    if not (gamma_t > 0 and math.isfinite(gamma_t)):
        raise ParameterError(f"gamma_t must be positive finite, got {gamma_t}")
    return s


def lower_bound_snrs(snrs, k: int, gamma_t: float):
    """Economy slot profile with the strongest SNR substituted into slot 1.

    None when the instance cannot support k users at gamma_t.
    """
    from satsched.csi_bounds import _economy_recursion as economy_fill

    s = _check_selection_args(snrs, k, gamma_t)
    hat = economy_fill(np.sort(s).tolist(), k, gamma_t)
    if len(hat) < k:
        return None
    hat.reverse()  # decode order
    hat[0] = float(s.max())
    return np.array(hat)


def upper_bound_snrs_every_call(s_max: float, k: int, gamma_t: float) -> np.ndarray:
    """upper_bound_snrs taking its powers anew at every call.

    Slot j < K gets s_max/(1+gamma_t)**(j-1); the final slot gets
    s_max/((1+gamma_t)**(K-2) * gamma_t) - 1, which can go negative for
    large K and is reported as-is (callers clamp at zero when summing); it
    is -1 when (1+gamma_t)**(K-2) overflows.
    """
    from satsched import ParameterError

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


def sum_rate_bounds_three_sorts(csi, k: int, r_target: float):
    """sum_rate_bounds checking the SNRs on the full array and taking the
    strongest one from a fresh reduction, with numpy scalars in its
    profiles."""
    from satsched import BoundsResult, awgn_capacity, sinr_threshold

    gamma_t = sinr_threshold(r_target)
    # lower_bound_snrs checks the arguments for both bounds
    lb = lower_bound_snrs(csi.user_snrs, k, gamma_t)
    sat_cap = awgn_capacity(csi.sat_snr)
    feasible = lb is not None
    lb_rate = min(awgn_capacity(float(lb.sum())), sat_cap) if feasible else 0.0

    ub = upper_bound_snrs_every_call(float(csi.user_snrs.max()), k, gamma_t)
    ub_rate = min(awgn_capacity(float(np.clip(ub, 0.0, None).sum())), sat_cap)

    return BoundsResult(
        lb_rate=lb_rate,
        ub_rate=ub_rate,
        feasible=feasible,
    )


# The CDI group selectors and Monte-Carlo estimator below are earlier
# production versions, kept unchanged so the current aoius,
# exhaustive_groups and monte_carlo_outage can be held to the same picks,
# traces and estimates.


def _bracket_pick_scan(window_groups, lambdas, z, gamma_t, selection, slot):
    """Best group for `slot` among the two window members bracketing z.

    The coordinate objective is unimodal in the slot rate with its peak at
    z, so the discrete optimum over the window is one of the bracketing
    members; evaluating both keeps every move non-increasing in outage.
    `window_groups` is non-empty and `lambdas` a list of floats.
    Returns (group, outage, evaluations).
    """
    from satsched.outage import _phase1

    below = None
    above = None
    for g in window_groups:
        if lambdas[g] <= z:
            if below is None or lambdas[g] > lambdas[below]:
                below = g
        else:
            if above is None or lambdas[g] < lambdas[above]:
                above = g
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


def aoius_scan(cdi, k, gamma_t, rng, max_iters=100):
    """aoius with each slot's window rebuilt by scanning all M groups."""
    from satsched import GroupSchedule, ParameterError
    from satsched.cdi_sched import _selector_checks
    from satsched.outage import _phase1

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

    evals = 1
    outage = _phase1([lam[g] for g in selection], gamma_t)
    trace = [outage]
    for _sweep in range(max_iters):
        for slot in range(1, k):  # 0-based; slots 2..K in 1-based terms
            unselected = [g for g in range(m) if g not in selection or g == selection[slot]]
            lower = lam[selection[slot - 1]]
            upper = lam[selection[slot + 1]] if slot < k - 1 else math.inf
            window = [g for g in unselected if lower < lam[g] < upper]
            if not window:
                continue
            z = slot_optimum([lam[g] for g in selection], slot + 1, gamma_t)
            selection[slot], outage, used = _bracket_pick_scan(window, lam, z, gamma_t,
                                                               selection, slot)
            evals += used
        trace.append(outage)
        if trace[-1] >= trace[-2]:
            break
    return GroupSchedule(
        groups=tuple(selection),
        outage=outage,
        trace=tuple(trace),
        evaluations=evals,
    )


def exhaustive_groups_combinations(cdi, k, gamma_t):
    """exhaustive_groups with every subset's outage from _phase1 over
    itertools.combinations of the stably sorted groups."""
    from satsched import GroupSchedule
    from satsched.cdi_sched import _selector_checks
    from satsched.errors import budgeted_comb
    from satsched.outage import _phase1

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


def sr_fade_generator_calls(params, count, rng):
    """channel._sr_fade as it drew with Generator.gamma, .uniform and
    .normal, one call per array."""
    los_power = rng.gamma(shape=params.m_s, scale=params.omega / params.m_s, size=count)
    phase = rng.uniform(0.0, 2.0 * np.pi, size=count)
    scatter_re = rng.normal(0.0, math.sqrt(params.b0), size=count)
    scatter_im = rng.normal(0.0, math.sqrt(params.b0), size=count)
    return np.sqrt(los_power), phase, scatter_re, scatter_im


def monte_carlo_outage_sampled(lambdas_in_order, sr, r_target, trials, rng):
    """monte_carlo_outage with the user SNRs drawn scaled, the chain test
    run over the slots of the scaled array (its batched loop before it took
    the unscaled draws), and every satellite SNR sampled in full and
    compared with the phase-2 threshold."""
    from satsched import McStats, OutageReport, ParameterError, sample_sr_snr, sinr_threshold
    from satsched.outage import _check_lambdas, _phase2_threshold

    lam = _check_lambdas(lambdas_in_order)
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    gamma_t = sinr_threshold(r_target)
    k = lam.size

    snrs = rng.exponential(scale=1.0 / lam, size=(trials, k))
    slots = iter(snrs.T[::-1])
    sums = np.array(next(slots), dtype=float)  # the last slot sees noise only
    closes = sums >= gamma_t
    for v in slots:
        closes &= v >= gamma_t * (sums + 1.0)
        sums += v
    phase1_fail = ~closes
    phase2_fail = sample_sr_snr(sr, trials, rng) < _phase2_threshold(k, r_target)

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
