"""Independent reference implementations used to pin test expectations.

Everything here is written against the math directly (plain loops, scipy
quadrature, triangular solves) and deliberately avoids the production code
paths it is used to check.  The exceptions are the earlier versions of
the CSI schedulers, the CDI group selector and the Monte-Carlo estimator
at the end, kept verbatim as equivalence references.
"""

from __future__ import annotations

import decimal
import itertools
import math

import numpy as np
from scipy.integrate import quad
from scipy.linalg import solve_triangular
from scipy.special import hyp1f1


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


def find_zero_h_bisect(context):
    """find_zero_h as plain bracketing and bisection, every sign test an h
    evaluation: geometric bracketing from 1 and bisection to machine-level
    relative width, the bracket reaching out to 2**1023 and 2**-1074.  The
    production root must equal this one bit for bit."""
    from satsched import NumericError, h_function

    lo = hi = 1.0
    if h_function(1.0, context) > 0.0:
        for _ in range(1023):
            hi *= 2.0
            if h_function(hi, context) <= 0.0:
                break
        else:
            raise NumericError(f"no sign change up to lambda={hi}")
    else:
        for _ in range(1074):
            lo /= 2.0
            if h_function(lo, context) > 0.0:
                break
        else:
            raise NumericError(f"no sign change down to lambda={lo}")
    for _ in range(500):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # interval at floating-point resolution
            break
        if h_function(mid, context) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def stationarity_residuals(lambdas_in_order, lambda_min: float, gamma_t: float) -> np.ndarray:
    """Per-slot violation of the optimality system; interior middle slots
    report |h|, projected slots and slot 1 report distance to lambda_min's
    pin, the last slot its closed-form mismatch."""
    from satsched.cdi_sched import _coordinate_context, h_function, slot_optimum

    lam = np.asarray(lambdas_in_order, dtype=float)
    k = lam.size
    res = np.zeros(k)
    res[0] = abs(lam[0] - lambda_min)
    for pos in range(2, k):
        if lam[pos - 1] <= lambda_min * (1.0 + 1e-9):
            continue  # projected coordinate, equality not expected
        res[pos - 1] = abs(h_function(float(lam[pos - 1]),
                                      _coordinate_context(lam.tolist(), pos, gamma_t)))
    if k >= 2 and lam[k - 1] > lambda_min * (1.0 + 1e-9):
        res[k - 1] = abs(lam[k - 1] - slot_optimum(lam.tolist(), k, gamma_t))
    return res


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
    return _finish(chosen, csi, r_target, candidates, backtracks)


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
        return _finish([first], csi, r_target, 1, 0)

    # economy recursion; only its last slot seeds the scan window
    picks = _economy_recursion(s, k, gamma_t)
    if len(picks) < k:
        return _infeasible(0, 0)
    last_low = picks[0]
    last_high = s_max / ((1.0 + gamma_t) ** (k - 2) * gamma_t) - 1.0

    # strongest-first scan over admissible final-slot SNRs
    pool = order[1:]
    finals = [u for u in pool if last_low <= s_list[u] <= last_high]
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
            return _finish([first] + chosen, csi, r_target, candidates, 0)
    return _infeasible(candidates, 0)


# The CDI group selector and Monte-Carlo estimator below are earlier
# production versions, kept unchanged so the current aoius and
# monte_carlo_outage can be held to the same picks, traces and estimates.


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
    from satsched.cdi_sched import _selector_checks, slot_optimum
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


def monte_carlo_outage_sampled(lambdas_in_order, sr, r_target, trials, rng):
    """monte_carlo_outage with every satellite SNR sampled in full and
    compared with the phase-2 threshold."""
    from satsched import McStats, OutageReport, ParameterError, sample_sr_snr, sinr_threshold
    from satsched.outage import _check_lambdas, _phase2_threshold
    from satsched.rate_core import sic_chains_close

    lam = _check_lambdas(lambdas_in_order)
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    gamma_t = sinr_threshold(r_target)
    k = lam.size

    snrs = rng.exponential(scale=1.0 / lam, size=(trials, k))
    phase1_fail = ~sic_chains_close(snrs.T[::-1], gamma_t)[0]
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
