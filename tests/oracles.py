"""Independent reference implementations used to pin test expectations.

Everything here is written against the math directly (plain loops, scipy
quadrature, triangular solves) and deliberately avoids the production code
paths it is used to check.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.integrate import quad
from scipy.linalg import solve_triangular
from scipy.special import hyp1f1


def chain_sinrs(snrs_in_order):
    """Decode-order SINRs with a plain loop: slot k against slots k+1..K."""
    s = list(map(float, snrs_in_order))
    out = []
    for k in range(len(s)):
        out.append(s[k] / (sum(s[k + 1:]) + 1.0))
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
    relative width.  The production root must equal this one bit for bit."""
    from satsched import NumericError, h_function

    lo = hi = 1.0
    if h_function(1.0, context) > 0.0:
        for _ in range(400):
            hi *= 2.0
            if h_function(hi, context) <= 0.0:
                break
        else:
            raise NumericError(f"no sign change up to lambda={hi}")
    else:
        for _ in range(400):
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
