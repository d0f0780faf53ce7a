"""User selection under instantaneous CSI.

All schedulers select K users for superposed phase-1 transmission, ordered
by descending SNR at the relay, such that every decode slot clears the SINR
threshold gamma_t = 2**r_target - 1, and try to maximize the scheduled SNR
sum (hence the sum rate).

gius: greedy windowed depth-first search.  Slot budgets T_k track how much
SNR the remaining chain can still absorb; each slot picks the largest SNR
inside a window that provably cannot exclude all completions, backtracking
on dead ends.

lbus: low-complexity selection seeded by the economy profile.  The first
slot is pinned to the strongest user, candidate SNRs for the final slot are
scanned strongest-first inside their admissible interval, and middle slots
K-1..2 take the cheapest SNR that still closes the chain.

exhaustive: enumerate all K-subsets (descending order within a subset) and
keep the feasible one with the largest SNR sum.  The subsets are positions
in the descending SNR order, read from a table of the lexicographic
K-combinations of 0..N-1 that is built on first use for each (N, K) and
then cached read-only; the cache keeps at most _TABLE_CACHE_BYTES (64 MiB)
of tables and evicts the least recently used.  A call gathers the SNRs one
slot at a time, from the last decode slot to the first, keeping only a
running tail sum and a feasibility mask per subset.

baseline_tdma / baseline_opportunistic: orthogonal and single-user
references.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .channel import CsiRealization
from .csi_bounds import _economy_recursion
from .errors import EnumerationBudgetError, InternalConsistencyError, ParameterError
from .rate_core import (
    RateReport,
    Schedule,
    awgn_capacity,
    empty_rate_report,
    evaluate_schedule,
    max_supported_users,
    sic_chains_close,
    sinr_threshold,
    throughput_power_split,
)


@dataclass(frozen=True)
class SchedulerStats:
    candidates_examined: int
    backtracks: int


@dataclass(frozen=True)
class SchedulerOutcome:
    schedule: Schedule | None
    rate_report: RateReport
    stats: SchedulerStats

    @property
    def feasible(self) -> bool:
        return self.schedule is not None


def determine_k(csi: CsiRealization, r_target: float) -> int:
    """Largest user count supported by both hops, 0 when even one user
    cannot be served.

    The economy fill does not depend on K, and K users fit the relay chain
    exactly when it makes K picks, so one fill capped at the satellite
    hop's limit gives the answer.
    """
    gamma_t = sinr_threshold(r_target)
    upper = max_supported_users(csi.sat_snr, r_target, csi.n_users)
    return len(_economy_recursion(csi.user_snrs, upper, gamma_t))


def _descending_order(snrs: np.ndarray) -> np.ndarray:
    # stable sort so equal SNRs keep ascending index order
    return np.argsort(-snrs, kind="stable")


def _finish(users, csi, k, r_target, candidates, backtracks) -> SchedulerOutcome:
    alphas = throughput_power_split(csi.user_snrs[list(users)], r_target, csi.sat_snr)
    if alphas is None:
        raise InternalConsistencyError("satellite hop cannot carry a selected schedule")
    schedule = Schedule(users=tuple(users), alphas=tuple(alphas))
    report = evaluate_schedule(schedule, csi, r_target)
    return SchedulerOutcome(
        schedule=schedule,
        rate_report=report,
        stats=SchedulerStats(candidates_examined=candidates, backtracks=backtracks),
    )


def _infeasible(csi, candidates, backtracks) -> SchedulerOutcome:
    return SchedulerOutcome(
        schedule=None,
        rate_report=empty_rate_report(csi.sat_snr),
        stats=SchedulerStats(candidates_examined=candidates, backtracks=backtracks),
    )


def _entry_checks(csi: CsiRealization, k: int, r_target: float) -> float:
    if not (1 <= k <= csi.n_users):
        raise ParameterError(f"k must be in [1, {csi.n_users}], got {k}")
    gamma_t = sinr_threshold(r_target)
    if gamma_t == 0.0:
        raise ParameterError("r_target must be positive")
    return gamma_t


def gius(csi: CsiRealization, k: int, r_target: float) -> SchedulerOutcome:
    """Greedy windowed selection with backtracking.

    Callers obtain k from determine_k, so a full exhaustion of the first
    slot means the preconditions were violated and raises.  Slot k's budget
    is T_k = min(T_{k-1} - S_pick, S_pick/gamma_t); a completed chain is
    feasible iff T_K >= 1.  The admission window at slot k keeps S_i <=
    min(T_{k-1} - 1 - L_min(K-k), previous pick), where L_min(n) is the sum
    of the n globally smallest SNRs: anything larger starves the cheapest
    possible completion, so the window never discards all completions and
    the search is exact for feasibility.
    """
    gamma_t = _entry_checks(csi, k, r_target)
    s = csi.user_snrs
    if max_supported_users(csi.sat_snr, r_target, k) < k:
        return _infeasible(csi, 0, 0)

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
    return _finish(chosen, csi, k, r_target, candidates, backtracks)


def lbus(csi: CsiRealization, k: int, r_target: float) -> SchedulerOutcome:
    """Economy-seeded low-complexity selection.

    Infeasibility is a value here (schedule None), not an error.
    """
    gamma_t = _entry_checks(csi, k, r_target)
    s = csi.user_snrs
    if max_supported_users(csi.sat_snr, r_target, k) < k:
        return _infeasible(csi, 0, 0)

    order = _descending_order(s).tolist()
    s_list = s.tolist()
    first = order[0]
    s_max = s_list[first]
    candidates = 0

    if k == 1:
        if s_max < gamma_t:
            return _infeasible(csi, 0, 0)
        return _finish([first], csi, 1, r_target, 1, 0)

    # economy recursion; only its last slot seeds the scan window
    picks = _economy_recursion(s, k, gamma_t)
    if len(picks) < k:
        return _infeasible(csi, 0, 0)
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
            return _finish([first] + chosen, csi, k, r_target, candidates, 0)
    return _infeasible(csi, candidates, 0)


# (n, k) -> read-only combination table, least recently used first
_TABLE_CACHE: OrderedDict = OrderedDict()
_TABLE_CACHE_BYTES = 64 * 2**20


def _build_combination_table(n: int, k: int) -> np.ndarray:
    """Lexicographic K-combinations of 0..n-1, slot-major: shape (k, comb(n, k)).

    Built from the last slot back to the first.  The tails that may follow
    a head h are the lexicographic tails whose first entry exceeds h, which
    form a suffix of the tail table, so slot j prepends each admissible
    head to its suffix.
    """
    dtype = np.uint8 if n <= 256 else np.intp
    tail = np.arange(k - 1, n, dtype=dtype)[None, :]
    for j in range(k - 2, -1, -1):
        heads = np.arange(j, n - k + j + 1)
        starts = np.searchsorted(tail[0], heads + 1)
        head_row = np.repeat(heads.astype(dtype), tail.shape[1] - starts)
        tail = np.vstack([head_row, np.concatenate([tail[:, i:] for i in starts], axis=1)])
    return tail


def _combination_table(n: int, k: int) -> np.ndarray:
    """Cached _build_combination_table; a table larger than the whole
    cache is returned without being kept."""
    key = (n, k)
    table = _TABLE_CACHE.get(key)
    if table is not None:
        _TABLE_CACHE.move_to_end(key)
        return table
    table = _build_combination_table(n, k)
    table.flags.writeable = False
    if table.nbytes <= _TABLE_CACHE_BYTES:
        held = sum(t.nbytes for t in _TABLE_CACHE.values())
        while held + table.nbytes > _TABLE_CACHE_BYTES:
            held -= _TABLE_CACHE.popitem(last=False)[1].nbytes
        _TABLE_CACHE[key] = table
    return table


def exhaustive(csi: CsiRealization, k: int, r_target: float, *,
               max_subsets: int = 2_000_000) -> SchedulerOutcome:
    """Enumerate every K-subset in descending-SNR order and keep the
    feasible one with the largest SNR sum, the first in lexicographic
    order on a tie.  Raises EnumerationBudgetError when comb(N, K) exceeds
    max_subsets."""
    gamma_t = _entry_checks(csi, k, r_target)
    s = csi.user_snrs
    n_subsets = math.comb(csi.n_users, k)
    if n_subsets > max_subsets:
        raise EnumerationBudgetError(
            f"comb({csi.n_users}, {k}) = {n_subsets} exceeds budget {max_subsets}"
        )
    if max_supported_users(csi.sat_snr, r_target, k) < k:
        return _infeasible(csi, n_subsets, 0)

    order = _descending_order(s)
    desc = s[order]
    # combinations of descending positions are themselves descending
    table = _combination_table(csi.n_users, k)
    feasible, sums = sic_chains_close((desc[table[slot]] for slot in range(k - 1, -1, -1)),
                                      gamma_t)
    sums[~feasible] = -np.inf
    best = int(np.argmax(sums))
    if not feasible[best]:
        return _infeasible(csi, n_subsets, 0)
    return _finish(order[table[:, best]].tolist(), csi, k, r_target, n_subsets, 0)


def baseline_tdma(csi: CsiRealization, k: int, r_target: float) -> SchedulerOutcome:
    """Orthogonal reference: top-k users get equal slot shares, weakest
    users dropped until everyone meets r_target in their share."""
    _entry_checks(csi, k, r_target)
    s = csi.user_snrs
    order = _descending_order(s)
    kept = [int(u) for u in order[:k]]
    while kept:
        share = 1.0 / len(kept)
        rates = [share * awgn_capacity(float(s[u])) for u in kept]
        if rates[-1] >= r_target:
            sat_cap = awgn_capacity(csi.sat_snr)
            sum_rate = min(float(sum(rates)), sat_cap)
            report = RateReport(
                per_user_rates=tuple(rates),
                sum_rate=sum_rate,
                binding_hop="terrestrial" if float(sum(rates)) <= sat_cap else "satellite",
                meets_target=True,
            )
            schedule = Schedule(users=tuple(kept), alphas=None)
            return SchedulerOutcome(
                schedule=schedule,
                rate_report=report,
                stats=SchedulerStats(len(kept), 0),
            )
        kept.pop()  # weakest is last in descending order
    return _infeasible(csi, 0, 0)


def baseline_opportunistic(csi: CsiRealization, r_target: float) -> SchedulerOutcome:
    """Single-user reference: schedule only the strongest user."""
    gamma_t = sinr_threshold(r_target)
    if gamma_t == 0.0:
        raise ParameterError("r_target must be positive")
    s = csi.user_snrs
    best = int(_descending_order(s)[0])
    rate = min(awgn_capacity(float(s[best])), awgn_capacity(csi.sat_snr))
    if rate < r_target:
        return _infeasible(csi, 1, 0)
    schedule = Schedule(users=(best,), alphas=(1.0,))
    report = evaluate_schedule(schedule, csi, r_target)
    return SchedulerOutcome(
        schedule=schedule,
        rate_report=report,
        stats=SchedulerStats(1, 0),
    )
