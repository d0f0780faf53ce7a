"""User selection under instantaneous CSI.

All schedulers select K users for superposed phase-1 transmission, ordered
by descending SNR at the relay, such that every decode slot clears the SINR
threshold gamma_t = 2**r_target - 1, and try to maximize the scheduled SNR
sum (hence the sum rate).

gius: greedy windowed depth-first search.  Slot budgets T_k track how much
SNR the remaining chain can still absorb; each slot picks the largest SNR
inside a window that provably cannot exclude all completions, backtracking
on dead ends.  A window is a contiguous range of positions in the
descending SNR order, found by bisection; walking it visits the candidates
in the order a scan of all N users would.

lbus: low-complexity selection seeded by the economy profile, on a single
ascending sort of the SNRs.  The first slot is pinned to the strongest
user, candidate SNRs for the final slot are scanned strongest-first inside
their admissible interval, and middle slots K-1..2 take the cheapest SNR
that still closes the chain.

exhaustive: enumerate all K-subsets (descending order within a subset) and
keep the feasible one with the largest SNR sum.  The subsets are positions
in the descending SNR order, read from a table of the lexicographic
K-combinations of 0..N-1 that is built on first use for each (N, K) and
then cached read-only; the cache keeps at most _TABLE_CACHE_BYTES (64 MiB)
of tables and evicts the least recently used.  A call scores the subsets
in batches of _CHUNK_SUBSETS: it gathers their SNRs one slot at a time,
from the last decode slot to the first, keeping only a running tail sum
and a feasibility mask per subset.

baseline_tdma / baseline_opportunistic: orthogonal and single-user
references.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from dataclasses import dataclass
from itertools import accumulate, compress

import numpy as np

from .channel import CsiRealization
from .csi_bounds import _economy_recursion
from .errors import InternalConsistencyError, ParameterError, budgeted_comb
from .rate_core import (
    EMPTY_RATE_REPORT,
    RateReport,
    Schedule,
    _binding_hop,
    awgn_capacity,
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
    return len(_economy_recursion(np.sort(csi.user_snrs).tolist(), upper, gamma_t))


def _descending_order(snrs: np.ndarray) -> np.ndarray:
    # stable sort so equal SNRs keep ascending index order
    return np.argsort(-snrs, kind="stable")


def _finish(users, csi, r_target, candidates, backtracks) -> SchedulerOutcome:
    alphas = throughput_power_split(csi.user_snrs[list(users)], r_target, csi.sat_snr)
    if alphas is None:
        raise InternalConsistencyError("satellite hop cannot carry a selected schedule")
    schedule = Schedule(users=tuple(users), alphas=tuple(alphas.tolist()))
    report = evaluate_schedule(schedule, csi, r_target)
    return SchedulerOutcome(
        schedule=schedule,
        rate_report=report,
        stats=SchedulerStats(candidates_examined=candidates, backtracks=backtracks),
    )


def _infeasible(candidates, backtracks) -> SchedulerOutcome:
    return SchedulerOutcome(
        schedule=None,
        rate_report=EMPTY_RATE_REPORT,
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

    The search runs on positions in the stable descending SNR order, where
    the window lower <= S <= upper is a contiguous range: bisect on the
    negated SNRs finds its ends, and the walk skips positions already
    chosen.  The visit order is unchanged from a scan of all N users
    (strongest first, equal SNRs in ascending index order), so are the
    picks, candidates_examined and backtracks.
    """
    gamma_t = _entry_checks(csi, k, r_target)
    s = csi.user_snrs
    if max_supported_users(csi.sat_snr, r_target, k) < k:
        return _infeasible(0, 0)

    # plain lists: numpy scalar access would dominate the search
    order = _descending_order(s).tolist()
    desc = s[order].tolist()
    neg = [-v for v in desc]  # ascending, for bisect
    # lmin[n] = sum of the n smallest SNRs
    lmin = list(accumulate(reversed(desc), initial=0.0))
    n = len(desc)
    # the last slot's window ends where SNRs drop below gamma_t; the other
    # slots' floor is the smallest SNR, so their windows run to the end
    last_end = bisect_right(neg, -gamma_t)
    free = [True] * n
    candidates = 0
    backtracks = 0
    chosen: list[int] = []  # on success, slot K's pick first

    def search(depth: int, start: int, t_prev: float) -> bool:
        """Fill slot depth < k from the positions from start on; on success
        the picks of slots K..depth are on chosen."""
        nonlocal candidates, backtracks
        window = list(compress(range(start, n), free[start:]))
        candidates += len(window)
        l_rest = lmin[k - depth - 1]
        for p in window:
            s_p = desc[p]
            # min() spelled out: the builtin call costs more than the math
            t_here = t_prev - s_p
            absorb = s_p / gamma_t
            if absorb < t_here:
                t_here = absorb
            upper = t_here - 1.0 - l_rest
            if s_p < upper:
                upper = s_p
            # the next window starts at the first SNR <= upper; a NaN
            # bound (inf - inf) admits nobody
            nxt = bisect_left(neg, -upper) if upper == upper else n
            free[p] = False
            if depth + 1 == k:
                # slot K's upper bound already makes T_K >= 1
                found = free[nxt:last_end].count(True)
                candidates += found
                if found:
                    chosen.extend((free.index(True, nxt, last_end), p))
                    return True
            elif search(depth + 1, nxt, t_here):
                chosen.append(p)
                return True
            free[p] = True
            backtracks += 1
        return False

    if k == 1:
        # the strongest user, when it clears gamma_t
        candidates = last_end
        chosen.append(0)
        found = last_end > 0
    else:
        found = search(1, 0, math.inf)
    if not found:
        raise InternalConsistencyError(
            "first-slot candidates exhausted although k came from determine_k"
        )
    return _finish([order[p] for p in reversed(chosen)], csi, r_target, candidates, backtracks)


def lbus(csi: CsiRealization, k: int, r_target: float) -> SchedulerOutcome:
    """Economy-seeded low-complexity selection.

    Runs on a single stable ascending argsort of the SNRs: the economy
    fill, the strongest user (bisect_left on the largest SNR), the
    final-slot candidates (one bisect_left..bisect_right range, walked
    strongest first with equal SNRs in ascending index order) and the
    middle-slot sweeps all read that one list.  Infeasibility is a value
    here (schedule None), not an error.
    """
    gamma_t = _entry_checks(csi, k, r_target)
    s = csi.user_snrs
    if max_supported_users(csi.sat_snr, r_target, k) < k:
        return _infeasible(0, 0)

    # stable ascending argsort: equal SNRs keep ascending index order
    s_list = s.tolist()
    users = sorted(range(len(s_list)), key=s_list.__getitem__)
    snrs = [s_list[u] for u in users]
    s_max = snrs[-1]
    # the strongest user is the lowest index among the largest SNRs
    top = bisect_left(snrs, s_max)
    first = users[top]

    if k == 1:
        if s_max < gamma_t:
            return _infeasible(0, 0)
        return _finish([first], csi, r_target, 1, 0)

    # economy fill; only its last slot's pick seeds the final-slot window
    picks = _economy_recursion(snrs, k, gamma_t)
    if len(picks) < k:
        return _infeasible(0, 0)
    last_low = picks[0]
    last_high = s_max / ((1.0 + gamma_t) ** (k - 2) * gamma_t) - 1.0

    # the other users, still ascending
    del users[top], snrs[top]
    n = len(snrs)
    lo = bisect_left(snrs, last_low)
    hi = max(bisect_right(snrs, last_high), lo)
    candidates = hi - lo
    mids = k - 2
    picked = [0] * mids  # middle slots K-1..2, by position in snrs
    # strongest-first scan over admissible final-slot SNRs, equal SNRs in
    # ascending index order
    while hi > lo:
        group = hi - 1
        if group > lo and snrs[group - 1] == snrs[group]:
            group = bisect_left(snrs, snrs[group], lo, group)
        for q in range(group, hi):
            # middle thresholds only grow along the back-to-front fill, so
            # one ascending sweep with a moving pointer covers all slots
            tail_sum = last_pick = snrs[q]
            i = 0
            for slot in range(mids):
                threshold = gamma_t * (tail_sum + 1.0)
                i = bisect_left(snrs, last_pick if last_pick > threshold else threshold, i)
                if i == q:
                    i += 1
                if i == n:
                    candidates += slot + 1
                    break
                last_pick = snrs[i]
                tail_sum += last_pick
                picked[slot] = i
                i += 1
            else:
                candidates += mids
                # the first slot's chain constraint is not guaranteed by
                # construction, so verify before accepting
                if s_max >= gamma_t * (tail_sum + 1.0):
                    chosen = [first, *(users[p] for p in reversed(picked)), users[q]]
                    return _finish(chosen, csi, r_target, candidates, 0)
        hi = group
    return _infeasible(candidates, 0)


# (n, k) -> read-only combination table, least recently used first
_TABLE_CACHE: OrderedDict = OrderedDict()
_TABLE_CACHE_BYTES = 64 * 2**20
# subsets per exhaustive batch: its float temporaries stay below 128 KiB,
# glibc's default mmap threshold, so they are reused instead of being
# mapped, faulted in and unmapped again for every call
_CHUNK_SUBSETS = 16_000


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


def exhaustive(csi: CsiRealization, k: int, r_target: float) -> SchedulerOutcome:
    """Enumerate every K-subset in descending-SNR order and keep the
    feasible one with the largest SNR sum, the first in lexicographic
    order on a tie.  Raises EnumerationBudgetError when comb(N, K) exceeds
    the budget of errors.budgeted_comb."""
    gamma_t = _entry_checks(csi, k, r_target)
    s = csi.user_snrs
    n_subsets = budgeted_comb(csi.n_users, k)
    if max_supported_users(csi.sat_snr, r_target, k) < k:
        return _infeasible(n_subsets, 0)

    order = _descending_order(s)
    desc = s[order]
    # combinations of descending positions are themselves descending
    table = _combination_table(csi.n_users, k)
    best, best_sum = -1, -math.inf
    for start in range(0, n_subsets, _CHUNK_SUBSETS):
        part = table[:, start:start + _CHUNK_SUBSETS]
        feasible, sums = sic_chains_close((desc[part[slot]] for slot in range(k - 1, -1, -1)),
                                          gamma_t)
        sums[~feasible] = -np.inf
        j = int(np.argmax(sums))
        if sums[j] > best_sum:  # strict: an earlier chunk wins a tie
            best, best_sum = start + j, sums[j]
    if best < 0:
        return _infeasible(n_subsets, 0)
    return _finish(order[table[:, best]].tolist(), csi, r_target, n_subsets, 0)


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
            total = float(sum(rates))
            sat_cap = awgn_capacity(csi.sat_snr)
            report = RateReport(
                per_user_rates=tuple(rates),
                sum_rate=min(total, sat_cap),
                binding_hop=_binding_hop(total, sat_cap),
                meets_target=True,
            )
            schedule = Schedule(users=tuple(kept), alphas=None)
            return SchedulerOutcome(
                schedule=schedule,
                rate_report=report,
                stats=SchedulerStats(len(kept), 0),
            )
        kept.pop()  # weakest is last in descending order
    return _infeasible(0, 0)


def baseline_opportunistic(csi: CsiRealization, r_target: float) -> SchedulerOutcome:
    """Single-user reference: schedule only the strongest user."""
    _entry_checks(csi, 1, r_target)
    s = csi.user_snrs
    best = int(_descending_order(s)[0])
    rate = min(awgn_capacity(float(s[best])), awgn_capacity(csi.sat_snr))
    if rate < r_target:
        return _infeasible(1, 0)
    schedule = Schedule(users=(best,), alphas=(1.0,))
    report = evaluate_schedule(schedule, csi, r_target)
    return SchedulerOutcome(
        schedule=schedule,
        rate_report=report,
        stats=SchedulerStats(1, 0),
    )
