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
in the order a scan of all N users would.  Slots K-1 and K are settled in
one pass, which compares each slot K-1 candidate's bound with one SNR in
place of a bisect and a count, and ends where the candidates that can
still close the chain end.  The path's picks are the bits of one int, so
windows are counted, not built, and the caller fails a window that is
empty or, at slot K-1, holds no candidate that could close.  Failed
subtrees of slots 1..K-2, and failed window suffixes from where a slot's
cap S/gamma_t binds its budget, are replayed from per-call memos whose
keys carry the taken positions they depend on.

lbus: low-complexity selection seeded by the economy profile, on a single
ascending sort of the SNRs.  The first slot is pinned to the strongest
user, candidate SNRs for the final slot are scanned strongest-first inside
their admissible interval, and middle slots K-1..2 take the cheapest SNR
that still closes the chain.

exhaustive: the feasible K-subset of largest SNR sum, over all comb(N, K)
subsets.  It grows the decode chains that still close from the last slot
to the second, on positions in the descending SNR order, so a subset is
settled as soon as a suffix of its chain fails; the first slot takes the
strongest user.

baseline_tdma / baseline_opportunistic: orthogonal and single-user
references; the single-user one is lbus at K=1.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .channel import CsiRealization
from .csi_bounds import _economy_recursion, _upper_divisors
from .errors import InternalConsistencyError, ParameterError, budgeted_comb
from .rate_core import (
    EMPTY_RATE_REPORT,
    RateReport,
    Schedule,
    _finish_superposition,
    awgn_capacity,
    max_supported_users,
    sinr_threshold,
)


class SchedulerStats(NamedTuple):
    candidates_examined: int
    backtracks: int


class SchedulerOutcome(NamedTuple):
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


# gius clears its failure memos when they hold this many entries, so they
# stay bounded within a call whatever the instance; they are freed on return
_FAILURE_CACHE_ENTRIES = 1 << 16


def _descending_order(snrs: np.ndarray) -> np.ndarray:
    # stable sort so equal SNRs keep ascending index order
    return np.argsort(-snrs, kind="stable")


def _finish(users, snrs, csi, r_target, candidates, backtracks) -> SchedulerOutcome:
    # snrs: the users' SNRs in the same order; the schedulers checked at
    # entry that the satellite hop carries len(users)
    finished = _finish_superposition(users, snrs, r_target, csi.sat_snr)
    if finished is None:
        raise InternalConsistencyError("satellite hop cannot carry a selected schedule")
    return SchedulerOutcome(*finished, SchedulerStats(candidates, backtracks))


def _infeasible(candidates, backtracks) -> SchedulerOutcome:
    return SchedulerOutcome(None, EMPTY_RATE_REPORT, SchedulerStats(candidates, backtracks))


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

    Slots K-1 and K are settled in one pass, without recursion or a
    bisect per candidate.  Slot K's window holds the free positions from
    bisect_left(neg, -upper(p)), the first SNR <= upper(p) = min(S_p,
    min(T - S_p, S_p/gamma_t) - 1), up to last_end, where SNRs drop below
    gamma_t; p, the slot K-1 pick, is taken, and T is the budget slot K-2
    left.  Let Q be the largest free position below last_end.  For p
    before Q the window's last position is Q, so p closes the chain
    exactly when S_Q <= upper(p).  Q itself never closes it: that needs
    the next free SNR before Q to tie S_Q, and that position comes first
    in the same window and passes the same test.  Rounding is monotone,
    so before Q, where S_Q <= S_p, the test splits into S_Q <=
    S_p/gamma_t - 1, which only gets harder as S_p descends along the
    window, so the walk ends at its first failure, and S_Q <= T - S_p - 1,
    which only gets easier.  A failed window adds its whole free count to
    both counters however far it was walked, and a closing p adds found
    and its index in the window, so candidates_examined and backtracks
    stay those of the full search.  Only the closing candidate bisects,
    counts slot K's window and takes its first position.

    No window is built: the picks of the current path are the bits of one
    int, taken, so a window's free count is N - start less the taken bits
    from start on, and the walk tests each position's bit.  The caller
    fails, with the counts a call would add, a window that holds no free
    position and a slot K-1 window that starts at or after Q, where close
    would test no candidate.  Slot K-2's walk finds Q once: taking a
    candidate moves Q only when the candidate is Q, and every later
    candidate lies at or past last_end, so its slot K-1 window starts past
    both Qs and fails either way.

    Failures of slots 1..K-2 are replayed, not searched again.  A failed
    search backtracks once per candidate it examines, its children's
    included, so a per-call memo stores its counts under a key that
    carries every taken position it can see, and a later search with the
    key adds them and fails: picks and both counters stay those of the
    full search.
    - A window below a pick p starts at the first position whose SNR is
      at most the bound p set, at most S_p, so a search from start, the
      first position of its SNR, never looks before start, and a Q before
      start fails every slot K-1 window either way.  A failed subtree is
      keyed on (depth, start, taken >> start, t_prev).
    - Along a window t_prev - S_p only rises and S_p/gamma_t only falls,
      rounding being monotone, so from the first candidate p* whose cap
      binds, S_p/gamma_t <= t_prev - S_p, every candidate passes
      S_p/gamma_t down whatever t_prev was, and every window below starts
      at or after first, the first position of p*'s SNR.  A failed suffix
      from p* is keyed on (depth, p*, taken >> first); its G backtracks
      add G less its length to candidates_examined, which counted the
      whole window at entry.
    The two zeros may share a key, as the budget enters only subtractions
    and comparisons.  A suffix is stored only with its window's subtree,
    and both memos are cleared when the subtree memo holds
    _FAILURE_CACHE_ENTRIES keys.

    Both memos and the rest of the search state are freed when the call
    returns: search refers to itself through its closure cell, so gius
    drops that reference once the search is done, and no cycle is left for
    the cyclic collector to find inside some later call.
    """
    gamma_t = _entry_checks(csi, k, r_target)
    s = csi.user_snrs
    if max_supported_users(csi.sat_snr, r_target, k) < k:
        return _infeasible(0, 0)

    # plain lists: numpy scalar access would dominate the search
    order = _descending_order(s)
    desc = s[order].tolist()
    order = order.tolist()
    absorb = [v / gamma_t for v in desc]  # S/gamma_t, a pick's cap on the budget
    neg = [-v for v in desc]  # ascending, for bisect
    # lmin[n] = sum of the n smallest SNRs
    lmin = list(accumulate(reversed(desc), initial=0.0))
    n = len(desc)
    # the last slot's window ends where SNRs drop below gamma_t; the other
    # slots' floor is the smallest SNR, so their windows run to the end
    last_end = bisect_right(neg, -gamma_t)
    before_end = (1 << last_end) - 1  # the bits of the positions before last_end
    candidates = 0
    backtracks = 0
    chosen: list[int] = []  # on success, slot K's pick first
    # (depth, start, taken >> start, t_prev) -> the candidates a failed
    # subtree examined, which are also the backtracks it made
    failed: dict[tuple[int, int, int, float], int] = {}
    # (depth, p*, taken >> first) -> the backtracks of a failed window
    # suffix from p*, the first candidate whose cap S/gamma_t binds the budget
    failed_suffix: dict[tuple[int, int, int], int] = {}

    def close(start: int, size: int, t_prev: float, q: int, taken: int) -> bool:
        """Fill slot K-1 from the size free positions from start on, and
        slot K; on success both picks are on chosen, slot K's first.  t_prev
        is T, the budget slot K-2 left, q is Q, and taken holds the picks of
        slots 1..K-2."""
        nonlocal candidates, backtracks
        s_q = desc[q]
        tried = 0
        for p in range(start, q):
            if taken >> p & 1:
                continue
            if absorb[p] - 1.0 < s_q:
                break
            s_p = desc[p]
            # slot K's bound already makes T_K >= 1
            if t_prev - s_p - 1.0 >= s_q:
                t_here = t_prev - s_p
                if absorb[p] < t_here:
                    t_here = absorb[p]
                upper = t_here - 1.0
                if s_p < upper:
                    upper = s_p
                taken |= 1 << p
                nxt = bisect_left(neg, -upper)
                # slot K's window: the free positions from nxt to last_end
                candidates += size + last_end - nxt - ((taken & before_end) >> nxt).bit_count()
                backtracks += tried
                while taken >> nxt & 1:
                    nxt += 1
                chosen.extend((nxt, p))
                return True
            tried += 1
        candidates += size
        backtracks += size
        return False

    def search(depth: int, start: int, size: int, t_prev: float, taken: int) -> bool:
        """Fill slot depth < k - 1 from the size > 0 free positions from
        start on; on success the picks of slots K..depth are on chosen.
        taken holds the picks of slots 1..depth-1."""
        nonlocal candidates, backtracks
        key = (depth, start, taken >> start, t_prev)
        # while the memo is empty a call pays no lookup
        if failed:
            replay = failed.get(key)
            if replay is not None:
                candidates += replay
                backtracks += replay
                return False
        entry = backtracks
        candidates += size
        l_rest = lmin[k - depth - 1]
        closing = depth + 2 == k
        if closing:
            q = q_all = (before_end & ~taken).bit_length() - 1
        suffix = None  # p*'s key, once the cap binds
        for p in range(start, n):
            if taken >> p & 1:
                continue
            s_p = desc[p]
            t_here = t_prev - s_p
            if absorb[p] <= t_here:
                t_here = absorb[p]
                if suffix is None:
                    # first: p, unless an earlier position ties S_p (at p = 0
                    # desc[-1] ties it only if every SNR does)
                    first = p if desc[p - 1] != s_p else bisect_left(neg, -s_p)
                    suffix = (depth, p, taken >> first)
                    suffix_entry = backtracks
                    if failed_suffix:
                        replay = failed_suffix.get(suffix)
                        if replay is not None:
                            # the free positions from p on were counted at entry
                            candidates += replay - (n - p - (taken >> p).bit_count())
                            backtracks += replay
                            break
            upper = t_here - 1.0 - l_rest
            if s_p < upper:
                upper = s_p
            # the next window starts at the first SNR <= upper; a NaN
            # bound (inf - inf) admits nobody
            nxt = bisect_left(neg, -upper) if upper == upper else n
            # its free positions: p and the picks of slots 1..depth-1 are taken
            rest = n - nxt - (nxt <= p) - (taken >> nxt).bit_count()
            if closing:
                if p == q_all:
                    # every later candidate lies past last_end, so its
                    # window starts past Q and fails with either Q
                    q = ((1 << p) - 1 & ~taken).bit_length() - 1
                if nxt >= q:  # no candidate before Q: fail as close does
                    candidates += rest
                    backtracks += rest + 1
                    continue
                done = close(nxt, rest, t_here, q, taken | 1 << p)
            elif rest:
                done = search(depth + 1, nxt, rest, t_here, taken | 1 << p)
            else:  # an empty window fails with no candidate
                backtracks += 1
                continue
            if done:
                chosen.append(p)
                return True
            backtracks += 1
        if len(failed) >= _FAILURE_CACHE_ENTRIES:
            failed.clear()
            failed_suffix.clear()
        if suffix is not None:
            failed_suffix[suffix] = backtracks - suffix_entry
        failed[key] = backtracks - entry
        return False

    if k == 1:
        # the strongest user, when it clears gamma_t
        candidates = last_end
        chosen.append(0)
        found = last_end > 0
    elif k == 2:
        found = close(0, n, math.inf, last_end - 1, 0)
    else:
        found = search(1, 0, n, math.inf, 0)
    # search holds itself through its closure cell; breaking that cycle lets
    # reference counting free the call's memos and closures on return
    search = None
    if not found:
        raise InternalConsistencyError(
            "first-slot candidates exhausted although k came from determine_k"
        )
    chosen.reverse()
    return _finish([order[p] for p in chosen], [desc[p] for p in chosen], csi, r_target,
                   candidates, backtracks)


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

    if k == 1:  # argmax picks the user the sort below would
        first = int(s.argmax())
        if s[first] < gamma_t:
            return _infeasible(0, 0)
        return _finish([first], [float(s[first])], csi, r_target, 1, 0)

    # stable ascending argsort: equal SNRs keep ascending index order
    users = np.argsort(s, kind="stable")
    snrs = s[users].tolist()
    users = users.tolist()
    s_max = snrs[-1]
    # the strongest user is the lowest index among the largest SNRs
    top = bisect_left(snrs, s_max)
    first = users[top]

    # economy fill; only its last slot's pick seeds the final-slot window
    picks = _economy_recursion(snrs, k, gamma_t)
    if len(picks) < k:
        return _infeasible(0, 0)
    last_low = picks[0]
    last_high = s_max / _upper_divisors(gamma_t, k)[-1] - 1.0

    # the other users, still ascending
    del users[top], snrs[top]
    n = len(snrs)
    lo = bisect_left(snrs, last_low)
    # last_high can round below the economy's own final pick, which closes
    hi = max(bisect_right(snrs, last_high), lo + 1)
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
                    picked.reverse()
                    chosen = [first, *(users[p] for p in picked), users[q]]
                    return _finish(chosen, [s_max, *(snrs[p] for p in picked), snrs[q]], csi,
                                   r_target, candidates, 0)
        hi = group
    return _infeasible(candidates, 0)


def exhaustive(csi: CsiRealization, k: int, r_target: float) -> SchedulerOutcome:
    """The feasible K-subset with the largest SNR sum, the first in
    lexicographic order of its descending positions on a tie.  Raises
    EnumerationBudgetError when comb(N, K) exceeds the budget of
    errors.budgeted_comb.

    Slot j >= 1 extends a chain whose slot j+1 sits at position p_next and
    whose slots after j sum to t by every j <= p < p_next with desc[p] >=
    gamma_t * (t + 1): a contiguous range, as desc descends.  Slot 0 needs
    no range: position 0, the strongest user, closes a chain if any
    position does, and gives it both its largest sum and its
    lexicographically first tuple.  Sums accumulate last slot first, as
    the decode chain's tail does.
    """
    gamma_t = _entry_checks(csi, k, r_target)
    s = csi.user_snrs
    n_subsets = budgeted_comb(csi.n_users, k)
    if max_supported_users(csi.sat_snr, r_target, k) < k:
        return _infeasible(n_subsets, 0)

    order = _descending_order(s)
    desc = s[order]
    neg = -desc  # ascending, for searchsorted
    # array methods rather than np.repeat and the like: at N ~ 10 their
    # dispatch costs more than the work.  Slot k-1 has one empty parent
    # chain, so its level is the positions k-1, k, ... that clear gamma_t
    # alone; at k = 1 the one chain stays empty.
    levels = []  # (positions, parent chain) of slots k-1..1
    tail = np.zeros(1)
    if k > 1:
        pos = np.arange(k - 1, k - 1 + neg[k - 1:].searchsorted(-gamma_t, side="right"))
        tail = desc[pos]
        levels.append((pos, np.zeros_like(pos)))
    for j in range(k - 2, 0, -1):
        # the positions j, j+1, ... whose SNR clears the tail, and come
        # before the chain's slot j+1; -(gamma_t * x) == x * -gamma_t exactly
        clear = neg[j:].searchsorted((tail + 1.0) * -gamma_t, side="right")
        counts = np.minimum(clear, pos - j)
        parent = np.arange(pos.size).repeat(counts)
        # child i of a chain whose children start at index c sits at j + i - c
        pos = np.arange(parent.size)
        pos -= (counts.cumsum() - counts - j).repeat(counts)
        tail = tail[parent]
        tail += desc[pos]  # in place: at the budget these arrays are 6.5 MB each
        levels.append((pos, parent))
    closing = (desc[0] >= gamma_t * (tail + 1.0)).nonzero()[0]
    if not closing.size:
        return _infeasible(n_subsets, 0)

    # rebuild the chains of largest sum, first slot first, and keep the
    # lexicographically first
    sums = tail[closing] + desc[0]
    tied = closing[sums == sums.max()]
    chains = [np.zeros_like(tied)]
    for pos, parent in reversed(levels):
        chains.append(pos[tied])
        tied = parent[tied]
    best = np.lexsort(chains[::-1])[0]
    picks = [c[best] for c in chains]
    return _finish(order[picks].tolist(), desc[picks].tolist(), csi, r_target, n_subsets, 0)


def baseline_tdma(csi: CsiRealization, k: int, r_target: float) -> SchedulerOutcome:
    """Orthogonal reference: top-k users get equal shares of capacities taken
    once, weakest users dropped until everyone meets r_target in their share."""
    _entry_checks(csi, k, r_target)
    s = csi.user_snrs
    kept = _descending_order(s)[:k]
    caps = [awgn_capacity(v) for v in s[kept].tolist()]
    for m in range(len(kept), 0, -1):
        share = 1.0 / m
        if share * caps[m - 1] >= r_target:
            rates = [share * c for c in caps[:m]]
            total = 0.0
            for rate in rates:  # left to right: sum() compensates from Python 3.12 on
                total += rate
            report = RateReport(tuple(rates), min(total, awgn_capacity(csi.sat_snr)), True)
            return SchedulerOutcome(Schedule(users=tuple(kept[:m].tolist()), alphas=None), report,
                                    SchedulerStats(m, 0))
    return _infeasible(0, 0)


def baseline_opportunistic(csi: CsiRealization, r_target: float) -> SchedulerOutcome:
    """Single-user reference: the strongest user alone, as lbus at K=1."""
    return lbus(csi, 1, r_target)
