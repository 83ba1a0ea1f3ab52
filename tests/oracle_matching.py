"""Exhaustive optimal-matching oracle for coincidence pairing.

Independent of the production matcher: finds a maximum-cardinality,
minimum-total-|difference| pairing between two sorted integer time arrays
under the constraint |a - b| <= half_window, by dynamic programming over
each gap-isolated cluster.

An optimal solution always exists without crossings (uncrossing two
crossing pairs on a line never increases either distance beyond the window
nor the total cost), so the DP over sorted prefixes is exact.  Among
equal-cardinality, equal-cost solutions the backtrack prefers pairing the
current earliest tags, which reproduces the production tie-break (nearest
counterpart, ties toward the earlier one) on tie cases.
"""

import numpy as np


def _cluster_spans(a, b, half_window):
    """Split indices into clusters separated by gaps > half_window in the
    merged timeline; no pairing can cross such a gap."""
    events = [(t, 0, i) for i, t in enumerate(a)] + \
             [(t, 1, j) for j, t in enumerate(b)]
    events.sort()
    clusters = []
    cur_a, cur_b = [], []
    prev_t = None
    for t, side, idx in events:
        if prev_t is not None and t - prev_t > half_window and (cur_a or cur_b):
            clusters.append((cur_a, cur_b))
            cur_a, cur_b = [], []
        (cur_a if side == 0 else cur_b).append(idx)
        prev_t = t
    if cur_a or cur_b:
        clusters.append((cur_a, cur_b))
    return clusters


def _solve_cluster(ta, tb, half_window):
    """DP on one cluster over sorted suffixes: value[i][j] = best
    (pair count, -total cost) using ta[i:] and tb[j:].  Returns the optimal
    pairing as (a_local, b_local) index tuples, backtracked with a fixed
    preference (pair now, else skip the earlier remaining tag) so ties are
    resolved deterministically."""
    n, m = len(ta), len(tb)
    value = [[(0, 0)] * (m + 1) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        row, below = value[i], value[i + 1]
        for j in range(m - 1, -1, -1):
            d = abs(ta[i] - tb[j])
            cands = []
            if d <= half_window:
                cnt, ncost = below[j + 1]
                cands.append((cnt + 1, ncost - d))
            if ta[i] <= tb[j]:
                cands.append(below[j])
                cands.append(row[j + 1])
            else:
                cands.append(row[j + 1])
                cands.append(below[j])
            row[j] = max(cands)
    pairing = []
    i = j = 0
    while i < n and j < m:
        d = abs(ta[i] - tb[j])
        if d <= half_window:
            cnt, ncost = value[i + 1][j + 1]
            if (cnt + 1, ncost - d) == value[i][j]:
                pairing.append((i, j))
                i, j = i + 1, j + 1
                continue
        if ta[i] <= tb[j]:
            if value[i + 1][j] == value[i][j]:
                i += 1
            else:
                j += 1
        else:
            if value[i][j + 1] == value[i][j]:
                j += 1
            else:
                i += 1
    return pairing


def optimal_matching(a, b, half_window):
    """Return (ai, bi) index arrays of the optimal pairing, sorted by ai."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    out = []
    for a_idx, b_idx in _cluster_spans(a, b, int(half_window)):
        if not a_idx or not b_idx:
            continue
        ta = tuple(int(a[i]) for i in a_idx)
        tb = tuple(int(b[j]) for j in b_idx)
        pairing = _solve_cluster(ta, tb, int(half_window))
        for i_loc, j_loc in pairing:
            out.append((a_idx[i_loc], b_idx[j_loc]))
    out.sort()
    ai = np.array([p[0] for p in out], dtype=np.int64)
    bi = np.array([p[1] for p in out], dtype=np.int64)
    return ai, bi


def matching_cost(a, b, ai, bi):
    if len(ai) == 0:
        return 0
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    return int(np.abs(a[ai] - b[bi]).sum())


def accidental_pair_rate(a, b, window_ps: int) -> float:
    """Expected uncorrelated pairs per second between two tag streams: the
    product of the two singles rates times the window width."""
    return a.rate_hz() * b.rate_hz() * (window_ps * 1e-12)
