"""Scalar reference loops for the kernels.

``kernels`` ships the numpy builds of the dead-time filter and the
difference histogram, and runs the matcher's policy as a forward merge
(``_match_nearest_impl``) on the tags whose choices conflict.  These
loops state each rule literally and define what the kernels must
return, array for array; the tests compare against them.
"""

import numpy as np


def dead_time_filter(times, dead_ps):
    """Keep-mask: a tag survives if it is at least ``dead_ps`` after the
    previous surviving tag."""
    n = times.shape[0]
    keep = np.zeros(n, dtype=np.bool_)
    last = np.int64(-1) - dead_ps
    for i in range(n):
        t = times[i]
        if t - last >= dead_ps:
            keep[i] = True
            last = t
    return keep


def diff_histogram(a, b, lo, hi, bin_width):
    """Histogram of (b[j] - a[i]) over all pairs with lo <= diff < hi.

    Bin k covers [lo + k*w, lo + (k+1)*w).  Both inputs sorted ascending.
    """
    nbins = int((hi - lo + bin_width - 1) // bin_width)
    counts = np.zeros(nbins, dtype=np.int64)
    m = b.shape[0]
    start = 0
    for i in range(a.shape[0]):
        t = a[i]
        while start < m and b[start] - t < lo:
            start += 1
        k = start
        while k < m and b[k] - t < hi:
            counts[(b[k] - t - lo) // bin_width] += 1
            k += 1
    return counts


def match_nearest(a, b, half_window):
    """Pair tags of two sorted streams, greedy in global time order.

    Each event, processed in merged time order (ties: stream a first), is
    paired with its nearest not-yet-paired counterpart within
    ``half_window`` (inclusive), found by scanning every counterpart in
    its window; equal distances break toward the earlier counterpart.
    Events that find no free counterpart stay available and may be
    claimed by a later event on the other stream.

    Returns int64 index arrays (ai, bi), in pairing order.
    """
    times = (a, b)
    sizes = (a.shape[0], b.shape[0])
    paired = (np.zeros(sizes[0], dtype=np.bool_),
              np.zeros(sizes[1], dtype=np.bool_))
    out = (np.empty(min(sizes), dtype=np.int64),
           np.empty(min(sizes), dtype=np.int64))
    npairs = 0
    at = [0, 0]  # each stream's next event
    lo = [0, 0]  # each stream's first tag not yet behind every window
    while at[0] < sizes[0] or at[1] < sizes[1]:
        i, j = at
        side = int(i >= sizes[0] or (j < sizes[1] and b[j] < a[i]))
        other = 1 - side
        k = at[side]
        at[side] += 1
        if paired[side][k]:
            continue
        t = times[side][k]
        theirs, taken, size = times[other], paired[other], sizes[other]
        c = lo[other]
        while c < size and theirs[c] < t - half_window:
            c += 1
        lo[other] = c
        best = -1
        best_d = half_window + 1
        while c < size and theirs[c] <= t + half_window:
            if not taken[c]:
                d = abs(theirs[c] - t)
                if d < best_d:  # ascending scan: first seen wins ties
                    best_d = d
                    best = c
            c += 1
        if best >= 0:
            paired[side][k] = taken[best] = True
            out[side][npairs] = k
            out[other][npairs] = best
            npairs += 1
    return out[0][:npairs], out[1][:npairs]
