"""Scalar reference loops for the vectorized kernels.

``kernels`` ships only the numpy builds of the dead-time filter and the
difference histogram; these loops define what the builds must return,
array for array, and the tests compare against them.  The matcher's loop
stays in ``kernels`` (``_match_nearest_impl``) because the matcher runs
it on the tags whose choices conflict.
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
