"""Reference delay search: the coarse stage builds the full pair histogram.

This is ``tags.estimate_delay`` as it was before the coarse stage learned
to locate dense peaks by FFT.  Every pair of the two prefixes is counted
over the whole search range, the peak is chosen on that histogram and the
background is the mean of all bins off the peak.  Tests compare the
production search against it field for field.
"""

import math

import numpy as np

from hybridqkd import kernels
from hybridqkd.tags import (
    DelayEstimate,
    NoCorrelationError,
    _peak_bin,
    _poisson_tail_log_bound,
    _refine_centroid,
)


def check_peak(hist, peak, min_significance, max_false_alarm, min_peak_count):
    nbins = hist.shape[0]
    peak_count = int(hist[peak])
    bg = np.delete(hist, slice(max(0, peak - 2), min(nbins, peak + 3)))
    mu = float(bg.mean()) if bg.size else 0.0
    sigma = math.sqrt(max(mu, 1e-9))
    significance = (peak_count - mu) / sigma
    if peak_count < min_peak_count:
        raise NoCorrelationError(
            f"correlation peak has only {peak_count} counts")
    if significance < min_significance:
        raise NoCorrelationError(
            f"peak {peak_count} is {significance:.1f} sigma above the "
            f"background mean {mu:.2f}; need {min_significance}")
    log_tail = _poisson_tail_log_bound(peak_count, max(mu, 1e-3))
    if log_tail + math.log(nbins) > math.log(max_false_alarm):
        raise NoCorrelationError(
            "peak is consistent with an accidental fluctuation "
            f"(log tail bound {log_tail:.1f} over {nbins} bins)")
    return peak_count, mu, significance


def estimate_delay(ta, tb, search_range_ps=2**28, bin_width_ps=16, *,
                   coarse_bin_ps=4096, max_coarse_tags=1 << 18,
                   max_fine_tags=1 << 21, min_significance=5.0,
                   max_false_alarm=1e-6, min_peak_count=8):
    """Same arguments and result as ``tags.estimate_delay`` on arrays."""
    ta = np.ascontiguousarray(ta, dtype=np.int64)
    tb = np.ascontiguousarray(tb, dtype=np.int64)
    checks = (min_significance, max_false_alarm, min_peak_count)
    coarse_bin_ps = max(bin_width_ps, coarse_bin_ps)

    ca, cb = ta[:max_coarse_tags], tb[:max_coarse_tags]
    hist = kernels.diff_histogram(ca, cb, -search_range_ps, search_range_ps,
                                  coarse_bin_ps)
    peak = _peak_bin(hist, smooth_bins=3)
    check_peak(hist, peak, *checks)
    coarse_center = -search_range_ps + peak * coarse_bin_ps + coarse_bin_ps // 2

    span = 2 * coarse_bin_ps
    fa, fb = ta[:max_fine_tags], tb[:max_fine_tags]
    lo = coarse_center - span
    hist = kernels.diff_histogram(fa, fb, lo, coarse_center + span,
                                  bin_width_ps)
    peak = _peak_bin(hist, smooth_bins=5)
    peak_count, mu, significance = check_peak(hist, peak, *checks)
    center = _refine_centroid(hist, peak, mu)
    delay = lo + int(round(center * bin_width_ps)) + bin_width_ps // 2
    return DelayEstimate(delay_ps=int(delay), significance=float(significance),
                         peak_count=peak_count, background_mean=mu,
                         bin_width_ps=bin_width_ps)
