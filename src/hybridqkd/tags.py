"""Classical analysis of two time-tag streams.

Everything downstream of the detectors and upstream of the protocol lives
here: finding the inter-stream delay by cross-correlating tag times,
pairing tags into coincidences inside a fixed window, aggregating pair
counts per detector combination, and turning counts into correlation
coefficients and a CHSH value with Poisson error bars.

Conventions
-----------
* ``delay`` is Bob's time minus Alice's time for a correlated pair; a pair
  matches when ``|t_a - (t_b - delay)| <= window / 2``.
* The coincidence window is a full width; with integer picosecond tags the
  acceptance test is ``|diff| <= window // 2``.
* Correlation estimates are computed from detector-pair count sets.  A
  detector pair belongs to the "plus" set when the product of its port
  labels (the +/- wiring of each analyzer output) is positive, which folds
  the one flipped analyzer's sign convention into the counts themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .optics import TagStream
from .quantum import MeasurementSetting, standard_settings

__all__ = [
    "InsufficientDataError",
    "NoCorrelationError",
    "InsufficientStatisticsError",
    "DelayEstimate",
    "CoincidenceMatrix",
    "EstimatedCorrelation",
    "WindowPoint",
    "estimate_delay",
    "match_coincidences",
    "build_matrix",
    "correlation_from_counts",
    "standard_pair_sets",
    "key_pair_sets",
    "chsh_from_counts",
    "qber_from_matrix",
    "window_sweep",
    "matrix_csv",
    "estimates_csv",
]

CHSH_TERMS = (("a0", "b0"), ("a0", "b1"), ("a1", "b0"), ("a1", "b1"))


class InsufficientDataError(ValueError):
    """A stream is empty or too small for the requested estimate."""


class NoCorrelationError(ValueError):
    """The cross-correlation histogram has no significant peak."""


class InsufficientStatisticsError(ValueError):
    """A correlation estimate was requested from zero counts."""


# ---------------------------------------------------------------------------
# delay estimation
# ---------------------------------------------------------------------------

# The coarse search's cost model (see ``estimate_delay``): measured ns per
# pair of ``kernels.diff_histogram`` and per grid bin spanned by
# ``kernels.binned_correlation``.  Each retry's grid is ``_LADDER_STEP``
# times narrower, down to ``_LOCATE_BINS`` coarse bins per grid bin.
_PAIR_NS = 10.0
_GRID_BIN_NS = 100.0
_LADDER_STEP = 8
_LOCATE_BINS = 4


@dataclass(frozen=True)
class DelayEstimate:
    """Result of the cross-correlation delay search."""

    delay_ps: int
    significance: float
    peak_count: int
    background_mean: float
    bin_width_ps: int


def _times(stream) -> np.ndarray:
    if isinstance(stream, TagStream):
        return stream.times
    return np.ascontiguousarray(stream, dtype=np.int64)


def _poisson_tail_log_bound(k: float, mu: float) -> float:
    """Chernoff upper bound on log P(Poisson(mu) >= k), valid for k > mu."""
    if k <= mu:
        return 0.0
    return k - mu - k * math.log(k / mu)


def _peak_bin(hist: np.ndarray, smooth_bins: int) -> int:
    """Locate the peak: argmax of a short moving sum (robust to jitter
    spreading the peak over neighbors), then the largest raw bin inside
    that neighborhood.  All ties resolve to the smaller index, i.e. the
    smaller delay."""
    if hist.shape[0] <= smooth_bins:
        return int(np.argmax(hist))
    kernel = np.ones(smooth_bins, dtype=np.int64)
    windowed = np.convolve(hist, kernel, mode="same")
    center = int(np.argmax(windowed))
    half = smooth_bins // 2
    lo = max(0, center - half)
    hi = min(hist.shape[0], center + half + 1)
    return lo + int(np.argmax(hist[lo:hi]))


def _refine_centroid(hist: np.ndarray, peak: int, background_mean: float) -> float:
    """Background-subtracted centroid of the bins around ``peak``.

    Detector jitter spreads the coincidence peak over several fine bins, so
    the raw argmax wanders by a bin or two under Poisson noise; the local
    centroid is stable to a fraction of a bin.  The centroid window is sized
    from the peak's own half-maximum width so a broad peak is covered in
    full, while a jitter-free single-bin peak keeps a tight window and an
    exact result.  Returns a fractional bin index.
    """
    threshold = background_mean + 0.5 * (float(hist[peak]) - background_mean)
    left = peak
    while left > 0 and hist[left - 1] > threshold:
        left -= 1
    right = peak
    while right < hist.shape[0] - 1 and hist[right + 1] > threshold:
        right += 1
    span = min(max(4, (3 * (right - left + 1)) // 2), (hist.shape[0] - 1) // 2)

    def centroid(center: int) -> float:
        lo = max(0, center - span)
        hi = min(hist.shape[0], center + span + 1)
        weights = hist[lo:hi].astype(np.float64) - background_mean
        np.clip(weights, 0.0, None, out=weights)
        total = weights.sum()
        if total <= 0.0:
            return float(center)
        return float(np.dot(weights, np.arange(lo, hi, dtype=np.float64))
                     / total)

    # a second pass centred on the first estimate removes the asymmetry a
    # window centred on the (noisy) argmax bin would otherwise introduce
    return centroid(int(round(centroid(peak))))


def _background_mean(hist: np.ndarray, peak: int) -> float:
    """Mean of the bins outside the five centred on ``peak``."""
    nbins = hist.shape[0]
    bg = np.delete(hist, slice(max(0, peak - 2), min(nbins, peak + 3)))
    return float(bg.mean()) if bg.size else 0.0


def _check_peak(peak_count: int, mu: float, nbins: int,
                min_significance: float, max_false_alarm: float,
                min_peak_count: int) -> float:
    """Demand the peak stand out from a Poisson-flat background of mean
    ``mu`` over ``nbins`` bins; returns its significance.

    Two tests must both pass: the peak exceeds the off-peak mean by
    ``min_significance`` standard deviations, and the Bonferroni-corrected
    Poisson tail probability of any bin reaching the peak count is below
    ``max_false_alarm``.  The second test is what reliably rejects
    independent streams, where a lucky accidental bin can clear a
    mean-based threshold alone.
    """
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
    return significance


def _locate_widths(pairs: int, spanned: int, nbins: int) -> list:
    """Grid widths, in coarse bins per grid bin, to locate the coarse
    peak on, widest first (see ``estimate_delay``): the width of least
    predicted cost, L = sqrt(``_GRID_BIN_NS`` * spanned / (3 *
    ``_PAIR_NS`` * pairs / nbins)), then ``_LADDER_STEP`` times narrower
    down to ``_LOCATE_BINS``.  The cost grows as the width falls below
    L, so the ladder stops at the first width predicted to cost more
    than the full histogram.
    """
    per_bin = pairs / nbins
    width = max(_LOCATE_BINS, round(math.sqrt(
        _GRID_BIN_NS * spanned / (3 * _PAIR_NS * per_bin))))
    widths = []
    while (_GRID_BIN_NS * spanned / width
           + _PAIR_NS * per_bin * (3 * width + 6) < _PAIR_NS * pairs):
        widths.append(width)
        if width == _LOCATE_BINS:
            break
        width = max(_LOCATE_BINS, width // _LADDER_STEP)
    return widths


def _located_coarse_peak(ca, cb, lo: int, hi: int, width: int, nbins: int,
                         pairs: int, step: int, checks) -> int | None:
    """The coarse peak bin of the full histogram, found from exact counts
    near the peak of an FFT cross-correlation, or None if those counts
    fail the checks.

    ``kernels.binned_correlation`` at ``step`` coarse bins per bin puts a
    pair of located bin K in entry K or K + 1.  Exact counts on the
    coarse bins of located bins K - 1 to K + 1, and three more on each
    side, give ``_peak_bin``'s choice among those centres and the five
    bins ``_background_mean`` leaves out; the remaining bins hold
    ``pairs`` minus those five, so the mean is the one the full
    histogram gives.
    """
    corr = kernels.binned_correlation(ca, cb, lo, -(-nbins // step) + 1,
                                      step * width)
    located = _peak_bin(corr[:-1] + corr[1:], smooth_bins=3)
    c0, c1 = max(0, step * (located - 1)), min(nbins, step * (located + 2))
    k0, k1 = max(0, c0 - 3), min(nbins, c1 + 3)
    near = kernels.diff_histogram(ca, cb, lo + k0 * width,
                                  min(hi, lo + k1 * width), width)
    padded = np.zeros(near.shape[0] + 2, dtype=np.int64)
    padded[1:-1] = near  # zeros beyond the ends of the full histogram
    windowed = padded[:-2] + padded[1:-1] + padded[2:]
    center = c0 + int(np.argmax(windowed[c0 - k0:c1 - k0]))
    first = max(0, center - 1)
    peak = first + int(np.argmax(near[first - k0:min(nbins, center + 2) - k0]))
    left, right = max(0, peak - 2), min(nbins, peak + 3)
    rest = nbins - (right - left)
    mu = float(pairs - int(near[left - k0:right - k0].sum())) / rest \
        if rest else 0.0
    try:
        _check_peak(int(near[peak - k0]), mu, nbins, *checks)
    except NoCorrelationError:
        return None
    return peak


def estimate_delay(a, b, search_range_ps: int = 2**28, bin_width_ps: int = 16,
                   *, coarse_bin_ps: int = 4096,
                   max_coarse_tags: int = 1 << 18, max_fine_tags: int = 1 << 21,
                   min_significance: float = 5.0, max_false_alarm: float = 1e-6,
                   min_peak_count: int = 8) -> DelayEstimate:
    """Find the delay (Bob minus Alice) by cross-correlation of tag times.

    A coarse histogram over the full +-``search_range_ps`` locates the
    peak on a time-ordered prefix of each stream (prefixes preserve the
    coincidence overlap; random thinning would suppress it quadratically).
    An exact fine histogram at ``bin_width_ps`` around the coarse peak then
    gives the delay as the peak bin's center.

    The coarse peak is located with an FFT cross-correlation on a grid of
    L coarse bins per bin, and only the coarse bins near the located peak
    are counted exactly (``_located_coarse_peak``).  Two binary searches
    over the prefix (``kernels._sorted_search``, its queries ascend)
    count the pairs in range first; that count gives the background
    mean the full histogram would give.  The grid width balances two
    predicted costs (``_locate_widths``):

    * the FFT, ``_GRID_BIN_NS`` per grid bin over the coarse bins spanned
      (the span of Alice's prefix plus the search range), which falls as
      L grows;
    * the exact counts, ``_PAIR_NS`` per pair over 3L + 6 coarse bins,
      which grows with L.

    The first grid takes the L of least total.  A wide grid blurs a weak
    peak into its background, so when the exact counts near the located
    peak fail the peak checks, a grid ``_LADDER_STEP`` times narrower
    tries again, down to ``_LOCATE_BINS``, as long as its predicted cost
    stays below the full histogram's (``_PAIR_NS`` per pair).  If no grid
    is tried or none passes, the full histogram decides, so a rejection
    carries the same message on every path.

    The paths pick the same peak unless some background bin far from the
    located peak beats it, which is what the false-alarm test bounds.  The
    two costs were measured with numpy 2.4 on a 2-vCPU x86 VM on the
    2**18-tag prefixes of 1 s paper streams and the whole 0.5 s ideal
    streams: 9.5-14 ns per pair of ``kernels.diff_histogram`` and
    85-180 ns per grid bin of ``kernels.binned_correlation`` at 4 to 4096
    coarse bins per bin.  Only their ratio moves L, and the total changes
    little near its least, so the round figures serve.  Those ideal
    streams take L of about 2,600 and the paper streams about 190; both
    pass on that first grid.

    Raises InsufficientDataError for empty streams and NoCorrelationError
    when no significant peak exists (e.g. independent streams).
    """
    ta, tb = _times(a), _times(b)
    if ta.size == 0 or tb.size == 0:
        raise InsufficientDataError("cannot estimate a delay from an "
                                    "empty tag stream")
    if bin_width_ps < 1:
        raise ValueError("bin_width_ps must be >= 1")
    if search_range_ps < bin_width_ps:
        raise ValueError("search_range_ps must cover at least one bin")
    coarse_bin_ps = max(bin_width_ps, coarse_bin_ps)

    checks = (min_significance, max_false_alarm, min_peak_count)

    # --- coarse stage ---------------------------------------------------
    ca, cb = ta[:max_coarse_tags], tb[:max_coarse_tags]
    lo, hi = -search_range_ps, search_range_ps
    nbins = -(-(hi - lo) // coarse_bin_ps)
    pairs = int((kernels._sorted_search(cb, ca + hi)
                 - kernels._sorted_search(cb, ca + lo)).sum())
    spanned = int(ca[-1] - ca[0]) // coarse_bin_ps + nbins
    peak = None
    # on three bins or fewer _peak_bin does not smooth; keep those exact
    if nbins > 3 and pairs:
        for step in _locate_widths(pairs, spanned, nbins):
            peak = _located_coarse_peak(ca, cb, lo, hi, coarse_bin_ps, nbins,
                                        pairs, step, checks)
            if peak is not None:
                break
    if peak is None:
        hist = kernels.diff_histogram(ca, cb, lo, hi, coarse_bin_ps)
        peak = _peak_bin(hist, smooth_bins=3)
        _check_peak(int(hist[peak]), _background_mean(hist, peak), nbins,
                    *checks)
    coarse_center = lo + peak * coarse_bin_ps + coarse_bin_ps // 2

    # --- fine stage -------------------------------------------------------
    span = 2 * coarse_bin_ps
    fa, fb = ta[:max_fine_tags], tb[:max_fine_tags]
    lo = coarse_center - span
    hist = kernels.diff_histogram(fa, fb, lo, coarse_center + span,
                                  bin_width_ps)
    peak = _peak_bin(hist, smooth_bins=5)
    peak_count = int(hist[peak])
    mu = _background_mean(hist, peak)
    significance = _check_peak(peak_count, mu, hist.shape[0], *checks)
    center = _refine_centroid(hist, peak, mu)
    delay = lo + int(round(center * bin_width_ps)) + bin_width_ps // 2
    return DelayEstimate(delay_ps=int(delay), significance=float(significance),
                         peak_count=peak_count, background_mean=mu,
                         bin_width_ps=bin_width_ps)


# ---------------------------------------------------------------------------
# coincidence matching
# ---------------------------------------------------------------------------

def match_coincidences(a, b, window_ps: int, delay_ps: int):
    """Pair tags with ``|t_a - (t_b - delay)| <= window/2``.

    Greedy in global time order: each tag pairs with its nearest unpaired
    counterpart, distance ties breaking toward the earlier counterpart.
    Returns (alice_indices, bob_indices), both strictly increasing (greedy
    pairs never cross); each tag appears at most once.
    """
    if window_ps < 1:
        raise ValueError("window_ps must be >= 1")
    ta, tb = _times(a), _times(b)
    return kernels.match_nearest(ta, tb - np.int64(delay_ps), window_ps // 2)


# ---------------------------------------------------------------------------
# count accumulation and estimates
# ---------------------------------------------------------------------------

@dataclass
class CoincidenceMatrix:
    """Coincidence counts keyed by (alice detector, bob detector)."""

    counts: dict = field(default_factory=dict)
    window_ps: int = 0
    delay_ps: int = 0
    accumulation_ps: int = 0

    def total(self) -> int:
        return sum(self.counts.values())

    def get(self, alice_det: int, bob_det: int) -> int:
        return self.counts.get((alice_det, bob_det), 0)


def build_matrix(a: TagStream, b: TagStream, pairs, window_ps: int,
                 delay_ps: int) -> CoincidenceMatrix:
    """Aggregate matched pairs by detector-channel combination."""
    ai, bi = pairs
    counts: dict = {}
    if len(ai):
        combo = a.channels[ai].astype(np.int64) * 256 + b.channels[bi]
        n = np.bincount(combo)
        counts = {(int(u) // 256, int(u) % 256): int(n[u])
                  for u in np.flatnonzero(n)}
    return CoincidenceMatrix(counts=counts, window_ps=window_ps,
                             delay_ps=delay_ps,
                             accumulation_ps=a.duration_ps)


@dataclass(frozen=True)
class EstimatedCorrelation:
    value: float
    std_error: float
    total_counts: int


def correlation_from_counts(m: CoincidenceMatrix, plus_pairs,
                            minus_pairs) -> EstimatedCorrelation:
    """E = (sum(plus) - sum(minus)) / total with Poisson error propagation.

    ``plus_pairs``/``minus_pairs`` are disjoint sets of (alice detector,
    bob detector) tuples.
    """
    plus_pairs, minus_pairs = set(plus_pairs), set(minus_pairs)
    if plus_pairs & minus_pairs:
        raise ValueError("plus and minus detector-pair sets overlap")
    n_plus = sum(m.get(*p) for p in plus_pairs)
    n_minus = sum(m.get(*p) for p in minus_pairs)
    total = n_plus + n_minus
    if total == 0:
        raise InsufficientStatisticsError(
            "no coincidences in the requested detector pairs")
    value = (n_plus - n_minus) / total
    std_error = math.sqrt(4.0 * n_plus * n_minus / total**3)
    return EstimatedCorrelation(value=value, std_error=std_error,
                                total_counts=total)


def _port_label(setting: MeasurementSetting, port: int) -> int:
    return 1 if port == setting.plus_port else -1


def _pair_sets_for(a_set: MeasurementSetting, b_set: MeasurementSetting):
    plus, minus = set(), set()
    for xa in (1, -1):
        for xb in (1, -1):
            pa = a_set.port_for_outcome(xa)
            pb = b_set.port_for_outcome(xb)
            if _port_label(a_set, pa) * _port_label(b_set, pb) > 0:
                plus.add((pa, pb))
            else:
                minus.add((pa, pb))
    return frozenset(plus), frozenset(minus)


def standard_pair_sets() -> dict:
    """Plus/minus detector-pair sets for the four CHSH terms, derived from
    the standard analyzer wiring (port labels carry the sign convention)."""
    s = standard_settings()
    return {(an, bn): _pair_sets_for(s[an], s[bn]) for an, bn in CHSH_TERMS}


def key_pair_sets() -> tuple:
    """(correct, error) detector-pair sets for the key combination (a2, b0):
    H with the early slot and V with the late slot are the correct pairings."""
    s = standard_settings()
    return _pair_sets_for(s["a2"], s["b0"])


def chsh_from_counts(m: CoincidenceMatrix, basis_map=None):
    """S = E(a0,b0) + E(a0,b1) + E(a1,b0) - E(a1,b1) from counts, with the
    per-term errors summed in quadrature.  Returns (S, std_error)."""
    if basis_map is None:
        basis_map = standard_pair_sets()
    total_s, var = 0.0, 0.0
    for i, term in enumerate(CHSH_TERMS):
        plus, minus = basis_map[term]
        est = correlation_from_counts(m, plus, minus)
        sign = -1.0 if i == 3 else 1.0
        total_s += sign * est.value
        var += est.std_error**2
    return total_s, math.sqrt(var)


def qber_from_matrix(m: CoincidenceMatrix) -> EstimatedCorrelation:
    """Key-basis error fraction from all (a2, b0) coincidences: mismatched
    slot pairings over the total, with binomial std error."""
    correct, error = key_pair_sets()
    n_ok = sum(m.get(*p) for p in correct)
    n_err = sum(m.get(*p) for p in error)
    total = n_ok + n_err
    if total == 0:
        raise InsufficientStatisticsError("no key-basis coincidences")
    q = n_err / total
    return EstimatedCorrelation(value=q,
                                std_error=math.sqrt(max(q * (1 - q), 1e-12)
                                                    / total),
                                total_counts=total)


# ---------------------------------------------------------------------------
# sweeps and diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WindowPoint:
    window_ps: int
    s: float
    s_err: float
    pairs: int


def window_sweep(a: TagStream, b: TagStream, windows, delay_ps: int,
                 basis_map=None):
    """Recompute S on the same streams for each coincidence window."""
    windows = list(windows)
    if not windows:
        raise ValueError("need at least one window")
    out = []
    for w in windows:
        pairs = match_coincidences(a, b, w, delay_ps)
        m = build_matrix(a, b, pairs, w, delay_ps)
        s, err = chsh_from_counts(m, basis_map)
        out.append(WindowPoint(window_ps=int(w), s=s, s_err=err,
                               pairs=len(pairs[0])))
    return out


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def matrix_csv(m: CoincidenceMatrix) -> str:
    lines = ["alice_det,bob_det,count"]
    for (da, db) in sorted(m.counts):
        lines.append(f"{da},{db},{m.counts[(da, db)]}")
    return "\n".join(lines) + "\n"


def estimates_csv(estimates: dict) -> str:
    """``term,value,std_error`` rows; values formatted stably for diffing."""
    lines = ["term,value,std_error"]
    for term, est in estimates.items():
        lines.append(f"{term},{est.value:.10g},{est.std_error:.10g}")
    return "\n".join(lines) + "\n"
