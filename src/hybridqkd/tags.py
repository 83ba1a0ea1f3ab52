"""Classical analysis of two time-tag streams.

Everything downstream of the detectors and upstream of the protocol lives
here: finding the inter-stream delay by cross-correlating tag times,
pairing tags into coincidences inside a fixed window, aggregating pair
counts per detector combination, and turning counts into correlation
coefficients and a CHSH value with Poisson error bars.

``find_coincidences`` is the one place that estimates the delay and then
matches at one or more windows; the session, the offline analysis, the
loss calibration and the window sweep all call it.  It keeps the window
search of the fine delay stage, and each match whose window lies inside
that stage's span looks only at the tags the search listed; a wider
window falls back to every tag.  A tag with no candidate neither pairs
nor blocks a pairing, so the pairs are those ``match_coincidences``
finds on the full streams.

Conventions
-----------
* ``delay`` is Bob's time minus Alice's time for a correlated pair; a pair
  matches when ``|t_a - (t_b - delay)| <= window / 2``.
* The coincidence window is a full width; with integer picosecond tags the
  acceptance test is ``|diff| <= window // 2``.
* Pairs are counted once by detector-channel pair (``build_matrix``),
  folded once by setting pair and bit agreement (``fold``), and estimated
  once (``estimate``); each channel's bit is 0 on its analyzer's + port,
  which folds the one flipped analyzer's sign convention into the counts
  themselves.  The session's per-block CHSH values come from the same
  ``estimate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .optics import TagStream
from .quantum import standard_settings

__all__ = [
    "InsufficientDataError",
    "NoCorrelationError",
    "InsufficientStatisticsError",
    "DelayEstimate",
    "EstimatedCorrelation",
    "WindowPoint",
    "estimate_delay",
    "match_coincidences",
    "find_coincidences",
    "wiring",
    "build_matrix",
    "fold",
    "estimate",
    "window_sweep",
    "matrix_csv",
    "estimates_csv",
]

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
# the coarse pair count runs on two threads above this many prefix tags
# (CHANGES.md gives the measurements)
_COARSE_SPLIT_TAGS = 1 << 17
# The search itself (see ``estimate_delay``): its range and bin widths,
# the prefix lengths of the two stages and the peak checks.
_SEARCH_RANGE_PS = 2**28
_BIN_PS = 16
_COARSE_BIN_PS = 4096
_COARSE_TAGS = 1 << 18
_FINE_TAGS = 1 << 21
_MIN_SIGNIFICANCE = 5.0
_MAX_FALSE_ALARM = 1e-6
_MIN_PEAK_COUNT = 8


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


def _check_peak(peak_count: int, mu: float, nbins: int) -> float:
    """Demand the peak stand out from a Poisson-flat background of mean
    ``mu`` over ``nbins`` bins; returns its significance.

    Three tests must all pass: the peak holds ``_MIN_PEAK_COUNT`` counts,
    it exceeds the off-peak mean by ``_MIN_SIGNIFICANCE`` standard
    deviations, and the Bonferroni-corrected Poisson tail probability of
    any bin reaching the peak count is below ``_MAX_FALSE_ALARM``.  The
    last test is what reliably rejects independent streams, where a
    lucky accidental bin can clear a mean-based threshold alone.
    """
    sigma = math.sqrt(max(mu, 1e-9))
    significance = (peak_count - mu) / sigma
    if peak_count < _MIN_PEAK_COUNT:
        raise NoCorrelationError(
            f"correlation peak has only {peak_count} counts")
    if significance < _MIN_SIGNIFICANCE:
        raise NoCorrelationError(
            f"peak {peak_count} is {significance:.1f} sigma above the "
            f"background mean {mu:.2f}; need {_MIN_SIGNIFICANCE}")
    log_tail = _poisson_tail_log_bound(peak_count, max(mu, 1e-3))
    if log_tail + math.log(nbins) > math.log(_MAX_FALSE_ALARM):
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
                         pairs: int, step: int) -> int | None:
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
    mu = float(pairs - int(near[left - k0:right - k0].sum())) \
        / (nbins - (right - left))
    try:
        _check_peak(int(near[peak - k0]), mu, nbins)
    except NoCorrelationError:
        return None
    return peak


def _listed(ranges, searched, length):
    """The searched stream's tags with a partner in the fine span and the
    other stream's tags in their ranges, from the fine search over the
    first ``searched`` tags of a stream ``length`` long; (None, None),
    so that a match searches every tag, when that search was dense or
    stopped short of the stream's end."""
    tags, first, count = ranges
    if tags is None or searched < length:
        return None, None
    return tags, kernels._union(first, first + count)


def estimate_delay(a, b, *, _fine=None) -> DelayEstimate:
    """Find the delay (Bob minus Alice) by cross-correlation of tag times.

    A coarse histogram of ``_COARSE_BIN_PS`` bins over the full
    +-``_SEARCH_RANGE_PS`` (+-268 us) locates the peak on the
    ``_COARSE_TAGS`` time-ordered prefix of each stream (prefixes
    preserve the coincidence overlap; random thinning would suppress it
    quadratically).  An exact fine histogram of ``_BIN_PS`` bins over two
    coarse bins either side of the coarse peak then gives the delay as
    the peak's background-subtracted centroid.  Each stage's peak must
    pass ``_check_peak``.  These figures are fixed: they suit every
    preset, from the ideal link to 20 km of fiber with dark counts.

    The coarse peak is located with an FFT cross-correlation on a grid of
    L coarse bins per bin, and only the coarse bins near the located peak
    are counted exactly (``_located_coarse_peak``).  Two binary searches
    over the prefix (``kernels._sorted_search``, its queries ascend; on
    two threads when there are two CPUs and the prefix is longer than
    ``_COARSE_SPLIT_TAGS``) count the pairs in range first; that count
    gives the background mean the full histogram would give.
    The grid width balances two predicted costs (``_locate_widths``):

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
    carries the same message on every path.  The paths pick the same peak
    unless some background bin far from the located peak beats it, which
    is what the false-alarm test bounds.  Only the ratio of the two costs
    moves L, and the total changes little near its least, so round
    figures serve (CHANGES.md gives the measurements).

    The fine stage searches from the ``_FINE_TAGS`` prefix of the
    shorter stream into the whole other one, and its histogram counts
    only the pairs inside both prefixes.  ``_fine``, a list, receives
    what ``find_coincidences`` keeps of that search (``_listed``): (lo,
    hi, Alice's tags with a partner at a difference in [lo, hi), the Bob
    tags in their ranges), both None when a match should search every
    tag: the shorter stream is longer than the prefix, or the search
    was dense.

    Raises InsufficientDataError for empty streams and NoCorrelationError
    when no significant peak exists (e.g. independent streams).
    """
    ta, tb = _times(a), _times(b)
    if ta.size == 0 or tb.size == 0:
        raise InsufficientDataError("cannot estimate a delay from an "
                                    "empty tag stream")

    # --- coarse stage ---------------------------------------------------
    ca, cb = ta[:_COARSE_TAGS], tb[:_COARSE_TAGS]
    lo, hi = -_SEARCH_RANGE_PS, _SEARCH_RANGE_PS
    nbins = -(-(hi - lo) // _COARSE_BIN_PS)
    above, below = kernels._in_parallel(
        kernels._sorted_search, [(cb, ca, hi), (cb, ca, lo)],
        kernels._CPUS > 1 and ca.shape[0] > _COARSE_SPLIT_TAGS)
    above -= below
    pairs = int(above.sum())
    del above, below
    spanned = int(ca[-1] - ca[0]) // _COARSE_BIN_PS + nbins
    peak = None
    if pairs:
        for step in _locate_widths(pairs, spanned, nbins):
            peak = _located_coarse_peak(ca, cb, lo, hi, _COARSE_BIN_PS,
                                        nbins, pairs, step)
            if peak is not None:
                break
    if peak is None:
        hist = kernels.diff_histogram(ca, cb, lo, hi, _COARSE_BIN_PS)
        peak = _peak_bin(hist, smooth_bins=3)
        _check_peak(int(hist[peak]), _background_mean(hist, peak), nbins)
    coarse_center = lo + peak * _COARSE_BIN_PS + _COARSE_BIN_PS // 2

    # --- fine stage -------------------------------------------------------
    span = 2 * _COARSE_BIN_PS
    lo, hi = coarse_center - span, coarse_center + span
    # one binary search per tag of the shorter stream
    swapped = tb.shape[0] < ta.shape[0]
    near, far = (tb, ta) if swapped else (ta, tb)
    diffs = (1 - hi, 1 - lo) if swapped else (lo, hi)
    ranges = kernels._window_ranges(near[:_FINE_TAGS], far, *diffs)
    hist = kernels._histogram(
        ta, tb, kernels._prefix_ranges(ranges, _FINE_TAGS), lo, hi,
        _BIN_PS, swapped=swapped)
    peak = _peak_bin(hist, smooth_bins=5)
    peak_count = int(hist[peak])
    mu = _background_mean(hist, peak)
    significance = _check_peak(peak_count, mu, hist.shape[0])
    if _fine is not None:
        listed = _listed(ranges, _FINE_TAGS, near.shape[0])
        _fine.append((lo, hi) + (listed[::-1] if swapped else listed))
    del ranges
    center = _refine_centroid(hist, peak, mu)
    delay = lo + int(round(center * _BIN_PS)) + _BIN_PS // 2
    return DelayEstimate(delay_ps=int(delay), significance=float(significance),
                         peak_count=peak_count, background_mean=mu,
                         bin_width_ps=_BIN_PS)


# ---------------------------------------------------------------------------
# coincidence matching
# ---------------------------------------------------------------------------

def match_coincidences(a, b, window_ps: int, delay_ps: int, *, _fine=None):
    """Pair tags with ``|t_a - (t_b - delay)| <= window/2``.

    Greedy in global time order: each tag pairs with its nearest unpaired
    counterpart, distance ties breaking toward the earlier counterpart.
    Returns (alice_indices, bob_indices), both strictly increasing (greedy
    pairs never cross); each tag appears at most once.

    ``_fine`` is what ``estimate_delay`` kept of its fine search for
    ``find_coincidences``.  A window whose differences [delay - window/2,
    delay + window/2] lie inside its [lo, hi) matches only the tags it
    lists; a tag with no candidate neither pairs nor blocks a pairing
    (``kernels.match_nearest``), so the pairs are the same.
    """
    if window_ps < 1:
        raise ValueError("window_ps must be >= 1")
    ta, tb = _times(a), _times(b)
    half = window_ps // 2
    listed_a = listed_b = None
    if _fine is not None:
        lo, hi, tags_a, tags_b = _fine
        if lo <= delay_ps - half and delay_ps + half < hi:
            listed_a, listed_b = tags_a, tags_b
    if listed_a is None:
        return kernels.match_nearest(ta, tb - np.int64(delay_ps), half)
    shifted = tb[listed_b]
    shifted -= np.int64(delay_ps)
    ai, bi = kernels.match_nearest(ta[listed_a], shifted, half)
    return listed_a[ai], listed_b[bi]


def find_coincidences(a, b, windows):
    """Estimate the delay of ``b`` against ``a``, then match at each window.

    Returns (``DelayEstimate``, an iterator of (alice_indices,
    bob_indices), one per window), the same as ``estimate_delay(a, b)``
    followed by ``match_coincidences`` at its delay for each window.  Each window is matched when the iterator reaches it, so a
    caller done with one window's pairs before the next holds one
    window's pairs at a time.
    """
    ta, tb = _times(a), _times(b)
    fine = []
    est = estimate_delay(ta, tb, _fine=fine)
    return est, (match_coincidences(ta, tb, w, est.delay_ps, _fine=fine[0])
                 for w in windows)


# ---------------------------------------------------------------------------
# counts and estimates
# ---------------------------------------------------------------------------

# each party's settings in the order of their index in ``fold``'s terms
# and in the protocol's basis reveal
SETTINGS = {"alice": ("a0", "a1", "a2"), "bob": ("b0", "b1")}


def wiring(party: str) -> dict:
    """{channel: (setting index, bit)} of ``party``'s analyzers, from
    ``quantum.standard_settings``: bit 0 on a setting's + port and 1 on
    its - port, so equal bits mean a +1 outcome product, the flipped a1
    analyzer included."""
    settings = standard_settings()
    out = {}
    for index, name in enumerate(SETTINGS[party]):
        out[settings[name].plus_port] = (index, 0)
        out[settings[name].minus_port] = (index, 1)
    return out


def build_matrix(a: TagStream, b: TagStream, pairs) -> np.ndarray:
    """Matched pairs counted by (Alice's channel, Bob's channel), a 256 x
    256 array."""
    ai, bi = pairs
    combo = a.channels[ai].astype(np.int64) * 256 + b.channels[bi]
    return np.bincount(combo, minlength=256 * 256).reshape(256, 256)


def fold(matrix) -> np.ndarray:
    """``terms[a, b, agree]``: the counts of ``build_matrix`` by Alice's
    setting index a, Bob's b, and whether their bits agree.  A channel
    no setting names counts nowhere."""
    terms = np.zeros((3, 2, 2), dtype=np.int64)
    bob = wiring("bob")
    for ca, (sa, xa) in wiring("alice").items():
        for cb, (sb, xb) in bob.items():
            terms[sa, sb, int(xa == xb)] += matrix[ca, cb]
    return terms


@dataclass(frozen=True)
class EstimatedCorrelation:
    value: float
    std_error: float
    total_counts: int


def estimate(terms) -> dict:
    """The rows of ``estimates.csv`` from ``fold``'s ``terms``.

    E of each CHSH term is (agree - disagree) / n with Poisson variance 4
    agree disagree / n^3, S = E(a0,b0) + E(a0,b1) + E(a1,b0) - E(a1,b1)
    with the terms' errors in quadrature, and, when the key term (a2, b0)
    has counts, the QBER is its disagreeing share with a binomial error.
    Raises InsufficientStatisticsError when a CHSH term has no counts.
    """
    rows = {}
    s = var = 0.0
    for a in (0, 1):
        for b in (0, 1):
            name = f"E({SETTINGS['alice'][a]},{SETTINGS['bob'][b]})"
            disagree, agree = (int(n) for n in terms[a, b])
            n = agree + disagree
            if n == 0:
                raise InsufficientStatisticsError(
                    f"no coincidences for {name}")
            e = EstimatedCorrelation((agree - disagree) / n,
                                     math.sqrt(4.0 * agree * disagree / n**3),
                                     n)
            rows[name] = e
            s += -e.value if (a, b) == (1, 1) else e.value
            var += e.std_error**2
    rows["S"] = EstimatedCorrelation(
        s, math.sqrt(var), sum(e.total_counts for e in rows.values()))
    error, correct = (int(n) for n in terms[2, 0])
    n = error + correct
    if n:
        q = error / n
        rows["QBER"] = EstimatedCorrelation(
            q, math.sqrt(max(q * (1 - q), 1e-12) / n), n)
    return rows


# ---------------------------------------------------------------------------
# sweeps and diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WindowPoint:
    window_ps: int
    s: float
    s_err: float
    pairs: int


def window_sweep(a: TagStream, b: TagStream, windows):
    """Recompute S on the same streams for each coincidence window, at the
    delay ``find_coincidences`` estimates."""
    windows = list(windows)
    if not windows:
        raise ValueError("need at least one window")
    _, matched = find_coincidences(a, b, windows)
    out = []
    for w, pairs in zip(windows, matched):
        s = estimate(fold(build_matrix(a, b, pairs)))["S"]
        out.append(WindowPoint(window_ps=int(w), s=s.value,
                               s_err=s.std_error, pairs=len(pairs[0])))
    return out


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def matrix_csv(matrix) -> str:
    """``alice_det,bob_det,count`` rows of ``build_matrix``'s nonzero
    counts, in channel order."""
    lines = ["alice_det,bob_det,count"]
    lines.extend(f"{da},{db},{matrix[da, db]}"
                 for da, db in zip(*np.nonzero(matrix)))
    return "\n".join(lines) + "\n"


def estimates_csv(estimates: dict) -> str:
    """``term,value,std_error`` rows; values formatted stably for diffing."""
    lines = ["term,value,std_error"]
    for term, est in estimates.items():
        lines.append(f"{term},{est.value:.10g},{est.std_error:.10g}")
    return "\n".join(lines) + "\n"
