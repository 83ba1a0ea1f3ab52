"""Inner loops over time-tag arrays: dead-time filtering, the window
search, coincidence matching, and difference histograms.

Each kernel returns what a scalar reference loop returns, vectorized
with numpy or, for the matcher, by a loop that does less work; the
reference loops are kept with the tests, which compare against them.
The dead-time filter finds the runs of tags closer than the dead time
with one ``diff`` and works in vectorized rounds over those runs only.

The window search, ``_window_ranges(a, b, lo, hi)``, gives each tag of
``a`` its range of partners in ``b`` at a difference in [lo, hi): both
ends of every range come from ``_sorted_search``, the first at a + lo
for every tag, the second at a + hi for the tags with a partner, or for
every tag when most have one.  Its queries are formed one
``_SEARCH_CHUNK`` at a time, so only its outputs are as long as ``a``:
``first``, the partner test ``has`` and, in the dense case, ``count``.
Both pair kernels start from it.  ``diff_histogram`` expands the listed
pairs in chunks that stay in cache (``_histogram``).  ``match_nearest``
reads the graph of candidate pairs from the ranges: a component of one
edge always pairs, a lone tag never does, and the scalar loop runs only
on the rest.

One search feeds the delay search and every match after it
(``tags.find_coincidences``): the fine delay stage searches from a
prefix of the shorter stream into the whole other one and counts only
the pairs inside both prefixes (``_prefix_ranges``).  When that prefix
holds the whole shorter stream, each later match whose window fits
inside the fine span hands ``match_nearest`` only the tags the search
listed and the union of their ranges (``_union``).  A tag with no
candidate neither pairs nor blocks a pairing, so the pairs are the same.

The matcher's greedy policy (``_match_nearest_impl``) runs as one
forward merge of the two streams.  When an event is processed, no free
counterpart lies behind it inside its window: that counterpart was
processed earlier, while this event was free and inside its window, so
it would have paired.  Every free candidate therefore lies at or after
the merge point, and the nearest is the first counterpart neither
processed nor taken, which also wins a distance tie.  The taken tags not
yet processed are one run at the head of each stream's unprocessed part,
so the loop keeps two merge indices and one count per stream, and takes
one step per event whatever the window.

Above ``_SPLIT_TAGS`` tags, when the process may use more than one CPU,
``_window_ranges`` runs each of its two searches on the two halves of
the tags it searches, on two threads (``_in_parallel``); numpy releases
the GIL in its sorts, searches and elementwise loops.  Both halves
write into one preallocated output, so nothing is joined: the dense or
sparse case is chosen once, from the share over all of ``a``, and the
sparse case lists its tags once, on one thread.  A worker thread runs only private helpers: a
public function wrapped by a tracer would open a span with no parent on
the worker.  ``optics.simulate_session`` uses the same worker for
Bob's singles, sort and dead time, through the private
``_dead_time_filter``; the public ``dead_time_filter`` only coerces its
arguments and calls it.

``binned_correlation`` counts the pairs of two streams by the difference
of their binned times with FFTs, at a cost that grows with the number of
bins the streams span rather than with the number of pairs;
``tags.estimate_delay`` uses it to locate its coarse peak.

All times are int64 picoseconds and all inputs must be sorted ascending.
"""

from __future__ import annotations

import os
import threading

import numpy as np


def _as_i64(x):
    return np.ascontiguousarray(x, dtype=np.int64)


# ---------------------------------------------------------------------------
# two threads
# ---------------------------------------------------------------------------

# split the per-tag work of longer arrays in two (module docstring)
_SPLIT_TAGS = 1 << 20
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
    else os.cpu_count() or 1


def _two_threads(n):
    """Whether work on ``n`` tags is split over two threads: above
    ``_SPLIT_TAGS``, when this process may use two CPUs."""
    return n > _SPLIT_TAGS and _CPUS > 1


def _halves(n):
    """Slices that cover range(n): its two halves if ``_two_threads(n)``,
    else one."""
    if not _two_threads(n):
        return [slice(0, n)]
    return [slice(0, n // 2), slice(n // 2, n)]


def _in_parallel(fn, calls, parallel=True):
    """``[fn(*args) for args in calls]`` for one or two calls.  With two
    and ``parallel``, the second runs on a worker thread while this one
    runs the first; numpy releases the GIL in its sorts, searches and
    elementwise loops, so the two run at once.  The worker is joined
    before this returns, also when either call raises, and its exception
    is raised here.  ``fn`` must be private: a public function that a
    tracer wraps would open a span on a thread with no parent span."""
    if len(calls) == 1 or not parallel:
        return [fn(*args) for args in calls]
    first, second = calls
    outcome = []

    def work():
        try:
            outcome.append((True, fn(*second)))
        except BaseException as exc:  # noqa: BLE001 - raised by the caller
            outcome.append((False, exc))

    worker = threading.Thread(target=work, name="hybridqkd-worker")
    worker.start()
    try:
        mine = fn(*first)
    finally:
        worker.join()
    ok, theirs = outcome[0]
    if not ok:
        raise theirs
    return [mine, theirs]


# ---------------------------------------------------------------------------
# dead-time filter
# ---------------------------------------------------------------------------

def dead_time_filter(times, dead_ps: int) -> np.ndarray:
    """Boolean keep-mask: a tag survives if it is at least ``dead_ps`` after
    the previous surviving tag of the same array."""
    return _dead_time_filter(_as_i64(times), np.int64(dead_ps))


def _dead_time_filter(times, dead_ps):
    """``dead_time_filter`` of int64 ``times``.  The simulator calls this
    one, also from a worker thread (module docstring).

    Computed in vectorized rounds over the close runs.  A tag at least
    ``dead_ps`` after its predecessor always survives, so only runs of
    tags closer than ``dead_ps`` to their neighbours need work, and each
    run starts from a survivor.  Each round drops the first tag of every
    close run (its predecessor survives), then keeps only the tags still
    next to a close gap.  Gaps only grow as tags drop out, so a tag with
    far neighbours on both sides is settled, and two runs never become
    close to each other.
    """
    n = times.shape[0]
    keep = np.ones(n, dtype=np.bool_)
    if n < 2 or dead_ps <= 0:
        return keep
    close = np.diff(times) < dead_ps  # close[i]: tags i and i + 1
    if not close.any():
        return keep
    # the tags of the close runs, in time order
    in_run = np.zeros(n, dtype=np.bool_)
    in_run[:-1] = close
    in_run[1:] |= close
    pos = np.flatnonzero(in_run)
    cur = times[pos]
    while cur.shape[0] > 1:
        close = np.diff(cur) < dead_ps
        if not close.any():
            break
        # drop the first tag of every run: close behind, not close before
        first = np.zeros(cur.shape[0], dtype=np.bool_)
        first[1:] = close
        first[2:] &= ~close[:-1]
        keep[pos[first]] = False
        # go on with the tags still next to a close gap
        near = np.zeros(cur.shape[0], dtype=np.bool_)
        near[:-1] = close
        near[1:] |= close
        near &= ~first
        pos = pos[near]
        cur = cur[near]
    return keep


# ---------------------------------------------------------------------------
# partner ranges
# ---------------------------------------------------------------------------

# above this share of tags with a partner, list every tag (a measured
# crossover; CHANGES.md gives the figures)
_DENSE_SHARE = 0.8
# ascending queries searched per slice of the sorted array
_SEARCH_CHUNK = 4096


def _sorted_search(b, a, offset, out=None):
    """``np.searchsorted(b, a + offset)`` for ascending ``a``, written to
    ``out`` if given.  The queries are formed one chunk at a time, and
    each chunk is searched within the slice of ``b`` between its first
    query's position and the next chunk's: numpy would search the whole
    of ``b`` for every query, missing cache on long arrays."""
    n = a.shape[0]
    if out is None:
        out = np.empty(n, dtype=np.intp)
    heads = np.searchsorted(b, a[::_SEARCH_CHUNK] + offset)
    ends = np.append(heads[1:], b.shape[0])
    for i, lo, hi in zip(range(0, n, _SEARCH_CHUNK), heads.tolist(),
                         ends.tolist()):
        chunk = slice(i, i + _SEARCH_CHUNK)
        np.add(np.searchsorted(b[lo:hi], a[chunk] + offset), lo,
               out=out[chunk])
    return out


def _window_ranges(a, b, lo, hi):
    """The tags of ``a`` with a partner in ``b`` within [a + lo, a + hi).

    Returns (tags, first, count): the partners of the i-th listed tag are
    b[first[i]:first[i] + count[i]], and both ends ascend with i.  Every
    range is counted by ``_sorted_search``: one search per tag finds
    ``first``, and a gather at it tells which tags have a partner.

    Sparse case, when at most ``_DENSE_SHARE`` of the tags have one:
    ``tags`` indexes them, and one search of their a + hi ends their
    ranges.  Dense case: ``tags`` is None, every tag of ``a`` is listed
    (some with count 0), and a search of every a + hi ends the ranges.

    Only ``first``, the partner test ``has`` and the dense case's
    ``count`` are ever as long as ``a``; each is allocated once, and the
    queries are formed one ``_SEARCH_CHUNK`` at a time.  Above
    ``_SPLIT_TAGS`` tags each search runs on two halves of the tags it
    searches, on two threads (``_halves``), each writing its part of the
    same output; the case is chosen once, from the share over all of
    ``a``, so the result does not depend on the split.
    """
    n = a.shape[0]
    first = np.empty(n, dtype=np.intp)
    has = np.zeros(n, dtype=np.bool_)
    _in_parallel(_first_partners, [(a[part], b, lo, hi, first[part],
                                    has[part]) for part in _halves(n)])
    if np.count_nonzero(has) > _DENSE_SHARE * n:
        del has
        tags, listed = None, a
    else:
        tags = np.flatnonzero(has)
        del has
        first = first[tags]
        listed = a[tags]
    count = np.empty(first.shape[0], dtype=np.intp)
    _in_parallel(_partner_counts, [(listed[part], b, hi, first[part],
                                    count[part])
                                   for part in _halves(count.shape[0])])
    return tags, first, count


def _first_partners(a, b, lo, hi, first, has):
    """Fill ``first`` for ``_window_ranges`` on a part of ``a``, the first
    b at or after each a + lo, and set ``has``, zeros on entry, where the
    b there is before a + hi.  Only a prefix of the tags can have a
    partner: the ones with no b at or after a + lo are a suffix, as
    ``first`` ascends, so the partner test stops at the chunk that holds
    ``b``'s end."""
    _sorted_search(b, a, lo, out=first)
    live = int(np.searchsorted(first, b.shape[0]))
    for i in range(0, live, _SEARCH_CHUNK):
        chunk = slice(i, min(i + _SEARCH_CHUNK, live))
        np.less(b[first[chunk]], a[chunk] + hi, out=has[chunk])


def _partner_counts(a, b, hi, first, count):
    """Fill ``count`` for ``_window_ranges`` on listed tags ``a``: the b
    from ``first`` on and before each a + hi."""
    _sorted_search(b, a, hi, out=count)
    count -= first


def _union(start, stop):
    """The indices in any of the ranges [start[i], stop[i]), ascending;
    both ends must ascend with i.  ``start`` is modified."""
    start[1:] = np.maximum(start[1:], stop[:-1])  # less the part already in
    size = np.maximum(stop - start, 0)
    covered = np.repeat(start - np.cumsum(size) + size, size)
    covered += np.arange(covered.shape[0])
    return covered


# ---------------------------------------------------------------------------
# greedy nearest-neighbor coincidence matching
# ---------------------------------------------------------------------------

def _match_nearest_impl(a, b, half_window):
    """Pair tags of two sorted streams, greedy in global time order.

    Each event, processed in merged time order (ties: stream a first), is
    paired with its nearest not-yet-paired counterpart within
    ``half_window`` (inclusive); equal distances break toward the earlier
    counterpart.  Events that find no free counterpart stay available and
    may be claimed by a later event on the other stream.

    The loop is one forward merge (module docstring): the nearest free
    counterpart is the first one neither processed nor taken, and the
    taken ones not yet processed are the ``ahead`` tags at the head of
    each stream's unprocessed part.  Once either stream is processed,
    no event has a free counterpart left.

    Returns index arrays (ai, bi), in pairing order.
    """
    times = (a.tolist(), b.tolist())
    sizes = (len(times[0]), len(times[1]))
    reach = int(half_window)
    out = ([], [])
    at = [0, 0]  # each stream's next event
    ahead = [0, 0]  # each stream's taken tags from ``at`` on
    while at[0] < sizes[0] and at[1] < sizes[1]:
        side = int(times[1][at[1]] < times[0][at[0]])
        other = 1 - side
        if ahead[side]:
            ahead[side] -= 1
        else:
            c = at[other] + ahead[other]
            if (c < sizes[other]
                    and times[other][c] - times[side][at[side]] <= reach):
                out[side].append(at[side])
                out[other].append(c)
                ahead[other] += 1
        at[side] += 1
    return np.array(out[0], dtype=np.int64), np.array(out[1], dtype=np.int64)


def match_nearest(a, b, half_window: int):
    """Greedy nearest-counterpart pairing of two sorted tag-time arrays.

    See ``_match_nearest_impl`` for the exact policy.  Returns (ai, bi)
    int64 index arrays.  The loop runs only where choices conflict:
    greedy decisions interact only inside connected components of the
    bipartite graph whose edges join tags within ``half_window``.  A
    component of one edge always pairs.  A tag with no candidate neither
    pairs nor blocks a pairing, so dropping such tags from either stream
    leaves the pairs of the others unchanged.  The loop on the remaining
    tags (whole components, in the same relative order) makes exactly
    the choices it makes on the full streams.  The graph is read from
    ``_window_ranges``, and only the tags with a candidate are looked at
    again.

    Under the forward rule (module docstring), each pair joins, on both
    streams, the first tag that the merge has neither passed nor
    paired, and that point only moves forward.  So the pairs never
    cross: pairing order is ascending index on both streams, and the two
    sets of pairs merge by Alice index.
    """
    a, b, half_window = _as_i64(a), _as_i64(b), np.int64(half_window)
    n = a.shape[0]
    m = b.shape[0]
    if n == 0 or m == 0 or half_window < 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    tags, first, count = _window_ranges(a, b, -half_window, half_window + 1)
    end = first + count
    # Candidate ranges ascend at both ends, so only the neighbouring
    # ranges can share a b-tag: an edge is a whole component when its
    # a-tag has one candidate and neither neighbour's range reaches it.
    single = count == 1
    single[1:] &= end[:-1] <= first[1:]
    single[:-1] &= first[1:] > first[:-1]
    iso_a = np.flatnonzero(single)
    iso_b = first[iso_a]

    # every other tag with a candidate goes through the loop; b's are the
    # union of those tags' ranges, each range less what its predecessor
    # already covers
    single |= count == 0
    rest = np.flatnonzero(~single)
    del single
    rest_b = _union(first[rest], end[rest])
    if tags is None:
        rest_a = rest
    else:
        rest_a = tags[rest]
        iso_a = tags[iso_a]
    loop_a, loop_b = _match_nearest_impl(a[rest_a], b[rest_b], half_window)
    loop_a = rest_a[loop_a]
    loop_b = rest_b[loop_b]

    at = np.searchsorted(iso_a, loop_a)
    return np.insert(iso_a, at, loop_a), np.insert(iso_b, at, loop_b)


# ---------------------------------------------------------------------------
# windowed difference histogram
# ---------------------------------------------------------------------------

def diff_histogram(a, b, lo: int, hi: int, bin_width: int) -> np.ndarray:
    """Histogram of pairwise differences b - a restricted to [lo, hi).

    Bin k covers [lo + k*w, lo + (k+1)*w).  ``_window_ranges`` lists
    the pairs and ``_histogram`` counts them.
    """
    if hi <= lo:
        raise ValueError("empty difference range")
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    a, b = _as_i64(a), _as_i64(b)
    lo, hi, bin_width = np.int64(lo), np.int64(hi), np.int64(bin_width)
    return _histogram(a, b, _window_ranges(a, b, lo, hi), lo, hi, bin_width)


def _prefix_ranges(ranges, m):
    """``_window_ranges(a, b, ...)`` cut to the partners in b[:m]; some
    listed tags may be left with none."""
    tags, first, count = ranges
    end = first + count
    np.minimum(end, m, out=end)
    end -= first
    np.maximum(end, 0, out=end)
    return tags, first, end


# pairs a histogram chunk expands at least (see ``_histogram``)
_HISTOGRAM_CHUNK = 1 << 14


def _histogram(a, b, ranges, lo, hi, bin_width, swapped=False):
    """``diff_histogram`` of the pairs ``ranges`` lists, as
    ``_window_ranges(a, b, lo, hi)`` returns them, or with ``swapped`` as
    ``_window_ranges(b, a, 1 - hi, 1 - lo)`` does (the same pairs, listed
    from b); the ranges are not modified.

    Pairs are numbered in order of the listed tags; pair p of listed tag i
    pairs it with entry first[i] + p - start[i] of the other stream, where
    start[i] is the number of pairs of the tags before i.  They are
    expanded in chunks of about ``_HISTOGRAM_CHUNK`` pairs, so that a
    chunk's temporaries stay in cache, or of the number of bins when
    that is larger, as each chunk's bincount is that long; a chunk holds
    the pairs of whole listed tags.
    """
    nbins = int((hi - lo + bin_width - 1) // bin_width)
    chunk = max(_HISTOGRAM_CHUNK, nbins)
    counts = np.zeros(nbins, dtype=np.int64)
    tags, first, per_tag = ranges
    near, far = (b, a) if swapped else (a, b)
    if tags is not None:
        near = near[tags]
    ends = np.cumsum(per_tag)
    if ends.size == 0 or ends[-1] == 0:
        return counts
    first = first - ends
    first += per_tag  # now first[i] - start[i]
    ramp = np.arange(min(int(ends[-1]), chunk), dtype=np.int64)
    begin, n = 0, per_tag.shape[0]
    while begin < n:
        base = int(ends[begin - 1]) if begin else 0
        stop = int(np.searchsorted(ends, base + chunk, side="right"))
        stop = min(max(stop, begin + 1), n)
        cnt = per_tag[begin:stop]
        size = int(ends[stop - 1]) - base
        if size:
            if size > ramp.shape[0]:  # one tag with more pairs than a chunk
                ramp = np.arange(size, dtype=np.int64)
            idx = np.repeat(first[begin:stop] + base, cnt)
            idx += ramp[:size]
            if swapped:  # b - a - lo
                diffs = np.repeat(near[begin:stop] - lo, cnt)
                diffs -= far[idx]
            else:
                diffs = far[idx]
                diffs -= np.repeat(near[begin:stop] + lo, cnt)
            diffs //= bin_width
            counts += np.bincount(diffs, minlength=nbins)
        begin = stop
    return counts


# the longest FFT ``binned_correlation`` takes
_CORRELATION_BLOCK = 1 << 20


def binned_correlation(a, b, lo: int, nlags: int,
                       bin_width: int) -> np.ndarray:
    """Pair counts by binned difference: entry k counts the pairs with
    floor((b[j] - o) / w) - floor((a[i] + lo - o) / w) == k, for k in
    [0, nlags), with a common origin o.

    A pair with b[j] - a[i] in [lo + k*w, lo + (k+1)*w) lands in entry k
    or k + 1, so these are counts of ``diff_histogram`` bins blurred by
    one bin, computed without visiting the pairs: overlap-save with real
    FFTs of length ``_CORRELATION_BLOCK`` (at least 2 * nlags), the
    cross-spectrum of every block summed, one inverse transform.  The
    float error of an entry grows with the product of the two streams'
    norms, so with the bin width as more tags share a bin; at the widths
    ``tags.estimate_delay`` picks it stays far below 1/2, so rounding
    recovers the integer counts (CHANGES.md gives the measurement).
    """
    a = _as_i64(a)
    b = _as_i64(b)
    if a.size == 0 or b.size == 0:
        return np.zeros(nlags, dtype=np.int64)
    origin = min(int(a[0]) + lo, int(b[0]))
    ia = (a + (lo - origin)) // bin_width
    ib = (b - origin) // bin_width
    # short inputs take one block just long enough
    need = int(ia[-1] - ia[0]) + nlags
    block = max(min(_CORRELATION_BLOCK, 1 << (need - 1).bit_length()), 16)
    while block < 2 * nlags:
        block *= 2
    step = block - nlags + 1  # a-bins per block whose lags do not wrap
    spectrum = np.zeros(block // 2 + 1, dtype=np.complex128)
    for first in range(int(ia[0]), int(ia[-1]) + 1, step):
        sa = np.searchsorted(ia, (first, first + step))
        if sa[0] == sa[1]:
            continue
        sb = np.searchsorted(ib, (first, first + block))
        if sb[0] == sb[1]:
            continue
        fa = np.fft.rfft(np.bincount(ia[sa[0]:sa[1]] - first, minlength=step),
                         block)
        fb = np.fft.rfft(np.bincount(ib[sb[0]:sb[1]] - first,
                                     minlength=block), block)
        np.conjugate(fa, out=fa)
        fa *= fb
        spectrum += fa
    corr = np.fft.irfft(spectrum, block)[:nlags]
    return np.rint(corr).astype(np.int64)


def implementations() -> dict:
    """The kernels by name, in the layout the benchmark reads: one build,
    "numpy", which is the active one, and None for the absent second."""
    return {
        "active": "numpy",
        "numpy": {
            "dead_time_filter": dead_time_filter,
            "match_nearest": match_nearest,
            "diff_histogram": diff_histogram,
        },
        "numba": None,
    }
