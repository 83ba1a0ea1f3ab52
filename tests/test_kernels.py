import hashlib
import sys
import tracemalloc

import numpy as np
import pytest

import oracle_kernels
from hybridqkd import kernels


def random_sorted_times(rng, n, span):
    return np.sort(rng.integers(0, span, size=n, dtype=np.int64))


@pytest.fixture(scope="module")
def impls():
    return kernels.implementations()


class TestDeadTime:
    def test_basic_chain(self):
        # 30 is blocked by 0; 60 is far enough from 0; 95 blocked by 60
        times = np.array([0, 30, 60, 95], dtype=np.int64)
        keep = kernels.dead_time_filter(times, 50)
        np.testing.assert_array_equal(keep, [True, False, True, False])

    def test_cascade_release(self):
        # removing a blocked tag can rescue the one after it
        times = np.array([0, 30, 45, 100], dtype=np.int64)
        keep = kernels.dead_time_filter(times, 50)
        np.testing.assert_array_equal(keep, [True, False, False, True])

    def test_zero_dead_time_keeps_all(self):
        rng = np.random.default_rng(1)
        times = random_sorted_times(rng, 500, 10_000)
        assert kernels.dead_time_filter(times, 0).all()

    def test_empty(self):
        assert kernels.dead_time_filter(np.empty(0, np.int64), 10).shape == (0,)

    def test_min_gap_invariant(self):
        rng = np.random.default_rng(2)
        times = random_sorted_times(rng, 5000, 200_000)
        keep = kernels.dead_time_filter(times, 77)
        kept = times[keep]
        assert (np.diff(kept) >= 77).all()
        # and every dropped tag is within the dead window of the previous kept one
        prev = np.searchsorted(kept, times[~keep], side="right") - 1
        assert (times[~keep] - kept[prev] < 77).all()

    @pytest.mark.parametrize("times, dead", [
        ([], 10),
        ([7], 10),
        ([0, 5], 10),                        # the second tag is dropped
        ([0, 10], 10),                       # a gap of exactly dead_ps survives
        ([0, 1, 2, 3], 0),                   # dead_ps 0 keeps everything
        ([4, 4, 4, 9, 9, 30], 5),            # equal times
        ([0, 6, 12, 18, 24, 30, 36], 10),    # each drop frees its successor
        ([0, 9, 11, 19, 21, 29, 31, 50], 10),
        ([0, 3, 40, 80, 83, 86], 10),        # runs at both ends
        ([0, 1, 2, 3, 4, 5, 6, 7, 8, 9], 4),  # one run longer than dead_ps
    ])
    def test_numpy_build_exact_cases(self, impls, times, dead):
        times = np.array(times, dtype=np.int64)
        ref = oracle_kernels.dead_time_filter(times, np.int64(dead))
        got = impls["numpy"]["dead_time_filter"](times, np.int64(dead))
        assert got.dtype == np.bool_
        np.testing.assert_array_equal(got, ref)

    def test_numpy_build_exact_random(self, impls):
        # array for array against the reference loop; dense instances are
        # mostly runs of several close tags, sparse ones mostly isolated tags
        rng = np.random.default_rng(9)
        multi = 0
        for trial in range(400):
            n = int(rng.integers(0, 400))
            span = int(rng.choice([20, 500, 5_000, 100_000]))
            times = random_sorted_times(rng, n, span)
            dead = int(rng.integers(0, 80))
            ref = oracle_kernels.dead_time_filter(times, np.int64(dead))
            got = impls["numpy"]["dead_time_filter"](times, np.int64(dead))
            np.testing.assert_array_equal(got, ref)
            close = np.diff(times) < dead
            multi += int((close[1:] & close[:-1]).any())
        assert multi > 150  # runs of three or more tags were covered


class TestMatchNearest:
    def test_simple_pairs(self):
        a = np.array([100, 500, 900], dtype=np.int64)
        b = np.array([103, 510, 2000], dtype=np.int64)
        ai, bi = kernels.match_nearest(a, b, 16)
        np.testing.assert_array_equal(ai, [0, 1])
        np.testing.assert_array_equal(bi, [0, 1])

    def test_window_inclusive(self):
        ai, bi = kernels.match_nearest(
            np.array([100], np.int64), np.array([132], np.int64), 32)
        assert len(ai) == 1
        ai, bi = kernels.match_nearest(
            np.array([100], np.int64), np.array([133], np.int64), 32)
        assert len(ai) == 0

    def test_nearest_wins(self):
        # the earlier b is processed first and grabs its only candidate,
        # even though a later b is closer: greedy, not globally optimal
        a = np.array([100], np.int64)
        b = np.array([80, 101], np.int64)
        ai, bi = kernels.match_nearest(a, b, 32)
        np.testing.assert_array_equal(bi, [0])
        # with the order reversed in time, nearest-first applies directly
        a = np.array([100], np.int64)
        b = np.array([99, 120], np.int64)
        ai, bi = kernels.match_nearest(a, b, 32)
        np.testing.assert_array_equal(bi, [0])

    def test_tie_breaks_earlier(self):
        a = np.array([100], np.int64)
        b = np.array([97, 103], np.int64)
        ai, bi = kernels.match_nearest(a, b, 32)
        np.testing.assert_array_equal(bi, [0])

    def test_each_tag_at_most_once(self):
        rng = np.random.default_rng(4)
        a = random_sorted_times(rng, 2000, 100_000)
        b = random_sorted_times(rng, 2000, 100_000)
        ai, bi = kernels.match_nearest(a, b, 40)
        assert len(np.unique(ai)) == len(ai)
        assert len(np.unique(bi)) == len(bi)
        assert (np.abs(a[ai] - b[bi]) <= 40).all()

    def test_claimed_later_by_other_stream(self):
        # a[0] finds nothing when processed (b not arrived), b[0] then claims it
        a = np.array([100], np.int64)
        b = np.array([120], np.int64)
        ai, bi = kernels.match_nearest(a, b, 32)
        assert len(ai) == 1

    @pytest.mark.parametrize("a, b, w", [
        ([], [], 5),
        ([1, 2, 3], [], 5),
        ([], [1, 2, 3], 5),
        ([5, 5, 9], [5, 9, 9], 0),           # half_window 0: only equal times
        ([10, 10, 20], [10, 10, 10, 20], 3),  # equal times across streams
        ([0, 4, 8, 12], [2, 6, 10, 14], 2),   # one chain of eight tags
        ([100, 102], [97, 103], 3),           # distance ties
        # few tags with a candidate (the sparse side of _window_ranges)
        ([0, 4, 8, 12, 100, 200, 300, 400, 500, 600], [2, 6, 10, 14, 900], 2),
        ([100, 102, 500, 600, 700, 800], [97, 103, 900], 3),
        ([0, 1000, 2000, 3000, 4000], list(range(990, 1011)), 10),
        ([5, 5, 9, 50, 60, 70, 80, 90], [5, 9, 9, 200], 0),
    ])
    def test_numpy_build_exact_cases(self, impls, a, b, w):
        a = np.array(a, dtype=np.int64)
        b = np.array(b, dtype=np.int64)
        ref = oracle_kernels.match_nearest(a, b, np.int64(w))
        got = impls["numpy"]["match_nearest"](a, b, np.int64(w))
        for r, g in zip(ref, got):
            assert g.dtype == np.int64
            np.testing.assert_array_equal(g, r)

    def test_numpy_build_exact_random(self, impls):
        # the numpy build must reproduce the oracle loop array for array,
        # pairing order included; sparse instances are mostly single-edge
        # components, dense ones mostly components of many tags
        rng = np.random.default_rng(8)
        multi = sparse_multi = 0
        for trial in range(300):
            n = int(rng.integers(0, 300))
            m = int(rng.integers(0, 300))
            span = int(rng.choice([50, 2_000, 100_000]))
            a = random_sorted_times(rng, n, span)
            b = random_sorted_times(rng, m, span)
            w = int(rng.integers(0, 60))
            ref = oracle_kernels.match_nearest(a, b, np.int64(w))
            got = impls["numpy"]["match_nearest"](a, b, np.int64(w))
            np.testing.assert_array_equal(got[0], ref[0])
            np.testing.assert_array_equal(got[1], ref[1])
            # pairs never cross: ascending on both streams
            assert (np.diff(got[0]) > 0).all() and (np.diff(got[1]) > 0).all()
            if n and m:
                lo = np.searchsorted(b, a - w, side="left")
                hi = np.searchsorted(b, a + w, side="right")
                multi += int((hi - lo >= 2).any())
                sparse = kernels._window_ranges(a, b, -w, w + 1)[0] is not None
                sparse_multi += int(sparse and (hi - lo >= 2).any())
        assert multi > 100  # components of more than two tags were covered
        assert sparse_multi > 30  # ... also among few tags with a candidate

    @pytest.mark.parametrize("w", [2**40, 2**62])
    def test_loop_matches_oracle_wide_windows(self, w):
        # the forward merge against the literal scan, on whole streams in
        # one window; spans of 20-50 ps make many times equal, within and
        # across the streams, and many distances tie
        rng = np.random.default_rng(w % 1009)
        for trial in range(60):
            n = int(rng.integers(0, 120))
            m = int(rng.integers(0, 120))
            span = int(rng.integers(20, 51))
            a = random_sorted_times(rng, n, span)
            b = random_sorted_times(rng, m, span)
            ref = oracle_kernels.match_nearest(a, b, np.int64(w))
            got = kernels._match_nearest_impl(a, b, np.int64(w))
            for r, g in zip(ref, got):
                assert g.dtype == np.int64
                np.testing.assert_array_equal(g, r)

    def test_loop_steps_linear_at_wide_window(self):
        # count the loop's executed lines, not its wall time: a loop that
        # rescans taken candidates takes about n * m steps here
        rng = np.random.default_rng(28)
        n, m = 600, 500
        a = random_sorted_times(rng, n, 10**9)
        b = random_sorted_times(rng, m, 10**9)
        code = kernels._match_nearest_impl.__code__
        steps = 0

        def local(frame, event, arg):
            nonlocal steps
            steps += event == "line"
            return local

        def call(frame, event, arg):
            return local if frame.f_code is code else None

        tracer = sys.gettrace()
        sys.settrace(call)
        try:
            ai, bi = kernels._match_nearest_impl(a, b, np.int64(2**62))
        finally:
            sys.settrace(tracer)
        assert 0 < steps <= 20 * (n + m)
        # a window over the whole span pairs the x-th tags of both streams
        np.testing.assert_array_equal(ai, np.arange(min(n, m)))
        np.testing.assert_array_equal(bi, np.arange(min(n, m)))
        for got in kernels.match_nearest(a, b, 2**62):
            np.testing.assert_array_equal(got, np.arange(min(n, m)))

    # SHA-256 of the loop's (ai, bi) over the instances of
    # test_loop_golden, captured from the loop with one branch per stream
    # that the one-body loop replaced
    LOOP_DIGEST = \
        "2227dbd013d5f0d9e38f7af547adbaf13084aedf48f4a46f0325e08399629ddf"

    def test_loop_golden(self):
        # dense instances, where many tags of either stream have two
        # candidates at the same distance, one on each side
        def ties(x, y, w):
            diff = y[None, :] - x[:, None]
            return sum(int(((diff == d).any(1) & (diff == -d).any(1)).sum())
                       for d in range(1, w + 1))

        rng = np.random.default_rng(2025)
        h = hashlib.sha256()
        ties_a = ties_b = 0
        for trial in range(40):
            n = int(rng.integers(100, 400))
            m = int(rng.integers(100, 400))
            span = int(rng.choice([500, 2_000, 8_000]))
            w = int(rng.integers(1, 25))
            a = random_sorted_times(rng, n, span)
            b = random_sorted_times(rng, m, span)
            ai, bi = kernels._match_nearest_impl(a, b, np.int64(w))
            h.update(np.ascontiguousarray(ai, "<i8").tobytes())
            h.update(np.ascontiguousarray(bi, "<i8").tobytes())
            ties_a += ties(a, b, w)
            ties_b += ties(b, a, w)
        assert ties_a > 1000 and ties_b > 1000
        assert h.hexdigest() == self.LOOP_DIGEST


class TestWindowRanges:
    """``_window_ranges`` against two binary searches per tag."""

    @staticmethod
    def dense(a, b, lo, hi):
        """Check the ranges; return whether the dense case ran."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        tags, first, count = kernels._window_ranges(a, b, lo, hi)
        ref_first = np.searchsorted(b, a + lo, side="left")
        ref_count = np.searchsorted(b, a + hi, side="left") - ref_first
        dense = tags is None
        if dense:
            tags = np.arange(a.shape[0])
        else:
            np.testing.assert_array_equal(tags, np.flatnonzero(ref_count))
        assert first.dtype == np.int64 and count.dtype == np.int64
        np.testing.assert_array_equal(first, ref_first[tags])
        np.testing.assert_array_equal(count, ref_count[tags])
        return dense

    @pytest.mark.parametrize("a, b, lo, hi, dense", [
        ([], [1, 2], 0, 5, False),                      # empty a
        ([1, 2, 3], [], 0, 5, False),                   # empty b
        ([0, 10, 50, 60], [2, 11], 0, 3, False),        # queries past b[-1]
        ([0, 1000, 2000, 3000, 5000], [3001, 3002, 3003], 0, 10, False),
        ([5, 5, 5, 9], [5, 5, 9, 9, 9], 0, 1, True),    # equal times
        ([5, 5, 6, 20, 30, 40, 50], [5, 5, 7], 0, 1, False),
        ([10, 20, 30], [7, 13, 17, 23, 33], -3, 4, True),  # as the matcher
        ([10, 20, 30, 40, 50], [7, 13, 17, 60], -3, 4, False),
        ([100, 200], [0, 1, 2], -100, -97, False),      # a window behind a
    ])
    def test_cases(self, a, b, lo, hi, dense):
        assert self.dense(a, b, lo, hi) == dense

    @pytest.mark.parametrize("count", [1, 2, 8, 9, 10, 64, 1000])
    def test_long_range(self, count):
        # one tag among a thousand has every partner: the sparse case's
        # search ends a range of one partner up to a thousand
        a = np.arange(0, 10**6, 1000, dtype=np.int64)
        b = 500_000 + np.arange(count, dtype=np.int64)
        assert not self.dense(a, b, 0, 1000)
        tags, _, got = kernels._window_ranges(a, b, 0, 1000)
        assert tags.tolist() == [500] and got.tolist() == [count]

    def test_share_picks_the_case(self):
        # k of 100 tags have one partner each: up to _DENSE_SHARE of them
        # take the sparse case, one more the dense case
        a = np.arange(0, 1000, 10, dtype=np.int64)
        k = int(kernels._DENSE_SHARE * 100)
        assert not self.dense(a, a[:k] + 3, 0, 5)
        assert self.dense(a, a[:k + 1] + 3, 0, 5)

    def test_random(self):
        rng = np.random.default_rng(13)
        cases = {True: 0, False: 0}
        for trial in range(300):
            span = int(rng.choice([100, 10_000, 10**6]))
            a = random_sorted_times(rng, int(rng.integers(0, 500)), span)
            b = random_sorted_times(rng, int(rng.integers(0, 500)), span)
            lo = int(rng.integers(-300, 300))
            hi = lo + int(rng.integers(1, 300))
            cases[self.dense(a, b, lo, hi)] += 1
        assert min(cases.values()) > 50

    @pytest.mark.parametrize("chunk", [1, 3, 64])
    def test_chunked_first_search(self, monkeypatch, chunk):
        # the searches take a chunk of queries per slice of b; small
        # chunks put chunk edges inside runs of equal times, on empty
        # slices and past b's end
        monkeypatch.setattr(kernels, "_SEARCH_CHUNK", chunk)
        rng = np.random.default_rng(15)
        cases = {True: 0, False: 0}
        for trial in range(100):
            span = int(rng.choice([100, 10_000]))
            a = random_sorted_times(rng, int(rng.integers(0, 300)), span)
            b = random_sorted_times(rng, int(rng.integers(0, 300)), span)
            lo = int(rng.integers(-300, 300))
            cases[self.dense(a, b, lo, lo + int(rng.integers(1, 300)))] += 1
        assert min(cases.values()) > 5
        # b ends inside a chunk: from tag 101 on, first == len(b)
        b = np.arange(1, 101, dtype=np.int64)
        for n, dense in [(110, True), (200, False)]:
            a = np.arange(n, dtype=np.int64)
            assert self.dense(a, b, 0, 2) == dense
            assert self.dense(a - 300, b, 300, 302) == dense
        for a, b in [([], [1, 2]), ([1, 2], []), ([], [])]:
            assert not self.dense(a, b, -5, 5)
        b = np.sort(rng.integers(0, 10**6, 500))
        a = np.sort(rng.integers(-10, 10**6 + 10, 1000))
        empty = np.empty(0, dtype=np.int64)
        for offset in [-10**6 - 20, -300, -1, 0, 300, 10**6 + 20]:
            np.testing.assert_array_equal(kernels._sorted_search(b, a, offset),
                                          np.searchsorted(b, a + offset))
            assert kernels._sorted_search(b, empty, offset).shape == (0,)
            np.testing.assert_array_equal(
                kernels._sorted_search(empty, a, offset), np.zeros(1000))

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("dense, window, per_tag", [
        (False, 10, 10), (False, 1200, 25), (False, 1500, 27),
        (True, 4000, 18)])
    def test_memory(self, monkeypatch, cpus, dense, window, per_tag):
        # only the outputs are as long as a: first and has, 9 bytes a tag,
        # and the dense case's count, 8 more; the queries are formed one
        # chunk at a time, and two halves write into the same outputs.
        # With 70% and 78% of the tags listed the sparse case's tags,
        # first, queries and counts, 32 bytes a listed tag, set the peak,
        # so has and the full-length first must be freed before its search.
        monkeypatch.setattr(kernels, "_CPUS", cpus)
        n = 1 << 21
        assert len(kernels._halves(n)) == cpus
        rng = np.random.default_rng(21)
        a = np.cumsum(rng.integers(1, 2000, n))  # one tag per ns on average
        b = np.sort(rng.integers(0, a[-1], n))
        tracemalloc.start()
        try:
            ranges = kernels._window_ranges(a, b, 0, window)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (ranges[0] is None) == dense
        assert peak <= per_tag * n

    @staticmethod
    def split_above(monkeypatch, n):
        """Split the work on more than ``n`` tags over two threads."""
        monkeypatch.setattr(kernels, "_SPLIT_TAGS", n)
        monkeypatch.setattr(kernels, "_CPUS", 2)

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 66, 200])
    def test_two_halves(self, monkeypatch, n):
        # streams at the split threshold of 64 tags and around it
        self.split_above(monkeypatch, 64)
        assert len(kernels._halves(n)) == (2 if n > 64 else 1)
        rng = np.random.default_rng(16 + n)
        cases = {True: 0, False: 0}
        for trial in range(60):
            span = int(rng.choice([100, 10_000, 10**6]))
            a = random_sorted_times(rng, n, span)
            b = random_sorted_times(rng, int(rng.integers(0, 300)), span)
            lo = int(rng.integers(-300, 300))
            cases[self.dense(a, b, lo, lo + int(rng.integers(1, 300)))] += 1
        assert min(cases.values()) > 5

    @pytest.mark.parametrize("first, second, dense", [
        (100, 50, False), (50, 100, False), (100, 70, True), (70, 100, True),
    ])
    def test_case_from_both_halves(self, monkeypatch, first, second, dense):
        # ``first`` of the first half's 100 tags and ``second`` of the
        # second half's have a partner: one half alone would take the
        # dense case, the share over both decides
        self.split_above(monkeypatch, 64)
        a = np.arange(0, 2000, 10, dtype=np.int64)
        b = np.concatenate([a[:first], a[100:100 + second]]) + 3
        assert self.dense(a, b, 0, 5) == dense


class TestDiffHistogram:
    def test_known_counts(self):
        a = np.array([0, 10], np.int64)
        b = np.array([3, 12], np.int64)
        # diffs: 3, 12, -7, 2 ; range [-8, 16) with width 8 -> bins [-8,0) [0,8) [8,16)
        counts = kernels.diff_histogram(a, b, -8, 16, 8)
        np.testing.assert_array_equal(counts, [1, 2, 1])

    def test_range_half_open(self):
        a = np.array([0], np.int64)
        b = np.array([16], np.int64)
        counts = kernels.diff_histogram(a, b, 0, 16, 8)
        assert counts.sum() == 0

    def test_total_matches_bruteforce(self):
        rng = np.random.default_rng(6)
        a = random_sorted_times(rng, 300, 5_000)
        b = random_sorted_times(rng, 300, 5_000)
        counts = kernels.diff_histogram(a, b, -128, 128, 16)
        diffs = (b[None, :].astype(np.int64) - a[:, None]).ravel()
        diffs = diffs[(diffs >= -128) & (diffs < 128)]  # bins are half-open
        expected = np.bincount((diffs + 128) // 16, minlength=16)
        np.testing.assert_array_equal(counts, expected)

    def test_invalid_args(self):
        a = np.array([0], np.int64)
        with pytest.raises(ValueError):
            kernels.diff_histogram(a, a, 10, 10, 4)
        with pytest.raises(ValueError):
            kernels.diff_histogram(a, a, 0, 10, 0)

    def test_numpy_build_exact_across_chunks(self, impls, monkeypatch):
        # the numpy build expands the pairs chunk by chunk; chunks of as
        # many pairs as the histogram has bins (the fewest a chunk takes),
        # of less than one tag's pairs and of the default size all must
        # reproduce the reference loop
        rng = np.random.default_rng(9)
        fn = impls["numpy"]["diff_histogram"]
        for trial in range(40):
            span = int(rng.choice([300, 20_000, 10**6]))
            a = random_sorted_times(rng, int(rng.integers(0, 400)), span)
            b = random_sorted_times(rng, int(rng.integers(0, 400)), span)
            lo = int(rng.integers(-span, span // 4))
            hi = lo + int(rng.integers(1, span))
            w = int(rng.integers(1, 500))
            ref = oracle_kernels.diff_histogram(a, b, lo, hi, w)
            for chunk in (1, 7, 1000):
                monkeypatch.setattr(kernels, "_HISTOGRAM_CHUNK", chunk)
                got = fn(a, b, np.int64(lo), np.int64(hi), np.int64(w))
                assert got.dtype == np.int64
                np.testing.assert_array_equal(got, ref)
        # few tags with a pair (the sparse side of _window_ranges), some
        # of them with a burst of many pairs
        for trial in range(40):
            a = random_sorted_times(rng, int(rng.integers(1, 400)), 10**5)
            b = random_sorted_times(rng, int(rng.integers(1, 400)), 10**5)
            if trial % 2:
                burst = int(rng.integers(0, 10**5))
                b = np.sort(np.concatenate(
                    [b, burst + random_sorted_times(rng, 30, 100)]))
            lo = int(rng.integers(-200, 200))
            hi = lo + int(rng.integers(1, 200))
            w = int(rng.integers(1, 50))
            assert kernels._window_ranges(a, b, lo, hi)[0] is not None
            ref = oracle_kernels.diff_histogram(a, b, lo, hi, w)
            for chunk in (1, 7, 1000):
                monkeypatch.setattr(kernels, "_HISTOGRAM_CHUNK", chunk)
                got = fn(a, b, np.int64(lo), np.int64(hi), np.int64(w))
                np.testing.assert_array_equal(got, ref)
        # several default-size chunks
        monkeypatch.undo()
        a = random_sorted_times(rng, 3000, 400_000)
        b = random_sorted_times(rng, 3000, 400_000)
        args = (np.int64(-40_000), np.int64(50_000), np.int64(1000))
        ref = oracle_kernels.diff_histogram(a, b, *args)
        assert ref.sum() > 3 * (1 << 17)
        np.testing.assert_array_equal(fn(a, b, *args), ref)


class TestBinnedCorrelation:
    def test_matches_definition(self, monkeypatch):
        # entry k counts pairs whose binned times differ by k bins; short
        # blocks force the overlap-save path through many blocks
        rng = np.random.default_rng(10)
        for trial in range(60):
            span = int(rng.choice([10**4, 10**6, 10**8]))
            a = random_sorted_times(rng, int(rng.integers(1, 300)), span)
            b = random_sorted_times(rng, int(rng.integers(1, 300)), span)
            w = int(rng.integers(1, 5000))
            lo = int(rng.integers(-span // 2, span // 4))
            nlags = int(rng.integers(1, 3000))
            block = int(rng.choice([16, 1024, 1 << 20]))
            monkeypatch.setattr(kernels, "_CORRELATION_BLOCK", block)
            got = kernels.binned_correlation(a, b, lo, nlags, w)
            origin = min(a[0] + lo, b[0])
            lag = ((b[None, :] - origin) // w
                   - (a[:, None] + lo - origin) // w).ravel()
            expected = np.bincount(lag[(lag >= 0) & (lag < nlags)],
                                   minlength=nlags)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, expected)

    def test_blurs_histogram_by_one_bin(self):
        # every pair of diff_histogram bin k sits in entry k or k + 1
        rng = np.random.default_rng(11)
        a = random_sorted_times(rng, 2000, 10**7)
        b = random_sorted_times(rng, 2000, 10**7)
        hist = kernels.diff_histogram(a, b, -50_000, 50_000, 1000)
        corr = kernels.binned_correlation(a, b, -50_000, hist.size + 1, 1000)
        below = kernels.diff_histogram(a, b, -51_000, -50_000, 1000).sum()
        total = np.cumsum(corr)
        assert (total[1:] >= np.cumsum(hist)).all()
        assert (total[:-1] <= np.cumsum(hist) + below).all()

    @pytest.mark.parametrize("n_a, n_b, span, grid", [
        (100_000, 75_000, 5 * 10**11, 2568),   # 0.5 s ideal streams
        (1 << 18, 1 << 18, 10**11, 193),       # 1 s paper prefixes
    ])
    def test_exact_at_the_widest_located_grid(self, n_a, n_b, span, grid):
        # the widest grids tags.estimate_delay picks on the benchmark's
        # ideal and paper streams (seeds 1-10), at 4096 ps coarse bins:
        # rounding still recovers every count, the correlated peak's too
        rng = np.random.default_rng(12)
        a = random_sorted_times(rng, n_a, span)
        b = np.sort(np.concatenate([
            rng.choice(a, n_b // 2, replace=False) + 107_650_000,
            random_sorted_times(rng, n_b - n_b // 2, span)]))
        lo, w = -2**28, grid * 4096
        nlags = -(-2**17 // grid) + 1
        got = kernels.binned_correlation(a, b, lo, nlags, w)
        origin = min(a[0] + lo, b[0])
        ca = np.bincount((a + lo - origin) // w)
        cb = np.bincount((b - origin) // w, minlength=ca.size + nlags)
        expected = [int(ca @ cb[k:k + ca.size]) for k in range(nlags)]
        np.testing.assert_array_equal(got, expected)

    def test_empty(self):
        one = np.array([5], np.int64)
        empty = np.empty(0, np.int64)
        assert kernels.binned_correlation(empty, one, 0, 4, 8).tolist() == \
            [0, 0, 0, 0]
        assert kernels.binned_correlation(one, empty, 0, 4, 8).sum() == 0


class TestImplementations:
    def test_shape_read_by_the_benchmark(self, impls):
        # the perfbench harness reads these keys: the active build's name,
        # the numpy build's three kernels, and "numba" (no second build)
        assert impls["active"] == "numpy"
        assert impls["numba"] is None
        assert set(impls["numpy"]) == {"dead_time_filter", "match_nearest",
                                       "diff_histogram"}
        assert all(callable(fn) for fn in impls["numpy"].values())
