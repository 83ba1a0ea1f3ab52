"""Tests for delay estimation, coincidence matching, and count statistics."""

import math

import numpy as np
import pytest

from hybridqkd import harness, kernels, optics, tags
from hybridqkd.optics import (
    ChannelModel,
    DetectorModel,
    DriftModel,
    SourceModel,
    TagStream,
    alice_station,
    bob_station,
    simulate_session,
)
import oracle_delay
from oracle_matching import (accidental_pair_rate, matching_cost,
                             optimal_matching)

IDEAL_DETECTOR = DetectorModel(efficiency=1.0, jitter_fwhm_ps=0.0,
                               dark_rate_hz=0.0, dead_time_ps=0)


def make_streams(rate=100_000.0, duration=5.0, delay=107_800_000, seed=0,
                 jitter_a=0.0, jitter_b=0.0, dark_a=0.0, dark_b=0.0,
                 phase=math.pi):
    src = SourceModel(pair_rate_hz=rate, reference_phase=phase)
    det_a = DetectorModel(efficiency=1.0, jitter_fwhm_ps=jitter_a,
                          dark_rate_hz=dark_a, dead_time_ps=0)
    det_b = DetectorModel(efficiency=1.0, jitter_fwhm_ps=jitter_b,
                          dark_rate_hz=dark_b, dead_time_ps=0)
    a = alice_station(ChannelModel(1.0, 0), det_a)
    b = bob_station(ChannelModel(1.0, delay), det_b)
    return simulate_session(src, DriftModel(), a, b, duration, seed=seed)


class TestEstimateDelay:
    def test_shifted_copy(self):
        rng = np.random.default_rng(31)
        a = np.sort(rng.integers(0, 10**12, 20_000))
        est = tags.estimate_delay(a, a + 102_000)
        assert abs(est.delay_ps - 102_000) <= est.bin_width_ps
        assert est.significance > 5

    def test_fiber_scale_delay_with_jitter(self):
        res = make_streams(rate=100_000.0, duration=5.0, delay=107_800_000,
                           seed=32, jitter_a=400.0, jitter_b=70.0,
                           dark_a=3000.0, dark_b=100.0)
        est = tags.estimate_delay(res.alice, res.bob)
        assert abs(est.delay_ps - 107_800_000) <= est.bin_width_ps

    def test_zero_jitter_exact(self):
        res = make_streams(rate=50_000.0, duration=2.0, delay=55_555_555,
                           seed=33)
        est = tags.estimate_delay(res.alice, res.bob)
        assert abs(est.delay_ps - 55_555_555) <= est.bin_width_ps

    def test_independent_streams_rejected(self):
        rng = np.random.default_rng(34)
        a = np.sort(rng.integers(0, 10**12, 100_000))
        b = np.sort(rng.integers(0, 10**12, 100_000))
        with pytest.raises(tags.NoCorrelationError):
            tags.estimate_delay(a, b)

    def test_dark_only_sessions_rejected(self):
        res_a = make_streams(rate=0.0, duration=2.0, seed=35, dark_a=50_000.0,
                             dark_b=50_000.0)
        res_b = make_streams(rate=0.0, duration=2.0, seed=36, dark_a=50_000.0,
                             dark_b=50_000.0)
        with pytest.raises(tags.NoCorrelationError):
            tags.estimate_delay(res_a.alice, res_b.bob)

    def test_empty_stream_rejected(self):
        with pytest.raises(tags.InsufficientDataError):
            tags.estimate_delay(np.empty(0, np.int64), np.array([1, 2, 3]))

    def test_peak_tie_breaks_to_smaller_delay(self):
        hist = np.zeros(100, dtype=np.int64)
        hist[40] = 50
        hist[60] = 50
        assert tags._peak_bin(hist, smooth_bins=5) == 40

    def test_negative_delay(self):
        rng = np.random.default_rng(37)
        b = np.sort(rng.integers(0, 10**12, 20_000))
        est = tags.estimate_delay(b + 250_000, b)
        assert abs(est.delay_ps + 250_000) <= est.bin_width_ps


def dense_pair(delay, jitter_ps, seed, correlated=400):
    """Prefix-sized streams dense enough for the FFT-located coarse peak:
    8192 tags each in 2**32 ps, ``correlated`` of Bob's copied from
    Alice's at ``delay`` with Gaussian jitter."""
    rng = np.random.default_rng(seed)
    a = np.sort(rng.integers(0, 2**32, 8192))
    copies = rng.choice(a, correlated, replace=False) + delay
    copies += np.rint(rng.normal(0.0, jitter_ps, correlated)).astype(np.int64)
    noise = rng.integers(delay, delay + 2**32, 8192 - correlated)
    return a, np.sort(np.concatenate([copies, noise]))


def flat_pair(delay, seed, correlated):
    """Streams whose uncorrelated pairs are flat over the search range:
    2**15 tags each over 2**36 ps, ``correlated`` of Bob's copied from
    Alice's at ``delay``."""
    rng = np.random.default_rng(seed)
    a = np.sort(rng.integers(0, 2**36, 2**15))
    copies = rng.choice(a, correlated, replace=False) + delay
    noise = rng.integers(0, 2**36, 2**15 - correlated)
    return a, np.sort(np.concatenate([copies, noise]))


def spy_coarse_search(monkeypatch):
    """Record the (grid width, coarse peak bin or None) of every grid the
    FFT-located search tries and the (peak count, background mean, bins)
    of every peak check."""
    located, checked = [], []
    locate, check = tags._located_coarse_peak, tags._check_peak

    def locate_spy(ca, cb, lo, hi, nbins, pairs, step):
        located.append((step, locate(ca, cb, lo, hi, nbins, pairs, step)))
        return located[-1][1]

    def check_spy(peak_count, mu, nbins):
        checked.append((peak_count, mu, nbins))
        return check(peak_count, mu, nbins)
    monkeypatch.setattr(tags, "_located_coarse_peak", locate_spy)
    monkeypatch.setattr(tags, "_check_peak", check_spy)
    return located, checked


def assert_located(located, checked, a, b):
    """At most one grid is tried, and a grid that found a peak found the
    full histogram's, with its count, background mean and bins.  Returns
    that peak, or None when no grid found one."""
    assert len(located) <= 1
    if not located or located[-1][1] is None:
        return None
    hist = kernels.diff_histogram(a, b, -2**28, 2**28, 4096)
    peak = tags._peak_bin(hist, smooth_bins=3)
    assert located[-1][1] == peak
    full = oracle_delay.check_peak(hist, peak, 5.0, 1e-6, 8)
    assert checked[len(located) - 1] == (full[0], full[1], hist.size)
    return peak


class TestCoarseSearchAgainstOracle:
    """The FFT-located coarse stage returns what the full pair histogram
    gives, field for field, whether its one grid or the full histogram
    finds the peak."""

    @pytest.mark.parametrize("delay, jitter_ps", [
        (-250_000, 100),
        (4_096_000, 0),        # on a coarse-bin edge
        (4_096_000, 300),      # straddling it
        (4_095_999, 0),        # next to it
        (4_096_001, 100),
        (-2**28 + 100, 0),     # first coarse bin
        (-(2**28 - 5000), 100),
        (2**28 - 5000, 100),
        (2**28 - 100, 0),      # last coarse bin
        (2**28 - 100, 60),
    ])
    def test_dense_correlated_streams(self, monkeypatch, delay, jitter_ps):
        a, b = dense_pair(delay, jitter_ps, seed=delay % 1000 + jitter_ps)
        located, checked = spy_coarse_search(monkeypatch)
        est = tags.estimate_delay(a, b)
        assert est == oracle_delay.estimate_delay(a, b)
        # two of these peaks fail the checks on the grid; the full
        # histogram finds them
        missed = (delay, jitter_ps) in {(-250_000, 100), (2**28 - 100, 60)}
        assert (assert_located(located, checked, a, b) is None) == missed
        assert abs(est.delay_ps - delay) <= 2 * est.bin_width_ps + jitter_ps

    @pytest.mark.parametrize("seed, located", [(0, True), (1, False)])
    def test_weak_peak(self, monkeypatch, seed, located):
        # a peak near the detection limit: where the grid does not find
        # it, the full histogram still does
        a, b = dense_pair(107_800_000, 30, seed=seed, correlated=70)
        grids, checked = spy_coarse_search(monkeypatch)
        est = tags.estimate_delay(a, b)
        assert grids
        assert (assert_located(grids, checked, a, b) is not None) == located
        assert est == oracle_delay.estimate_delay(a, b)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_dense_independent_streams(self, monkeypatch, seed):
        a, b = dense_pair(0, 0, seed=seed, correlated=0)
        with pytest.raises(tags.NoCorrelationError) as expected:
            oracle_delay.estimate_delay(a, b)
        located, checked = spy_coarse_search(monkeypatch)
        with pytest.raises(tags.NoCorrelationError) as got:
            tags.estimate_delay(a, b)
        # the one grid tried, then the full histogram
        assert len(located) == 1
        assert assert_located(located, checked, a, b) is None
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("correlated, seed, found", [
        (1200, 1, True),
        (600, 0, False),     # blurred away on the grid; the full
        (300, 0, False),     # histogram finds it
    ])
    def test_flat_background(self, monkeypatch, correlated, seed, found):
        a, b = flat_pair(107_800_000, seed, correlated)
        located, checked = spy_coarse_search(monkeypatch)
        est = tags.estimate_delay(a, b)
        assert est == oracle_delay.estimate_delay(a, b)
        assert len(located) == 1
        assert (assert_located(located, checked, a, b) is not None) == found
        assert abs(est.delay_ps - 107_800_000) <= est.bin_width_ps

    def test_sparse_strong_peak_located_on_first_rung(self, monkeypatch):
        # like a 0.5 s ideal run: a tall peak over few pairs per coarse
        # bin, found on a grid of thousands of coarse bins per bin
        res = make_streams(rate=200_000.0, duration=0.5, delay=200_000,
                           seed=39)
        located, checked = spy_coarse_search(monkeypatch)
        est = tags.estimate_delay(res.alice, res.bob)
        assert len(located) == 1 and located[0][0] > 1000
        assert assert_located(located, checked, res.alice.times,
                              res.bob.times) is not None
        assert est == oracle_delay.estimate_delay(res.alice.times,
                                                  res.bob.times)

    def test_sparse_streams_keep_the_full_histogram(self, monkeypatch):
        # so few pairs that every grid is predicted dearer than visiting
        # them all
        res = make_streams(rate=5_000.0, duration=1.0, seed=38,
                           jitter_a=400.0, dark_a=3000.0)
        located, _ = spy_coarse_search(monkeypatch)
        est = tags.estimate_delay(res.alice, res.bob)
        assert not located
        assert est == oracle_delay.estimate_delay(res.alice.times,
                                                  res.bob.times)

    @pytest.mark.parametrize("pairs, spanned", [
        (8_195_527, 122_199_648),    # 0.5 s ideal prefixes
        (286_809_411, 24_218_851),   # 1 s paper prefixes
        (8_400_000, 1_180_000),      # dense_pair
        (54_000, 244_000_000),       # too sparse to locate
    ])
    def test_ladder_starts_at_least_predicted_cost(self, pairs, spanned):
        nbins = 2**17

        def cost(width):
            return (tags._GRID_BIN_NS * spanned / width + tags._PAIR_NS
                    * pairs / nbins * (3 * width + 6))
        full = tags._PAIR_NS * pairs
        width = tags._locate_width(pairs, spanned, nbins)
        best = min(range(tags._LOCATE_BINS, nbins), key=cost)
        if cost(best) >= full:
            assert width is None
            return
        assert cost(width) < full
        assert abs(width - best) <= 1


class TestMatchCoincidences:
    def test_window_edge_inclusive(self):
        ai, bi = tags.match_coincidences(np.array([1000]), np.array([1032]),
                                         window_ps=64, delay_ps=0)
        assert len(ai) == 1

    def test_just_outside_window(self):
        ai, bi = tags.match_coincidences(np.array([1000]), np.array([1032]),
                                         window_ps=60, delay_ps=0)
        assert len(ai) == 0

    def test_delay_applied(self):
        a = np.array([5_000, 9_000])
        b = np.array([105_010, 109_020])
        ai, bi = tags.match_coincidences(a, b, window_ps=64, delay_ps=100_000)
        assert len(ai) == 2
        assert np.array_equal(ai, [0, 1])

    def test_each_tag_once(self):
        rng = np.random.default_rng(41)
        a = np.sort(rng.integers(0, 10**9, 5000))
        b = np.sort(rng.integers(0, 10**9, 5000))
        ai, bi = tags.match_coincidences(a, b, window_ps=2000, delay_ps=0)
        assert len(np.unique(ai)) == len(ai)
        assert len(np.unique(bi)) == len(bi)
        assert (np.abs(a[ai] - b[bi]) <= 1000).all()

    def test_swap_symmetry(self):
        rng = np.random.default_rng(42)
        a = np.sort(rng.integers(0, 10**10, 4000)) * 2 + 1   # odd times
        b = np.sort(rng.integers(0, 10**10, 4000)) * 2       # even times
        ai, bi = tags.match_coincidences(a, b, window_ps=500, delay_ps=7)
        bj, aj = tags.match_coincidences(b, a, window_ps=500, delay_ps=-7)
        fwd = set(zip(ai.tolist(), bi.tolist()))
        rev = set(zip(aj.tolist(), bj.tolist()))
        assert fwd == rev

    def test_monotone_in_window(self):
        rng = np.random.default_rng(43)
        a = np.sort(rng.integers(0, 10**9, 3000))
        b = np.sort(rng.integers(0, 10**9, 3000))
        counts = [len(tags.match_coincidences(a, b, w, 0)[0])
                  for w in (16, 64, 256, 1024)]
        assert counts == sorted(counts)


def preset_streams(preset, seed, duration_s=0.1):
    cfg = harness.load_config(harness.preset_path(preset))
    res = harness._simulate(cfg, seed, duration_s=duration_s)
    return res.alice, res.bob


def separate_calls(a, b, windows):
    est = tags.estimate_delay(a, b)
    return est, [tags.match_coincidences(a, b, w, est.delay_ps)
                 for w in windows]


@pytest.fixture
def match_sizes(monkeypatch):
    """The Alice-side length of every ``kernels.match_nearest`` call."""
    sizes = []
    original = kernels.match_nearest

    def recorded(a, b, half_window):
        sizes.append(len(a))
        return original(a, b, half_window)

    monkeypatch.setattr(kernels, "match_nearest", recorded)
    return sizes


class TestFindCoincidences:
    """``find_coincidences`` against ``estimate_delay`` followed by
    ``match_coincidences`` on the full streams.  A test that shortens the
    fine stage's prefix patches ``tags._FINE_TAGS``."""

    def assert_same(self, a, b, windows):
        est, matched = tags.find_coincidences(a, b, windows)
        matched = list(matched)
        want_est, want = separate_calls(a, b, windows)
        assert est == want_est
        # the fine histogram counts only the pairs inside both prefixes
        assert est == oracle_delay.estimate_delay(
            tags._times(a), tags._times(b), max_fine_tags=tags._FINE_TAGS)
        assert len(matched) == len(windows)
        for (ai, bi), (wai, wbi) in zip(matched, want):
            np.testing.assert_array_equal(ai, wai)
            np.testing.assert_array_equal(bi, wbi)
        return est, matched

    @pytest.mark.parametrize("seed", [3, 17, 29])
    @pytest.mark.parametrize("preset", harness.SCENARIOS)
    def test_presets_with_short_fine_prefix(self, preset, seed, monkeypatch):
        a, b = preset_streams(preset, seed)
        prefix = min(len(a), len(b)) * 3 // 4
        monkeypatch.setattr(tags, "_FINE_TAGS", prefix)
        _, matched = self.assert_same(a, b, [64])
        assert matched[0][0].size

    def test_stream_past_the_prefix_matches_every_tag(self, match_sizes,
                                                      monkeypatch):
        # the fine search stops at the prefix and lists nothing past it
        a, b = preset_streams("paper", 4)
        monkeypatch.setattr(tags, "_FINE_TAGS", len(b) // 2)
        self.assert_same(a, b, [64])
        assert match_sizes[0] == len(a)

    def test_dense_search_matches_every_tag(self, match_sizes):
        # on the ideal streams most tags have a partner in the fine span,
        # so the search lists nothing
        a, b = preset_streams("ideal", 4)
        self.assert_same(a, b, [64])
        assert match_sizes[0] == len(a)

    def test_bob_longer_than_prefix_alice_not(self, monkeypatch):
        a, b = preset_streams("paper", 5)
        a = a.times[:len(b) // 2]
        monkeypatch.setattr(tags, "_FINE_TAGS", len(b) * 3 // 4)
        self.assert_same(a, b, [64, 800])

    def test_alice_longer_than_prefix_bob_not(self, monkeypatch):
        a, b = preset_streams("paper", 6)
        b = b.times[:len(a) // 2]
        monkeypatch.setattr(tags, "_FINE_TAGS", len(a) * 3 // 4)
        self.assert_same(a, b, [64, 800])

    def test_window_outside_fine_span_searches_every_tag(self, match_sizes):
        # the fine stage spans +-2 coarse bins (8192 ps) around the coarse
        # peak; a 20 ns window reaches past it on both sides
        a, b = preset_streams("paper", 7)
        self.assert_same(a, b, [20_000, 64])
        assert match_sizes[0] == len(a)
        assert match_sizes[1] < len(a) // 10

    def test_window_sweep(self):
        a, b = preset_streams("window_sweep", 8)
        windows = [64, 128, 800]
        est, matched = separate_calls(a, b, windows)
        points = tags.window_sweep(a, b, windows)
        for w, point, pairs in zip(windows, points, matched):
            s = tags.estimate(tags.fold(tags.build_matrix(a, b, pairs)))["S"]
            assert point == tags.WindowPoint(window_ps=w, s=s.value,
                                             s_err=s.std_error,
                                             pairs=len(pairs[0]))


class TestGreedyVsOracle:
    def sparse_instance(self, rng):
        """Correlated streams in the sparse regime the matcher targets:
        true pairs well separated relative to the window, plus uncorrelated
        singles on both sides."""
        n_pairs = int(rng.integers(500, 2000))
        span = 10**12
        emit = np.sort(rng.integers(0, span, n_pairs))
        jitter = rng.normal(0.0, 40.0, n_pairs)
        keep_a = rng.random(n_pairs) < 0.8
        keep_b = rng.random(n_pairs) < 0.8
        a = emit[keep_a]
        b = (emit + np.rint(jitter).astype(np.int64))[keep_b]
        extra_a = rng.integers(0, span, int(rng.integers(500, 4000)))
        extra_b = rng.integers(0, span, int(rng.integers(500, 4000)))
        a = np.sort(np.concatenate([a, extra_a]))
        b = np.sort(np.concatenate([b, extra_b]))
        return a, b

    def test_identical_pair_sets_sparse(self):
        rng = np.random.default_rng(44)
        for _ in range(150):
            a, b = self.sparse_instance(rng)
            ai, bi = tags.match_coincidences(a, b, window_ps=64, delay_ps=0)
            oa, ob = optimal_matching(a, b, 32)
            assert np.array_equal(ai, oa) and np.array_equal(bi, ob)

    def test_cardinality_matches_even_when_dense(self):
        # on dense accidental-dominated streams greedy can pick costlier
        # pairs, but it still finds a maximum-cardinality matching
        rng = np.random.default_rng(45)
        for _ in range(60):
            n = int(rng.integers(100, 2000))
            a = np.sort(rng.integers(0, n * 1000, n))
            b = np.sort(rng.integers(0, n * 1000, int(rng.integers(100, 2000))))
            half = int(rng.choice([32, 64, 128]))
            ai, bi = tags.match_coincidences(a, b, 2 * half, 0)
            oa, ob = optimal_matching(a, b, half)
            assert len(ai) == len(oa)
            assert matching_cost(a, b, ai, bi) >= matching_cost(a, b, oa, ob)


def count_matrix(counts):
    """A ``build_matrix`` array holding ``counts``, {(alice channel, bob
    channel): count}."""
    m = np.zeros((256, 256), dtype=np.int64)
    for pair, n in counts.items():
        m[pair] = n
    return m


# one count in each CHSH term but (a0, b0): (a0, b1), (a1, b0), (a1, b1)
OTHER_TERMS = {(3, 3): 1, (5, 1): 1, (5, 3): 1}


def estimates(counts):
    return tags.estimate(tags.fold(count_matrix(counts)))


class TestCountsAndEstimates:
    def test_build_matrix_aggregates(self):
        a = TagStream("alice", 1000,
                      np.array([1, 1, 2], np.uint8), np.array([10, 20, 30]))
        b = TagStream("bob", 1000,
                      np.array([1, 2, 2], np.uint8), np.array([11, 21, 31]))
        m = tags.build_matrix(a, b, (np.array([0, 1, 2]), np.array([0, 1, 2])))
        assert m.shape == (256, 256)
        assert {tuple(int(c) for c in p): int(m[p])
                for p in zip(*np.nonzero(m))} == \
            {(1, 1): 1, (1, 2): 1, (2, 2): 1}
        assert m.sum() == 3

    def test_perfect_correlation(self):
        est = estimates({(3, 1): 100, (4, 2): 100, **OTHER_TERMS})["E(a0,b0)"]
        assert est.value == 1.0
        assert est.std_error == 0.0
        assert est.total_counts == 200

    def test_balanced_counts_frozen_error(self):
        est = estimates({(3, 1): 50, (4, 2): 50, (3, 2): 50, (4, 1): 50,
                         **OTHER_TERMS})["E(a0,b0)"]
        assert est.value == 0.0
        assert est.std_error == pytest.approx(1 / math.sqrt(200))

    def test_error_formula_against_bootstrap(self):
        rng = np.random.default_rng(46)
        counts = {(3, 1): 60, (4, 2): 40, (3, 2): 30, (4, 1): 20}
        est = estimates({**counts, **OTHER_TERMS})["E(a0,b0)"]
        labels = np.concatenate([np.full(n, i) for i, n in
                                 enumerate(counts.values())])
        boot = []
        for _ in range(10_000):
            sample = labels[rng.integers(0, len(labels), len(labels))]
            plus = np.isin(sample, [0, 1]).sum()
            boot.append((plus - (len(labels) - plus)) / len(labels))
        assert est.std_error == pytest.approx(np.std(boot), rel=0.1)

    def test_zero_denominator(self):
        with pytest.raises(tags.InsufficientStatisticsError):
            estimates({})
        # one empty CHSH term is enough to refuse
        with pytest.raises(tags.InsufficientStatisticsError, match="a1,b1"):
            estimates({(3, 1): 10, (3, 3): 10, (5, 1): 10, (1, 1): 10})

    def test_flipped_a1_wiring(self):
        # a1's + port is channel 6: the flipped analyzer's sign convention
        # lands in the fold, so (5, 2) and (6, 1) agree
        terms = tags.fold(count_matrix({(5, 2): 3, (6, 1): 4, (5, 1): 5,
                                        (6, 2): 6}))
        assert terms[1, 0].tolist() == [11, 7]
        terms = tags.fold(count_matrix({(5, 4): 3, (6, 3): 4, (5, 3): 5,
                                        (6, 4): 6}))
        assert terms[1, 1].tolist() == [11, 7]
        terms = tags.fold(count_matrix({(3, 1): 3, (4, 2): 4, (3, 2): 5,
                                        (4, 1): 6}))
        assert terms[0, 0].tolist() == [11, 7]
        assert terms.sum() == 18

    def test_key_pairing(self):
        # H with the early slot and V with the late slot are correct
        terms = tags.fold(count_matrix({(1, 1): 3, (2, 2): 4, (1, 2): 5,
                                        (2, 1): 6}))
        assert terms[2, 0].tolist() == [11, 7]
        assert terms.sum() == 18

    def test_unmapped_channel_counts_nowhere(self):
        # channel 9 names no setting; a fold that looked up its setting
        # as -1 would wrap it into a2
        counts = {(1, 1): 5, (2, 1): 1, (3, 1): 7, (6, 4): 2}
        with_nine = count_matrix({**counts, (9, 1): 11, (9, 4): 13,
                                  (1, 9): 17})
        assert np.array_equal(tags.fold(with_nine),
                              tags.fold(count_matrix(counts)))

    def test_chsh_tsirelson_point(self):
        # counts tuned so each |E| = 0.7071 with the (a1,b1) term negative
        n_p, n_m = 8536, 1464
        terms = np.zeros((3, 2, 2), dtype=np.int64)
        terms[:2, :2] = [n_m, n_p]
        terms[1, 1] = [n_p, n_m]
        est = tags.estimate(terms)
        assert est["S"].value == pytest.approx(4 * 0.7072, abs=0.002)
        assert est["S"].std_error == pytest.approx(
            2 * math.sqrt(4 * 8536 * 1464 / 10_000**3), rel=1e-6)
        assert "QBER" not in est  # the key term is empty

    def test_qber_from_matrix(self):
        est = estimates({(1, 1): 480, (2, 2): 485, (1, 2): 20, (2, 1): 15,
                         (3, 1): 1, **OTHER_TERMS})["QBER"]
        assert est.value == pytest.approx(35 / 1000)
        assert est.total_counts == 1000


class TestEndToEndEstimates:
    def test_ideal_session_chsh(self):
        res = make_streams(rate=200_000.0, duration=10.0, delay=500_000,
                           seed=47)
        est = tags.estimate_delay(res.alice, res.bob)
        pairs = tags.match_coincidences(res.alice, res.bob, 64, est.delay_ps)
        rows = tags.estimate(tags.fold(tags.build_matrix(res.alice, res.bob,
                                                         pairs)))
        s, err = rows["S"].value, rows["S"].std_error
        assert err < 0.01
        assert abs(s - 2 * math.sqrt(2)) < 3 * err
        assert rows["QBER"].value < 0.001

    def test_convergence_rate(self):
        # E from an impairment-free run converges ~ 1/sqrt(N)
        res = make_streams(rate=200_000.0, duration=10.0, delay=0, seed=48)
        pairs = tags.match_coincidences(res.alice, res.bob, 64, 0)
        m = tags.build_matrix(res.alice, res.bob, pairs)
        est = tags.estimate(tags.fold(m))["E(a0,b0)"]
        expected = 1 / math.sqrt(2)
        assert abs(est.value - expected) < 5 * est.std_error
        assert est.std_error < 2.0 / math.sqrt(est.total_counts)

    def test_window_sweep_flat_without_jitter(self):
        # every true pair sits at time difference exactly zero, so widening
        # the window only admits the odd accidental pair
        res = make_streams(rate=100_000.0, duration=5.0, delay=0, seed=49)
        points = tags.window_sweep(res.alice, res.bob, [64, 128, 256])
        assert points[2].pairs - points[0].pairs <= 5
        assert points[0].s == pytest.approx(points[2].s, abs=2e-4)

    def test_window_sweep_degrades_at_bin_separation(self):
        # a window wide enough to admit the +-800 ps uncorrelated-class
        # pairs dilutes S well below the ideal value, while narrow windows
        # stay statistically consistent with it
        res = make_streams(rate=400_000.0, duration=10.0, delay=0, seed=50,
                           jitter_a=400.0, jitter_b=70.0)
        points = tags.window_sweep(res.alice, res.bob, [64, 800])
        s64, s800 = points[0], points[1]
        ideal = 2 * math.sqrt(2)
        assert abs(s64.s - ideal) < 4 * s64.s_err
        assert s800.s + 4 * s800.s_err < ideal
        assert s800.pairs > s64.pairs

    def test_accidental_rate_estimate(self):
        res_a = make_streams(rate=200_000.0, duration=5.0, seed=51)
        res_b = make_streams(rate=200_000.0, duration=5.0, seed=52)
        a, b = res_a.alice, res_b.bob
        window = 4096
        predicted = accidental_pair_rate(a, b, window) * 5.0
        matched = len(tags.match_coincidences(a, b, window, 0)[0])
        assert abs(matched - predicted) < 6 * math.sqrt(predicted)


class TestCsvOutput:
    def test_matrix_csv(self):
        text = tags.matrix_csv(count_matrix({(3, 1): 5, (1, 1): 2}))
        assert text.splitlines() == ["alice_det,bob_det,count", "1,1,2",
                                     "3,1,5"]

    def test_estimates_csv(self):
        est = tags.EstimatedCorrelation(value=0.5, std_error=0.01,
                                        total_counts=100)
        text = tags.estimates_csv({"E(a0,b0)": est})
        assert text.splitlines() == ["term,value,std_error",
                                     "E(a0,b0),0.5,0.01"]
