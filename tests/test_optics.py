"""Tests for the optical link simulator.

Statistical checks draw with fixed seeds and compare against the closed-form
quantum correlations, so they are deterministic despite being Monte Carlo.
"""

import io
import math
import warnings

import numpy as np
import pytest
from scipy import stats

from hybridqkd import optics, quantum
from hybridqkd.optics import (
    BIN_SEPARATION_PS,
    ChannelModel,
    DetectorModel,
    DriftModel,
    SourceModel,
    TagStream,
    alice_station,
    bob_station,
    detector_presets,
    dump_tagstream,
    load_tagstream,
    phase_at,
    simulate_session,
)
import oracle_kernels
from oracle_optics import (
    detect,
    generate_pair_times,
    sample_pair_outcome,
    simulate_clicks,
)

IDEAL_DETECTOR = DetectorModel(efficiency=1.0, jitter_fwhm_ps=0.0,
                               dark_rate_hz=0.0, dead_time_ps=0)


def ideal_stations(delay_b=0):
    a = alice_station(ChannelModel(1.0, 0), IDEAL_DETECTOR)
    b = bob_station(ChannelModel(1.0, delay_b), IDEAL_DETECTOR)
    return a, b


class TestModels:
    def test_transmittance_range(self):
        with pytest.raises(ValueError):
            ChannelModel(transmittance=1.2)
        with pytest.raises(ValueError):
            ChannelModel(transmittance=-0.1)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            SourceModel(pair_rate_hz=-1.0)

    def test_detector_validation(self):
        with pytest.raises(ValueError):
            DetectorModel(efficiency=2.0, jitter_fwhm_ps=0, dark_rate_hz=0,
                          dead_time_ps=0)
        with pytest.raises(ValueError):
            DetectorModel(efficiency=0.5, jitter_fwhm_ps=-1, dark_rate_hz=0,
                          dead_time_ps=0)

    def test_jitter_sigma_conversion(self):
        det = DetectorModel(efficiency=1.0, jitter_fwhm_ps=400.0,
                            dark_rate_hz=0.0, dead_time_ps=0)
        assert det.jitter_sigma_ps == pytest.approx(400.0 / 2.3548)

    def test_drift_kind_validation(self):
        with pytest.raises(ValueError):
            DriftModel(kind="quadratic")
        with pytest.raises(ValueError):
            DriftModel(kind="sine", amplitude_rad=1.0, period_s=0.0)

    def test_presets_exist(self):
        presets = detector_presets()
        assert presets["spcm"].jitter_fwhm_ps == 400.0
        assert presets["spcm"].dead_time_ps == 50_000
        assert presets["sspd"].jitter_fwhm_ps == 70.0
        assert presets["sspd"].dead_time_ps == 40_000

    def test_station_splitting_must_sum(self):
        with pytest.raises(ValueError):
            optics.Station(
                channel=ChannelModel(1.0, 0),
                detector=IDEAL_DETECTOR,
                settings=alice_station(ChannelModel(1.0, 0),
                                       IDEAL_DETECTOR).settings,
                splitting=(0.5, 0.25, 0.5),
                modes=("polarizer",) * 3,
            )

    def test_default_stations(self):
        a, b = ideal_stations()
        assert [s.name for s in a.settings] == ["a2", "a0", "a1"]
        assert a.splitting == (0.5, 0.25, 0.25)
        assert [s.name for s in b.settings] == ["b0", "b1"]
        assert b.modes == ("time", "interference")
        assert set(a.channel_ids) == {1, 2, 3, 4, 5, 6}
        assert set(b.channel_ids) == {1, 2, 3, 4}


class TestPhaseAt:
    def test_constant(self):
        src = SourceModel(1.0, reference_phase=math.pi)
        d = DriftModel(kind="none", offset_rad=0.25)
        assert phase_at(src, d, 0) == pytest.approx(math.pi + 0.25)
        assert phase_at(src, d, 5_000_000) == pytest.approx(math.pi + 0.25)

    def test_linear(self):
        src = SourceModel(1.0, reference_phase=0.0)
        d = DriftModel(kind="linear", rate_rad_per_s=0.5)
        # 2 seconds in
        assert phase_at(src, d, 2 * optics.PS_PER_SECOND) == pytest.approx(1.0)

    def test_sine(self):
        src = SourceModel(1.0, reference_phase=0.0)
        d = DriftModel(kind="sine", amplitude_rad=0.3, period_s=4.0)
        t_quarter = optics.PS_PER_SECOND  # quarter period
        assert phase_at(src, d, t_quarter) == pytest.approx(0.3)
        assert phase_at(src, d, 2 * t_quarter) == pytest.approx(0.0, abs=1e-12)

    def test_vectorized_matches_scalar(self):
        src = SourceModel(1.0, reference_phase=1.0)
        d = DriftModel(kind="linear", offset_rad=0.1, rate_rad_per_s=2.0)
        ts = np.array([0, 10**11, 3 * 10**12])
        vec = phase_at(src, d, ts)
        assert vec == pytest.approx([phase_at(src, d, int(t)) for t in ts])


class TestGeneratePairTimes:
    def test_count_and_range(self):
        src = SourceModel(pair_rate_hz=50_000.0)
        rng = np.random.default_rng(11)
        times = generate_pair_times(src, 2.0, rng)
        lam = 100_000
        assert abs(len(times) - lam) < 5 * math.sqrt(lam)
        assert times[0] >= 0
        assert times[-1] < 2 * optics.PS_PER_SECOND
        assert (np.diff(times) >= 0).all()

    def test_seed_determinism(self):
        src = SourceModel(pair_rate_hz=10_000.0)
        t1 = generate_pair_times(src, 1.0, np.random.default_rng(3))
        t2 = generate_pair_times(src, 1.0, np.random.default_rng(3))
        assert np.array_equal(t1, t2)


class FixedGaps:
    """Generator stand-in whose exponential draws are all ``gap`` ps."""

    def __init__(self, gap):
        self.gap = gap
        self.sizes = []

    def exponential(self, scale, size):
        self.sizes.append(size)
        assert len(self.sizes) <= 10, "the arrivals never reach the end"
        return np.full(size, self.gap, dtype=np.float64)


class TestPoissonStream:
    # 1 GHz over 100 ns: 100 arrivals expected, so each chunk draws
    # int(100 + 6 * sqrt(101) + 16) = 176 gaps
    @pytest.mark.parametrize("gap, chunks", [(500.0, 2), (250.0, 3)])
    def test_later_chunks_continue_from_the_last_arrival(self, gap, chunks):
        rng = FixedGaps(gap)
        times = optics._poisson_stream_ps(rng, 1e9, 100_000)
        assert rng.sizes == [176] * chunks
        # the arrival at exactly 100_000 ps is outside [0, duration)
        np.testing.assert_array_equal(
            times, np.cumsum(np.full(int(100_000 / gap) - 1, gap)))
        assert times[-1] == 100_000 - gap


class TestSamplePairOutcome:
    def draw_many(self, phase, n, seed):
        a, b = ideal_stations()
        rng = np.random.default_rng(seed)
        return [sample_pair_outcome(phase, a, b, rng) for _ in range(n)]

    def test_interference_satellites_drop_bob(self):
        for a_part, b_part, central in self.draw_many(math.pi, 4000, 21):
            if b_part is None:
                assert not central
            if not central and b_part is not None:
                # surviving satellites are time-basis; bins differ by one
                b_idx, _, b_bin = b_part
                _, _, a_bin = a_part
                assert b_idx == 0
                assert a_bin + b_bin == 1

    def test_time_basis_bin_follows_outcome(self):
        for a_part, b_part, central in self.draw_many(0.5, 4000, 22):
            if b_part is not None and b_part[0] == 0:
                _, y, s = b_part
                assert s == (0 if y == 1 else 1)
                if central:
                    assert a_part[2] == s

    def test_central_correlation_matches_born(self):
        draws = self.draw_many(math.pi, 30_000, 23)
        st = quantum.standard_settings()
        state = quantum.hybrid_state(math.pi)
        prods, n = 0.0, 0
        for a_part, b_part, central in draws:
            if not central or b_part is None:
                continue
            if a_part[0] == 1 and b_part[0] == 1:  # a0 x b1
                prods += a_part[1] * b_part[1]
                n += 1
        e_mc = prods / n
        e_q = quantum.correlation(state, st["a0"], st["b1"])
        sigma = math.sqrt((1 - e_q**2) / n)
        assert abs(e_mc - e_q) < 5 * sigma

    def test_satellite_key_outcomes_anticorrelated(self):
        draws = self.draw_many(math.pi, 20_000, 24)
        for a_part, b_part, central in draws:
            if central or b_part is None:
                continue
            if a_part[0] == 0 and b_part[0] == 0:  # a2 x b0
                # H goes with the late slot and V with the early one
                assert a_part[1] * b_part[1] == -1


class TestDetect:
    def test_exact_time_with_ideal_detector(self):
        # arrival carries the late-bin offset; detect adds the channel delay
        channel = ChannelModel(1.0, delay_ps=123_456)
        rng = np.random.default_rng(0)
        state = {}
        emission = 10_000
        tag = detect(emission + BIN_SEPARATION_PS, 2, channel, IDEAL_DETECTOR,
                     state, rng)
        assert tag is not None
        assert tag.time_ps == emission + 123_456 + 800
        assert tag.channel == 2

    def test_zero_transmittance_never_clicks(self):
        channel = ChannelModel(0.0, 0)
        rng = np.random.default_rng(1)
        assert all(
            detect(1000 * i, 1, channel, IDEAL_DETECTOR, {}, rng) is None
            for i in range(200)
        )

    def test_thinning_rate(self):
        channel = ChannelModel(0.5, 0)
        det = DetectorModel(efficiency=0.6, jitter_fwhm_ps=0, dark_rate_hz=0,
                            dead_time_ps=0)
        rng = np.random.default_rng(2)
        n = 20_000
        kept = sum(
            detect(i * 1000, 1, channel, det, {}, rng) is not None
            for i in range(n)
        )
        p = 0.3
        assert abs(kept - n * p) < 5 * math.sqrt(n * p * (1 - p))

    def test_dead_time_blocks_follower(self):
        channel = ChannelModel(1.0, 0)
        det = DetectorModel(efficiency=1.0, jitter_fwhm_ps=0, dark_rate_hz=0,
                            dead_time_ps=50_000)
        rng = np.random.default_rng(3)
        state = {}
        assert detect(0, 1, channel, det, state, rng) is not None
        assert detect(49_999, 1, channel, det, state, rng) is None
        # a different channel has its own dead time
        assert detect(49_999, 2, channel, det, state, rng) is not None
        assert detect(50_000, 1, channel, det, state, rng) is not None

    def test_negative_time_dropped(self):
        rng = np.random.default_rng(4)
        assert detect(-5, 1, ChannelModel(1.0, 0), IDEAL_DETECTOR, {},
                      rng) is None


class TestSimulateSession:
    def test_seed_determinism(self):
        src = SourceModel(pair_rate_hz=20_000.0)
        a, b = ideal_stations(delay_b=1_000_000)
        r1 = simulate_session(src, DriftModel(), a, b, 1.0, seed=42)
        r2 = simulate_session(src, DriftModel(), a, b, 1.0, seed=42)
        r3 = simulate_session(src, DriftModel(), a, b, 1.0, seed=43)
        assert np.array_equal(r1.alice.times, r2.alice.times)
        assert np.array_equal(r1.alice.channels, r2.alice.channels)
        assert np.array_equal(r1.bob.times, r2.bob.times)
        assert not np.array_equal(r1.bob.times, r3.bob.times)

    def test_tag_rates(self):
        # Alice keeps every detected photon; Bob loses the quarter of his
        # that are interferometer satellites.
        src = SourceModel(pair_rate_hz=100_000.0)
        det_a = DetectorModel(efficiency=0.4, jitter_fwhm_ps=0,
                              dark_rate_hz=0, dead_time_ps=0)
        det_b = DetectorModel(efficiency=0.8, jitter_fwhm_ps=0,
                              dark_rate_hz=0, dead_time_ps=0)
        a = alice_station(ChannelModel(0.9, 0), det_a)
        b = bob_station(ChannelModel(0.5, 0), det_b)
        res = simulate_session(src, DriftModel(), a, b, 5.0, seed=5)
        exp_a = 100_000 * 5 * (0.9 * 0.4)
        exp_b = 100_000 * 5 * (0.5 * 0.8) * 0.75
        assert abs(len(res.alice) - exp_a) < 5 * math.sqrt(exp_a)
        assert abs(len(res.bob) - exp_b) < 5 * math.sqrt(exp_b)

    def test_central_correlations_match_quantum(self):
        src = SourceModel(pair_rate_hz=200_000.0, reference_phase=math.pi)
        a, b = ideal_stations(delay_b=500_000)
        res = simulate_session(src, DriftModel(), a, b, 10.0, seed=6,
                               truth=True)
        tr = res.truth
        ai, bi = tr.true_pairs()
        central = tr.alice_bin[ai] == tr.bob_bin[bi]
        st = quantum.standard_settings()
        state = quantum.hybrid_state(math.pi)
        for ia, na in enumerate(("a2", "a0", "a1")):
            for ib, nb in enumerate(("b0", "b1")):
                m = central & (tr.alice_setting[ai] == ia) \
                    & (tr.bob_setting[bi] == ib)
                n = int(m.sum())
                assert n > 50_000
                e_mc = float(np.mean(
                    tr.alice_outcome[ai][m].astype(float)
                    * tr.bob_outcome[bi][m]))
                e_q = quantum.correlation(state, st[na], st[nb])
                sigma = math.sqrt((1 - e_q**2 + 1e-9) / n)
                assert abs(e_mc - e_q) < 5 * sigma, (na, nb, e_mc, e_q)

    def test_satellite_structure(self):
        src = SourceModel(pair_rate_hz=100_000.0)
        delay = 2_000_000
        a, b = ideal_stations(delay_b=delay)
        res = simulate_session(src, DriftModel(), a, b, 5.0, seed=7,
                               truth=True)
        tr = res.truth
        ai, bi = tr.true_pairs()
        central = tr.alice_bin[ai] == tr.bob_bin[bi]
        dt = res.bob.times[bi] - res.alice.times[ai] - delay
        # without jitter, pair separations are exact
        assert set(np.unique(dt[central])) == {0}
        assert set(np.unique(dt[~central])) == {-800, 800}
        # satellites exist only against the time basis
        assert (tr.bob_setting[bi][~central] == 0).all()
        # roughly half of time-basis pairs are satellites
        m_b0 = tr.bob_setting[bi] == 0
        frac = float((~central & m_b0).sum()) / float(m_b0.sum())
        assert abs(frac - 0.5) < 0.01
        # key-setting satellites are anticorrelated
        m = ~central & (tr.alice_setting[ai] == 0)
        prod = tr.alice_outcome[ai][m].astype(int) * tr.bob_outcome[bi][m]
        assert (prod == -1).all()

    def test_jitter_spread(self):
        src = SourceModel(pair_rate_hz=50_000.0)
        det_a = DetectorModel(efficiency=1.0, jitter_fwhm_ps=400.0,
                              dark_rate_hz=0, dead_time_ps=0)
        det_b = DetectorModel(efficiency=1.0, jitter_fwhm_ps=70.0,
                              dark_rate_hz=0, dead_time_ps=0)
        a = alice_station(ChannelModel(1.0, 0), det_a)
        b = bob_station(ChannelModel(1.0, 0), det_b)
        res = simulate_session(src, DriftModel(), a, b, 5.0, seed=8,
                               truth=True)
        tr = res.truth
        ai, bi = tr.true_pairs()
        central = tr.alice_bin[ai] == tr.bob_bin[bi]
        dt = (res.bob.times[bi] - res.alice.times[ai])[central]
        expected = math.hypot(400.0, 70.0) / 2.3548
        assert np.std(dt) == pytest.approx(expected, rel=0.02)
        assert abs(float(np.mean(dt))) < 5 * expected / math.sqrt(len(dt))

    def test_dead_time_enforced_per_channel(self):
        src = SourceModel(pair_rate_hz=500_000.0)
        det = DetectorModel(efficiency=1.0, jitter_fwhm_ps=0.0,
                            dark_rate_hz=1000.0, dead_time_ps=40_000)
        a = alice_station(ChannelModel(1.0, 0), det)
        b = bob_station(ChannelModel(1.0, 0), det)
        res = simulate_session(src, DriftModel(), a, b, 2.0, seed=9)
        for stream in (res.alice, res.bob):
            for ch in np.unique(stream.channels):
                t = stream.times[stream.channels == ch]
                if len(t) > 1:
                    assert np.diff(t).min() >= 40_000

    def test_dark_counts_only(self):
        src = SourceModel(pair_rate_hz=0.0)
        det = DetectorModel(efficiency=1.0, jitter_fwhm_ps=0.0,
                            dark_rate_hz=3000.0, dead_time_ps=0)
        a = alice_station(ChannelModel(1.0, 0), det)
        b = bob_station(ChannelModel(1.0, 0), det)
        res = simulate_session(src, DriftModel(), a, b, 4.0, seed=10,
                               truth=True)
        lam = 3000 * 4
        for ch in range(1, 7):
            n = len(res.alice.times[res.alice.channels == ch])
            assert abs(n - lam) < 5 * math.sqrt(lam)
        assert (res.truth.alice_emission == -1).all()
        assert (res.truth.alice_setting == -1).all()

    def test_no_negative_times(self):
        src = SourceModel(pair_rate_hz=200_000.0)
        det = DetectorModel(efficiency=1.0, jitter_fwhm_ps=3000.0,
                            dark_rate_hz=0.0, dead_time_ps=0)
        a = alice_station(ChannelModel(1.0, 0), det)
        b = bob_station(ChannelModel(1.0, 0), det)
        res = simulate_session(src, DriftModel(), a, b, 0.1, seed=12)
        assert res.alice.times.min() >= 0
        assert res.bob.times.min() >= 0

    def test_finalize_orders_by_time_then_port(self):
        # ties in time and in (time, port) keep their arrival order
        a, _ = ideal_stations()
        rng = np.random.default_rng(14)
        n = 2000
        times = rng.integers(-3, 40, n).astype(np.float64)
        ports = rng.choice(a.channel_ids, n).astype(np.uint8)
        acc = optics._PartyAccumulator(truth=True)
        acc.add(times, ports, np.arange(n), np.zeros(n), np.zeros(n),
                np.zeros(n))
        optics._sort_clicks(acc)
        stream, (emission, *_) = optics._finalize_party(acc, a, "alice", 100)
        ok = np.flatnonzero(times >= 0)
        order = ok[np.lexsort((ports[ok], times[ok]))]
        np.testing.assert_array_equal(emission, order)
        np.testing.assert_array_equal(stream.times, times[order])
        np.testing.assert_array_equal(stream.channels, ports[order])

    @staticmethod
    def per_channel_masks(times, ports, channel_ids, dead):
        """The dead-time keep-mask as one boolean-mask pass per channel."""
        keep = np.ones(times.shape[0], dtype=bool)
        for ch in channel_ids:
            sel = ports == ch
            keep[sel] = oracle_kernels.dead_time_filter(times[sel],
                                                        np.int64(dead))
        return keep

    def test_dead_time_keep_matches_per_channel_masks(self):
        rng = np.random.default_rng(16)
        channel_sets = ((1, 2, 3, 4, 5, 6), (0, 3, 5, 7), (2,))
        for trial in range(200):
            n = int(rng.integers(0, 300))
            channel_ids = channel_sets[trial % 3]
            # some ports may be absent, and ports off the station pass
            ports = rng.choice(channel_ids + (9,), n).astype(np.uint8)
            times = rng.integers(0, int(rng.choice([50, 2000])), n)
            order = np.lexsort((ports, times))
            times, ports = times[order], ports[order]
            dead = int(rng.integers(0, 40))
            np.testing.assert_array_equal(
                optics._dead_time_keep(times, ports, channel_ids, dead),
                self.per_channel_masks(times, ports, channel_ids, dead))
        # inputs that stress the close runs, the only tags the filter visits
        channel_ids = (1, 2, 3, 4, 5, 6)
        channels = np.array(channel_ids, dtype=np.uint8)
        # sparse: most tags lie outside any close run
        sparse = np.sort(rng.integers(0, 10**6, 300))
        assert (np.diff(sparse) < 2000).mean() < 0.5
        cases = [
            (sparse, rng.choice(channels, 300), 2000),
            # one close run that crosses every channel, between isolated tags
            (np.concatenate([[0, 20_000], 50_000 + 10 * np.arange(40),
                             [90_000, 120_000]]),
             np.concatenate([[1, 1], np.tile(channels, 7)[:40], [1, 2]]), 25),
            # every tag isolated
            (5000 * np.arange(100) + rng.integers(0, 1000, 100),
             rng.choice(channels, 100), 3000),
            # a dead time longer than the whole span
            (np.sort(rng.integers(0, 10_000, 200)),
             rng.choice(channels, 200), 20_000),
        ]
        for times, ports, dead in cases:
            times = np.asarray(times, dtype=np.int64)
            ports = np.asarray(ports, dtype=np.uint8)
            np.testing.assert_array_equal(
                optics._dead_time_keep(times, ports, channel_ids, dead),
                self.per_channel_masks(times, ports, channel_ids, dead))

    def test_finalize_dead_time_matches_per_channel_masks(self):
        det = DetectorModel(efficiency=1.0, jitter_fwhm_ps=0.0,
                            dark_rate_hz=0.0, dead_time_ps=25)
        a = alice_station(ChannelModel(1.0, 0), det)
        rng = np.random.default_rng(17)
        n = 5000
        times = rng.integers(-3, 20_000, n).astype(np.float64)
        ports = rng.choice(a.channel_ids, n).astype(np.uint8)
        ok = np.flatnonzero(times >= 0)
        order = ok[np.lexsort((ports[ok], times[ok]))]
        keep = self.per_channel_masks(times[order].astype(np.int64),
                                      ports[order], a.channel_ids, 25)
        assert 0 < keep.sum() < keep.size
        order = order[keep]
        for truth in (False, True):
            acc = optics._PartyAccumulator(truth)
            acc.add(times, ports, np.arange(n), np.zeros(n), np.zeros(n),
                    np.zeros(n))
            optics._sort_clicks(acc)
            stream, provenance = optics._finalize_party(acc, a, "alice", 100)
            np.testing.assert_array_equal(stream.times, times[order])
            np.testing.assert_array_equal(stream.channels, ports[order])
            if truth:
                np.testing.assert_array_equal(provenance[0], order)
            else:
                assert provenance is None

    def test_times_beyond_sort_key_rejected(self):
        src = SourceModel(pair_rate_hz=0.01)
        a, b = ideal_stations()
        with pytest.raises(ValueError, match="2\\*\\*55"):
            simulate_session(src, DriftModel(), a, b, 2**55 / 1e12 * 1.01,
                             seed=15)

    def test_phase_drift_shifts_interference(self):
        # with a pi offset the interference correlations flip sign
        src = SourceModel(pair_rate_hz=100_000.0, reference_phase=math.pi)
        a, b = ideal_stations()
        drift = DriftModel(kind="none", offset_rad=math.pi)
        res = simulate_session(src, drift, a, b, 5.0, seed=13,
                               truth=True)
        tr = res.truth
        ai, bi = tr.true_pairs()
        central = tr.alice_bin[ai] == tr.bob_bin[bi]
        m = central & (tr.alice_setting[ai] == 1) & (tr.bob_setting[bi] == 1)
        e_mc = float(np.mean(
            tr.alice_outcome[ai][m].astype(float) * tr.bob_outcome[bi][m]))
        # total phase is 2*pi: back to cos(0) side, E(a0,b1) = -sin(2a) > 0
        assert e_mc == pytest.approx(-0.7071, abs=0.02)


class TestGroundTruthOptIn:
    def test_truth_none_by_default(self):
        src = SourceModel(pair_rate_hz=20_000.0)
        a, b = ideal_stations()
        assert simulate_session(src, DriftModel(), a, b, 0.1, seed=1).truth \
            is None

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("impaired", [False, True])
    def test_streams_independent_of_truth(self, seed, impaired):
        src = SourceModel(pair_rate_hz=2_000_000.0)
        if impaired:  # jitter, dark counts, dead time
            det = detector_presets()
            a = alice_station(ChannelModel(0.3, 150_000), det["spcm"])
            b = bob_station(ChannelModel(0.2, 900_000), det["sspd"])
        else:
            a, b = ideal_stations(delay_b=350_000)
        drift = DriftModel(kind="linear", rate_rad_per_s=0.5)
        plain = simulate_session(src, drift, a, b, 0.05, seed=seed)
        full = simulate_session(src, drift, a, b, 0.05, seed=seed, truth=True)
        for x, y in ((plain.alice, full.alice), (plain.bob, full.bob)):
            np.testing.assert_array_equal(x.times, y.times)
            np.testing.assert_array_equal(x.channels, y.channels)
        assert len(full.truth.alice_emission) == len(full.alice)
        assert len(full.truth.bob_emission) == len(full.bob)

    def test_unpaired_provenance(self):
        # singles: emission and bin -1, setting and outcome of their port;
        # dark counts: emission, setting and bin -1, outcome 0
        det = detector_presets()
        a = alice_station(ChannelModel(0.3, 150_000), det["spcm"])
        b = bob_station(ChannelModel(0.2, 900_000), det["sspd"])
        res = simulate_session(SourceModel(2_000_000.0), DriftModel(), a, b,
                               0.05, seed=3, truth=True)
        tr = res.truth
        for station, stream, emission, setting, outcome, bins in (
                (a, res.alice, tr.alice_emission, tr.alice_setting,
                 tr.alice_outcome, tr.alice_bin),
                (b, res.bob, tr.bob_emission, tr.bob_setting, tr.bob_outcome,
                 tr.bob_bin)):
            assert emission.max() < tr.emission_count
            single = (emission == -1) & (setting >= 0)
            dark = setting == -1
            assert single.sum() > (emission >= 0).sum() > 0
            assert 0 < dark.sum() and (emission[dark] == -1).all()
            assert (outcome[dark] == 0).all()
            assert (bins[single | dark] == -1).all()
            ports = [station.settings[s].port_for_outcome(x)
                     for s, x in zip(setting[single], outcome[single])]
            assert ports == stream.channels[single].tolist()


class TestScalarOracle:
    """``simulate_session`` against the one-emission-at-a-time model of
    ``oracle_optics``: the same click statistics per setting and port."""

    @staticmethod
    def assert_same_shares(counts_a, counts_b):
        """Per category, the two samples' shares agree within 5 sigma."""
        n_a, n_b = counts_a.sum(), counts_b.sum()
        pooled = (counts_a + counts_b) / (n_a + n_b)
        sigma = np.sqrt(pooled * (1 - pooled) * (1 / n_a + 1 / n_b))
        diff = np.abs(counts_a / n_a - counts_b / n_b)
        assert (diff <= 5 * sigma).all(), (counts_a, counts_b)

    def test_click_statistics_match_simulate_session(self):
        det = DetectorModel(efficiency=1.0, jitter_fwhm_ps=0.0,
                            dark_rate_hz=0.0, dead_time_ps=0)
        a = alice_station(ChannelModel(0.7, 0), det)
        b = bob_station(ChannelModel(0.6, 50_000), det)
        phase = 2.0
        pairs, a_ports, b_ports, joint = simulate_clicks(
            SourceModel(8_000.0, reference_phase=phase), a, b, 1.0,
            np.random.default_rng(18))

        rate, duration = 200_000.0, 5.0
        res = simulate_session(SourceModel(rate, reference_phase=phase),
                               DriftModel(), a, b, duration, seed=19,
                               truth=True)
        ai, bi = res.truth.true_pairs()

        # detection probability per emitted pair, per party
        emitted = rate * duration
        for clicks, sim in ((len(a_ports), len(res.alice)),
                            (len(b_ports), len(res.bob))):
            p = sim / emitted
            assert abs(clicks - pairs * p) < 5 * math.sqrt(pairs * p * (1 - p))

        # each party's clicks over its ports (setting x outcome)
        for ports, stream, station in ((a_ports, res.alice, a),
                                       (b_ports, res.bob, b)):
            ids = list(station.channel_ids)
            self.assert_same_shares(
                np.array([ports.count(ch) for ch in ids]),
                np.array([(stream.channels == ch).sum() for ch in ids]))

        # coincidences of one emission over (alice port, bob port)
        cells = [(x, y) for x in a.channel_ids for y in b.channel_ids]
        sim_joint = list(zip(res.alice.channels[ai].tolist(),
                             res.bob.channels[bi].tolist()))
        self.assert_same_shares(
            np.array([joint.count(c) for c in cells]),
            np.array([sim_joint.count(c) for c in cells]))

    @pytest.mark.parametrize("unlit", ["bob", "alice"])
    def test_singles_are_poisson_per_channel(self, unlit):
        """With one party's transmittance at 0, every tag of the other is a
        single.  Each channel's count must lie within 5 sigma of the scalar
        model's share of clicks on that port times the emitted pairs (sigma
        pools both samples' counting noise), and its inter-arrival gaps
        must pass ``scipy.stats.kstest`` against the exponential at the
        channel's own rate (count / duration) with p > 1e-3."""
        det = DetectorModel(efficiency=1.0, jitter_fwhm_ps=0.0,
                            dark_rate_hz=0.0, dead_time_ps=0)
        lit, off = ChannelModel(0.6, 50_000), ChannelModel(0.0, 0)
        a = alice_station(off if unlit == "alice" else lit, det)
        b = bob_station(lit if unlit == "alice" else off, det)
        pairs, a_ports, b_ports, _ = simulate_clicks(
            SourceModel(20_000.0), a, b, 1.0, np.random.default_rng(20))

        rate, duration = 100_000.0, 2.0
        res = simulate_session(SourceModel(rate), DriftModel(), a, b,
                               duration, seed=21)
        ports, stream, station, unlit_stream = (
            (b_ports, res.bob, b, res.alice) if unlit == "alice"
            else (a_ports, res.alice, a, res.bob))
        assert len(unlit_stream) == 0
        emitted = rate * duration
        for ch in station.channel_ids:
            share = ports.count(ch) / pairs
            times = stream.times[stream.channels == ch]
            sigma = math.sqrt(emitted * share
                              + emitted**2 * share * (1 - share) / pairs)
            assert abs(times.size - emitted * share) < 5 * sigma, ch
            mean_gap = duration * optics.PS_PER_SECOND / times.size
            ks = stats.kstest(np.diff(times), "expon", args=(0, mean_gap))
            assert ks.pvalue > 1e-3, (ch, ks)


def savetxt_dump(stream, f):
    """The tag writer before it was chunked, kept as the byte reference."""
    f.write(f"#tagstream v1 party={stream.party} "
            f"duration_ps={stream.duration_ps}\n")
    out = np.empty((len(stream), 2), dtype=np.int64)
    out[:, 0] = stream.channels
    out[:, 1] = stream.times
    np.savetxt(f, out, fmt="%d", delimiter="\t")


def edge_stream(n, seed=0):
    """``n`` tags on channels 0 to 255 (both ends present), with runs of
    equal times, all at or past 10^15 ps."""
    rng = np.random.default_rng(seed)
    channels = rng.integers(0, 256, size=n).astype(np.uint8)
    channels[:1] = 0
    channels[-1:] = 255
    times = 10**15 + np.sort(rng.integers(0, 4 * n + 1, size=n))
    return TagStream(party="bob", duration_ps=2 * 10**15,
                     channels=channels, times=times)


CHUNK = optics._DUMP_ROWS


class TestTagStreamIO:
    def make_stream(self):
        return TagStream(party="alice", duration_ps=10**9,
                         channels=np.array([1, 3, 2, 6], dtype=np.uint8),
                         times=np.array([100, 250, 250, 901], dtype=np.int64))

    @pytest.mark.parametrize("n", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1,
                                   2 * CHUNK + 1])
    def test_matches_savetxt_and_round_trips(self, n):
        stream = edge_stream(n)
        assert len(stream) == n
        if n > 1:
            assert (np.diff(stream.times) == 0).any()
        buf, ref = io.StringIO(), io.StringIO()
        dump_tagstream(stream, buf)
        savetxt_dump(stream, ref)
        assert buf.getvalue() == ref.getvalue()
        buf.seek(0)
        loaded = load_tagstream(buf)
        assert (loaded.party, loaded.duration_ps) == ("bob", 2 * 10**15)
        assert np.array_equal(loaded.channels, stream.channels)
        assert np.array_equal(loaded.times, stream.times)

    def test_path_and_file_write_the_same_bytes(self, tmp_path):
        stream = edge_stream(CHUNK + 1)
        path = tmp_path / "bob.tags"
        dump_tagstream(stream, str(path))
        buf = io.StringIO()
        dump_tagstream(stream, buf)
        assert path.read_bytes() == buf.getvalue().encode()

    @pytest.mark.parametrize("body", [
        "1\n",             # one column
        "1\t2\t3\n",       # three columns
        "1\t2.5\n",        # not an integer
        "1\t5\nx\t6\n",    # not an integer, after a good row
        "-1\t5\n",         # channel below 0
        "256\t5\n",        # channel above 255
        "1\t9\n2\t5\n",    # times out of order
    ])
    def test_malformed_body_rejected(self, body):
        buf = io.StringIO("#tagstream v1 party=bob duration_ps=10\n" + body)
        with pytest.raises(ValueError):
            load_tagstream(buf)

    @pytest.mark.parametrize("body", ["", "\n", "\n  \n\t\n"])
    def test_blank_body_is_empty_without_warning(self, body):
        buf = io.StringIO("#tagstream v1 party=bob duration_ps=10\n" + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded = load_tagstream(buf)
        assert len(loaded) == 0
        assert loaded.channels.dtype == np.uint8
        assert loaded.times.dtype == np.int64

    def test_trailing_blank_line_loads(self):
        buf = io.StringIO("#tagstream v1 party=alice duration_ps=10\n"
                          "3\t4\n0\t7\n\n")
        loaded = load_tagstream(buf)
        assert loaded.channels.tolist() == [3, 0]
        assert loaded.times.tolist() == [4, 7]

    def test_round_trip(self, tmp_path):
        stream = self.make_stream()
        path = str(tmp_path / "alice.tags")
        dump_tagstream(stream, path)
        loaded = load_tagstream(path)
        assert loaded.party == "alice"
        assert loaded.duration_ps == 10**9
        assert np.array_equal(loaded.channels, stream.channels)
        assert np.array_equal(loaded.times, stream.times)

    def test_header_format(self):
        stream = self.make_stream()
        buf = io.StringIO()
        dump_tagstream(stream, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "#tagstream v1 party=alice duration_ps=1000000000"
        assert lines[1] == "1\t100"

    def test_bad_header_rejected(self):
        buf = io.StringIO("#tagstream v2 party=alice duration_ps=5\n1\t2\n")
        with pytest.raises(ValueError):
            load_tagstream(buf)

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            TagStream(party="bob", duration_ps=100,
                      channels=np.array([1, 1], dtype=np.uint8),
                      times=np.array([50, 40], dtype=np.int64))

    def test_empty_round_trip(self):
        stream = TagStream(party="bob", duration_ps=5000,
                           channels=np.empty(0, np.uint8),
                           times=np.empty(0, np.int64))
        buf = io.StringIO()
        dump_tagstream(stream, buf)
        buf.seek(0)
        loaded = load_tagstream(buf)
        assert len(loaded) == 0
        assert loaded.duration_ps == 5000

    def test_out_of_range_channel_rejected(self):
        buf = io.StringIO("#tagstream v1 party=bob duration_ps=10\n300\t5\n")
        with pytest.raises(ValueError):
            load_tagstream(buf)
