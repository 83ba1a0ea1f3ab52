"""Tests for the optical link simulator.

Statistical checks draw with fixed seeds and compare against the closed-form
quantum correlations, so they are deterministic despite being Monte Carlo.
"""

import codecs
import dataclasses
import io
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats

from hybridqkd import optics, quantum, tags
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
import oracle_optics
from oracle_optics import (
    detect,
    generate_pair_times,
    read_ports,
    sample_pair_outcome,
    simulate_clicks,
)

IDEAL_DETECTOR = DetectorModel(efficiency=1.0, jitter_fwhm_ps=0.0,
                               dark_rate_hz=0.0, dead_time_ps=0)


def ideal_stations(delay_b=0):
    a = alice_station(ChannelModel(1.0, 0), IDEAL_DETECTOR)
    b = bob_station(ChannelModel(1.0, delay_b), IDEAL_DETECTOR)
    return a, b


# a window that keeps the satellites, +-800 ps off the central peak
SATELLITE_WINDOW_PS = 2 * BIN_SEPARATION_PS + 1


def matched(res, window_ps, delay_ps):
    """The pairs ``tags.match_coincidences`` finds at the known delay:
    (Alice's ports, Bob's ports, each pair's offset from the delay).
    Without jitter a pair of one emission lies exactly on {0, +-800} ps,
    0 for a central pair and +-800 for a satellite, so a 1 ps window
    keeps only the central pairs."""
    ai, bi = tags.match_coincidences(res.alice, res.bob, window_ps, delay_ps)
    dt = res.bob.times[bi] - res.alice.times[ai] - delay_ps
    return res.alice.channels[ai], res.bob.channels[bi], dt


class TestModels:
    def test_transmittance_range(self):
        with pytest.raises(ValueError):
            ChannelModel(transmittance=1.2)
        with pytest.raises(ValueError):
            ChannelModel(transmittance=-0.1)

    def test_delay_range(self):
        assert ChannelModel(1.0, 2**55 - 1).delay_ps == 2**55 - 1
        for delay in (-1, 2**55):
            with pytest.raises(ValueError, match="delay_ps must be in"):
                ChannelModel(1.0, delay)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            SourceModel(pair_rate_hz=-1.0)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_fields_rejected(self, value):
        for model in (SourceModel(1.0), ChannelModel(0.5, 0), IDEAL_DETECTOR,
                      DriftModel(kind="sine", period_s=1.0)):
            for field in dataclasses.fields(model):
                if isinstance(getattr(model, field.name), float):
                    with pytest.raises(ValueError,
                                       match=f"{field.name} must be finite"):
                        dataclasses.replace(model, **{field.name: value})

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


class ShortGaps:
    """Generator stand-in whose exponential gaps are a quarter of the mean
    asked for, so that a Poisson stream needs later parts; its draws are
    a real generator's."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.sizes = []

    def exponential(self, scale, size):
        self.sizes.append(size)
        return self.rng.exponential(scale / 4, size)

    def random(self, size):
        return self.rng.random(size)


# a dead time of about one mean gap of the test streams: many close runs
DEAD_DETECTOR = DetectorModel(efficiency=1.0, jitter_fwhm_ps=0.0,
                              dark_rate_hz=0.0, dead_time_ps=2000)
SPAN_PS = 10**6


def click_batches(rng, station, sizes, negative=True):
    """(times, ports) click batches as ``simulate_session`` adds them: a
    sorted, jittered batch that starts below 0 when ``negative``, then
    batches of whole and half ps on a 500 ps grid, where (time, port)
    ties are common."""
    ports = np.array(station.channel_ids, dtype=np.uint8)
    low = -SPAN_PS // 20 if negative else 2000
    batches = []
    for i, k in enumerate(sizes):
        if i == 0:
            times = (np.sort(rng.uniform(low, SPAN_PS, k))
                     + rng.normal(0.0, 400.0, k))
        else:
            times = (rng.integers(0, 50, k) * 500.0
                     + rng.choice([0.0, 0.5, 1.5], k))
        batches.append((times, rng.choice(ports, k)))
    return batches


class TestPartyPipeline:
    """``optics._party_stream`` against the whole-array reference in
    ``tests/oracle_optics.py``, at chunk sizes that put chunk boundaries
    everywhere: the same stream bytes and the same generator state
    after."""

    @staticmethod
    def assert_matches_reference(station, batches, make_rng, singles_hz):
        want_acc = oracle_optics.PartyAccumulator()
        for times, ports in batches:
            want_acc.add(times.copy(), ports)
        got_rng, want_rng = make_rng(), make_rng()
        got = optics._party_stream(
            [(times.copy(), ports) for times, ports in batches], station,
            got_rng, singles_hz, "bob", SPAN_PS)
        want = oracle_optics.party_stream(
            want_acc, station, want_rng, singles_hz, "bob", SPAN_PS)
        assert 0 < len(want)
        np.testing.assert_array_equal(got.times, want.times)
        np.testing.assert_array_equal(got.channels, want.channels)
        assert got.times.dtype == np.int64 and got.channels.dtype == np.uint8
        assert got_rng.random(1) == want_rng.random(1)
        return got

    @pytest.mark.parametrize("extra", [0, 1])
    @pytest.mark.parametrize("chunk", [1, 3, 64])
    def test_streams_ending_on_a_chunk_boundary(self, monkeypatch, chunk,
                                                extra):
        # 192 clicks, a multiple of every chunk size, or one more; the
        # singles' count comes from the same draws the reference makes
        monkeypatch.setattr(optics, "_SIM_CHUNK", chunk)
        station = alice_station(ChannelModel(1.0, 700), DEAD_DETECTOR)
        singles_hz = 1.2e8
        singles = oracle_optics.poisson_stream_ps(
            np.random.default_rng(40), singles_hz, SPAN_PS).shape[0]
        batched = 192 + extra - singles
        assert 0 < batched < 192
        batches = click_batches(np.random.default_rng(41), station,
                                [batched - 30, 10, 20], negative=False)
        self.assert_matches_reference(
            station, batches, lambda: np.random.default_rng(40), singles_hz)

    @pytest.mark.parametrize("chunk", [1, 3, 64])
    def test_later_parts_negative_times_and_ties(self, monkeypatch, chunk):
        monkeypatch.setattr(optics, "_SIM_CHUNK", chunk)
        station = bob_station(ChannelModel(1.0, 300), DEAD_DETECTOR)
        batches = click_batches(np.random.default_rng(42), station,
                                [150, 60, 1, 0, 40])
        assert (batches[0][0] < -0.5).any()
        # quarter-size gaps: Bob's singles (3/4 of 4e7 Hz reach a port)
        # need a second part
        rng = ShortGaps(43)
        oracle_optics.poisson_stream_ps(rng, 3e7, SPAN_PS)
        assert len(rng.sizes) > 1
        self.assert_matches_reference(station, batches,
                                      lambda: ShortGaps(43), 4e7)

    def test_no_singles_and_no_clicks(self):
        station = bob_station(ChannelModel(1.0, 0), DEAD_DETECTOR)
        for batches in ([], [(np.array([-2.0, -0.7]),
                              np.array([1, 2], np.uint8))]):
            rng = np.random.default_rng(44)
            stream = optics._party_stream(batches, station, rng, 0.0, "bob",
                                          SPAN_PS)
            assert len(stream) == 0
            assert rng.random() == np.random.default_rng(44).random()


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
        res = simulate_session(src, DriftModel(), a, b, 10.0, seed=6)
        ports_a, ports_b, _ = matched(res, 1, 500_000)
        a_set, x = read_ports(a, ports_a)
        b_set, y = read_ports(b, ports_b)
        st = quantum.standard_settings()
        state = quantum.hybrid_state(math.pi)
        for ia, na in enumerate(("a2", "a0", "a1")):
            for ib, nb in enumerate(("b0", "b1")):
                m = (a_set == ia) & (b_set == ib)
                n = int(m.sum())
                assert n > 50_000
                e_mc = float(np.mean(x[m].astype(float) * y[m]))
                e_q = quantum.correlation(state, st[na], st[nb])
                sigma = math.sqrt((1 - e_q**2 + 1e-9) / n)
                assert abs(e_mc - e_q) < 5 * sigma, (na, nb, e_mc, e_q)

    def test_satellite_structure(self):
        src = SourceModel(pair_rate_hz=100_000.0)
        delay = 2_000_000
        a, b = ideal_stations(delay_b=delay)
        res = simulate_session(src, DriftModel(), a, b, 5.0, seed=7)
        ports_a, ports_b, dt = matched(res, SATELLITE_WINDOW_PS, delay)
        a_set, x = read_ports(a, ports_a)
        b_set, y = read_ports(b, ports_b)
        central = dt == 0
        satellite = np.abs(dt) == BIN_SEPARATION_PS
        # without jitter, pair separations are exact: a pair off the grid
        # holds a Bob tag of another emission inside the window, which
        # an Alice tag meets about len(alice) * Bob's rate * window times
        accidental = (len(res.alice) * res.bob.rate_hz()
                      * SATELLITE_WINDOW_PS / optics.PS_PER_SECOND)
        off_grid = int((~central & ~satellite).sum())
        assert off_grid <= accidental + 5 * math.sqrt(accidental)
        assert set(np.unique(dt[satellite])) == {-800, 800}
        # satellites exist only against the time basis
        assert (b_set[satellite] == 0).all()
        # roughly half of time-basis pairs are satellites
        m_b0 = (central | satellite) & (b_set == 0)
        frac = float((satellite & m_b0).sum()) / float(m_b0.sum())
        assert abs(frac - 0.5) < 0.01
        # key-setting satellites are anticorrelated
        m = satellite & (a_set == 0)
        assert (x[m].astype(int) * y[m] == -1).all()

    def test_jitter_spread(self):
        src = SourceModel(pair_rate_hz=50_000.0)
        det_a = DetectorModel(efficiency=1.0, jitter_fwhm_ps=400.0,
                              dark_rate_hz=0, dead_time_ps=0)
        det_b = DetectorModel(efficiency=1.0, jitter_fwhm_ps=70.0,
                              dark_rate_hz=0, dead_time_ps=0)
        a = alice_station(ChannelModel(1.0, 0), det_a)
        b = bob_station(ChannelModel(1.0, 0), det_b)
        res = simulate_session(src, DriftModel(), a, b, 5.0, seed=8)
        expected = math.hypot(400.0, 70.0) / 2.3548
        # Bob's interference basis has no satellites: its pairs are off
        # by the two jitters alone, all but 2e-9 of them within 6 sigma
        _, ports_b, dt = matched(res, 2 * round(6 * expected) + 1, 0)
        dt = dt[read_ports(b, ports_b)[0] == 1]
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
        res = simulate_session(src, DriftModel(), a, b, 4.0, seed=10)
        lam = 3000 * 4
        for ch in range(1, 7):
            n = len(res.alice.times[res.alice.channels == ch])
            assert abs(n - lam) < 5 * math.sqrt(lam)

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
        stream = optics._party_stream([(times.copy(), ports)], a,
                                      np.random.default_rng(0), 0.0, "alice",
                                      100)
        ok = np.flatnonzero(times >= 0)
        order = ok[np.lexsort((ports[ok], times[ok]))]
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

    @classmethod
    def assert_compacts_like_masks(cls, times, ports, channel_ids, dead):
        """``optics._dead_time_compact`` moves to the front, in order, the
        tags the per-channel masks keep."""
        keep = cls.per_channel_masks(times, ports, channel_ids, dead)
        kept_times, kept_ports = times.copy(), ports.copy()
        n = optics._dead_time_compact(kept_times, kept_ports, channel_ids,
                                      dead)
        assert n == keep.sum()
        np.testing.assert_array_equal(kept_times[:n], times[keep])
        np.testing.assert_array_equal(kept_ports[:n], ports[keep])

    def test_dead_time_keep_matches_per_channel_masks(self, monkeypatch):
        # the gaps are compared, and the tags compacted, a chunk at a time
        monkeypatch.setattr(optics, "_SIM_CHUNK", 7)
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
            self.assert_compacts_like_masks(times, ports, channel_ids, dead)
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
            self.assert_compacts_like_masks(times, ports, channel_ids, dead)

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
        stream = optics._party_stream([(times.copy(), ports)], a,
                                      np.random.default_rng(0), 0.0, "alice",
                                      100)
        np.testing.assert_array_equal(stream.times, times[order])
        np.testing.assert_array_equal(stream.channels, ports[order])

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
        res = simulate_session(src, drift, a, b, 5.0, seed=13)
        ports_a, ports_b, _ = matched(res, 1, 0)
        a_set, x = read_ports(a, ports_a)
        b_set, y = read_ports(b, ports_b)
        m = (a_set == 1) & (b_set == 1)
        e_mc = float(np.mean(x[m].astype(float) * y[m]))
        # total phase is 2*pi: back to cos(0) side, E(a0,b1) = -sin(2a) > 0
        assert e_mc == pytest.approx(-0.7071, abs=0.02)


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
                               DriftModel(), a, b, duration, seed=19)

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

        # coincidences of one emission over (alice port, bob port): the
        # matched pairs on the {0, +-800} ps grid
        ports_a, ports_b, dt = matched(res, SATELLITE_WINDOW_PS, 50_000)
        on_grid = np.isin(dt, (-BIN_SEPARATION_PS, 0, BIN_SEPARATION_PS))
        cells = [(x, y) for x in a.channel_ids for y in b.channel_ids]
        sim_joint = list(zip(ports_a[on_grid].tolist(),
                             ports_b[on_grid].tolist()))
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


# the writer's slice in the round trips below, so that their sizes fall on
# and around slice edges
CHUNK = 1 << 12


class TestTagStreamIO:
    def make_stream(self):
        return TagStream(party="alice", duration_ps=10**9,
                         channels=np.array([1, 3, 2, 6], dtype=np.uint8),
                         times=np.array([100, 250, 250, 901], dtype=np.int64))

    # a slice boundary and one past it, after one slice and after many
    @pytest.mark.parametrize("n", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1,
                                   2 * CHUNK + 1, 16 * CHUNK - 1,
                                   16 * CHUNK, 16 * CHUNK + 1,
                                   32 * CHUNK + 1])
    def test_matches_savetxt_and_round_trips(self, n, monkeypatch):
        monkeypatch.setattr(optics, "_DUMP_ROWS", CHUNK)
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

    def test_loaded_times_are_contiguous(self):
        # readers take the times as they are, without copying a column
        buf = io.StringIO()
        dump_tagstream(self.make_stream(), buf)
        buf.seek(0)
        loaded = load_tagstream(buf)
        assert loaded.times.flags.c_contiguous
        assert loaded.channels.flags.c_contiguous

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


def tag_stream(channels, times):
    return TagStream(party="alice", duration_ps=10**13,
                     channels=np.asarray(channels, dtype=np.uint8),
                     times=np.asarray(times, dtype=np.int64))


def savetxt_bytes(stream):
    ref = io.StringIO()
    savetxt_dump(stream, ref)
    return ref.getvalue().encode()


def writer_streams():
    """Streams named by what the writer must get right."""
    rng = np.random.default_rng(21)
    n = 700
    ideal = rng.integers(1, 7, n)
    # every 10**k - 1 and 10**k, the largest time a sort key holds, and
    # channels at each digit-count edge
    edges = np.sort(np.r_[0, 10 ** np.arange(1, 17) - 1,
                          10 ** np.arange(1, 17), 2**55 - 1])
    edge_channels = np.resize([9, 10, 99, 100, 255, 0], edges.size)
    twelve = np.sort(rng.integers(10**11, 10**12, n))
    return {
        # one layout in every slice
        "uniform": tag_stream(ideal, twelve),
        # ascending times that pass 10**k partway through slices
        "crossing": tag_stream(ideal, np.sort(
            (10 ** rng.uniform(0, 13, n)).astype(np.int64))),
        "time_edges": tag_stream(edge_channels, edges),
        "channel_9": tag_stream(np.full(n, 9), twelve),
        "channel_99": tag_stream(np.full(n, 99), twelve),
        "channel_255": tag_stream(np.full(n, 255), twelve),
        "channels_mixed": tag_stream(rng.choice([9, 10, 99, 100, 255], n),
                                     twelve),
        "random": edge_stream(n, seed=4),
    }


WRITER_STREAMS = writer_streams()
HEADER = "#tagstream v1 party=bob duration_ps=10\n"


def load_text(text, slice_bytes=None, monkeypatch=None, piece_bytes=None):
    if slice_bytes is not None:
        monkeypatch.setattr(optics, "_LOAD_BYTES", slice_bytes)
    if piece_bytes is not None:
        monkeypatch.setattr(optics, "_MIXED_BYTES", piece_bytes)
    return load_tagstream(io.StringIO(HEADER + text))


class TestTagStreamWriter:
    @pytest.mark.parametrize("rows", [1, 3, 64, None])
    @pytest.mark.parametrize("name", sorted(WRITER_STREAMS))
    def test_matches_savetxt(self, name, rows, tmp_path, monkeypatch):
        if rows is not None:
            monkeypatch.setattr(optics, "_DUMP_ROWS", rows)
        stream = WRITER_STREAMS[name]
        ref = savetxt_bytes(stream)
        text, binary, encoded = io.StringIO(), io.BytesIO(), io.BytesIO()
        dump_tagstream(stream, text)
        dump_tagstream(stream, binary)
        # a text sink that is no io.TextIOBase still receives str
        dump_tagstream(stream, codecs.getwriter("ascii")(encoded))
        dump_tagstream(stream, str(tmp_path / "s.tags"))
        assert text.getvalue().encode() == ref
        assert binary.getvalue() == ref
        assert encoded.getvalue() == ref
        assert (tmp_path / "s.tags").read_bytes() == ref

    def test_negative_time_refused(self):
        stream = tag_stream([1, 2], [0, 5])
        stream.times[0] = -5
        with pytest.raises(ValueError, match=">= 0"):
            dump_tagstream(stream, io.BytesIO())

    def test_traced_peak_does_not_grow_with_the_stream(self, tmp_path):
        peaks = []
        for n in (1 << 16, 1 << 20):
            rng = np.random.default_rng(n)
            stream = tag_stream(rng.integers(0, 256, n),
                                np.sort(rng.integers(0, 10**12, n)))
            tracemalloc.start()
            try:
                dump_tagstream(stream, str(tmp_path / "s.tags"))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]
        assert peaks[1] < 4 << 20


# body, then each tag's channel and time
ACCEPTED = {
    "empty": ("", [], []),
    "one row": ("1\t5\n", [1], [5]),
    "no final newline": ("1\t5\n2\t6", [1, 2], [5, 6]),
    "blank lines anywhere": ("\n \n\t\n1\t5\n  \t \n\n2\t6\n\t\n\n",
                             [1, 2], [5, 6]),
    "crlf": ("1\t5\r\n\r\n2\t6\r\n3\t7", [1, 2, 3], [5, 6, 7]),
    "widest fields": ("255\t9223372036854775807\n", [255], [2**63 - 1]),
    "leading zeros": ("007\t0000000000000000009\n0\t0010\n", [7, 0],
                      [9, 10]),
    "zeros": ("0\t0\n0\t0\n", [0, 0], [0, 0]),
    # rows of one width whose tabs differ are not one layout
    "tab moves, width stays": ("12\t11\n1\t100\n", [12, 1], [11, 100]),
}

# body, the line refused (the header is line 1) and the cause
REFUSED = {
    "one column": ("1\n", 2, "expected 'channel<TAB>time'"),
    "three columns": ("1\t2\t3\n", 2, "expected"),
    "fraction": ("1\t2.5\n", 2, "expected"),
    "letter": ("1\t5\nx\t6\n", 3, "expected"),
    "negative channel": ("-1\t5\n", 2, "expected"),
    "plus sign": ("1\t5\n+2\t6\n", 3, "expected"),
    "plus sign on time": ("1\t+5\n", 2, "expected"),
    "space before channel": (" 1\t5\n", 2, "expected"),
    "space before tab": ("1 \t5\n", 2, "expected"),
    "space after tab": ("1\t 5\n", 2, "expected"),
    "space after time": ("1\t5 \n", 2, "expected"),
    "comment": ("# note\n1\t5\n", 2, "expected"),
    "trailing tab": ("1\t5\t\n", 2, "expected"),
    "empty channel": ("\t5\n", 2, "expected"),
    "empty time": ("1\t\n", 2, "expected"),
    "lone carriage return": ("1\t5\r6\n", 2, "expected"),
    "non-ASCII": ("1\t5\n2\t\u0666\n", 3, "expected"),
    "wide channel": ("0001\t5\n", 2, "channel 0001 has more than 3 digits"),
    "20-digit time": ("1\t00000000000000000005\n", 2,
                      "time 00000000000000000005 has more than 19 digits"),
    "channel above 255": ("1\t5\n256\t6\n", 3, "channel 256 is above 255"),
    "time past int64": ("1\t9223372036854775808\n", 2,
                        "time 9223372036854775808 does not fit int64"),
    # its sum wraps below the row before: the value's fault is named
    "time past int64 after a row": (
        "1\t5\n1\t9223372036854775808\n", 3,
        "time 9223372036854775808 does not fit int64"),
    "times out of order": ("1\t9\n2\t5\n", 3,
                           "time 5 is below the previous row's 9"),
    "after blank lines": ("1\t5\n\n \n300\t7\n", 5,
                          "channel 300 is above 255"),
    "first fault wins": ("1\t5\n300\t6\nx\n", 3, "channel 300"),
    "order before width": ("1\t9\n1\t5\n1\t00000000000000000001\n", 3,
                           "below"),
}


class TestTagStreamReader:
    @pytest.mark.parametrize("slice_bytes", [1, 3, 64, None])
    @pytest.mark.parametrize("name", sorted(ACCEPTED))
    def test_accepted(self, name, slice_bytes, tmp_path, monkeypatch):
        body, channels, times = ACCEPTED[name]
        path = tmp_path / "s.tags"
        path.write_bytes((HEADER + body).encode())
        with open(path, newline="") as text_crlf, open(path) as text:
            loads = [load_text(body, slice_bytes, monkeypatch),
                     load_tagstream(io.BytesIO((HEADER + body).encode())),
                     load_tagstream(str(path)),
                     load_tagstream(text), load_tagstream(text_crlf)]
        for loaded in loads:
            assert (loaded.party, loaded.duration_ps) == ("bob", 10)
            assert loaded.channels.tolist() == channels
            assert loaded.times.tolist() == times
            assert loaded.channels.dtype == np.uint8
            assert loaded.times.dtype == np.int64

    @pytest.mark.parametrize("piece_bytes", [1, None])
    @pytest.mark.parametrize("slice_bytes", [1, 3, 64, None])
    @pytest.mark.parametrize("name", sorted(REFUSED))
    def test_refused_naming_line(self, name, slice_bytes, piece_bytes,
                                 monkeypatch):
        body, line, cause = REFUSED[name]
        with pytest.raises(ValueError) as err:
            load_text(body, slice_bytes, monkeypatch, piece_bytes)
        assert str(err.value).startswith(f"line {line}: ")
        assert cause in str(err.value)

    def test_path_named_in_refusal(self, tmp_path):
        path = tmp_path / "bob.tags"
        path.write_text(HEADER + "1\t5\n1\t4\n")
        with pytest.raises(ValueError) as err:
            load_tagstream(str(path))
        assert str(err.value).startswith(f"{path}: line 3: ")

    @pytest.mark.parametrize("piece_bytes", [1, None])
    @pytest.mark.parametrize("slice_bytes", [1, 3, 64, None])
    @pytest.mark.parametrize("name", ["crossing", "time_edges",
                                      "channels_mixed", "random"])
    def test_round_trip_across_slice_edges(self, name, slice_bytes,
                                           piece_bytes, monkeypatch):
        # lines, and runs of one layout, straddle the slices; short runs
        # are parsed in pieces of one line or of the whole slice
        stream = WRITER_STREAMS[name]
        text = savetxt_bytes(stream).decode().split("\n", 1)[1]
        loaded = load_text(text, slice_bytes, monkeypatch, piece_bytes)
        np.testing.assert_array_equal(loaded.channels, stream.channels)
        np.testing.assert_array_equal(loaded.times, stream.times)

    @pytest.mark.parametrize("piece_bytes", [1, None])
    @pytest.mark.parametrize("slice_bytes", [3, 64, None])
    def test_fault_line_counted_across_slices(self, slice_bytes,
                                              piece_bytes, monkeypatch):
        # a long run of one layout, a mixed stretch with blank lines, then
        # a fault: the line count carries over every slice and run
        rows = [f"{c}\t{t}" for c, t in zip(np.resize([1, 2, 3], 400),
                                              range(10**6, 10**6 + 400))]
        rows += ["", "  "] + [f"{c}\t{t}" for c, t in
                              zip(np.resize([7, 77, 177], 30),
                                  range(10**7, 10**7 + 30))]
        body = "\n".join(rows + ["2\t10000000", "\t"]) + "\n"
        with pytest.raises(ValueError) as err:
            load_text(body, slice_bytes, monkeypatch, piece_bytes)
        # the header, 432 lines, then the time that goes back
        assert str(err.value) == ("line 434: time 10000000 is below the "
                                  "previous row's 10000029")

    def test_file_read_from_its_position(self):
        buf = io.StringIO("preamble\n" + HEADER + "3\t4\n")
        buf.readline()
        loaded = load_tagstream(buf)
        assert loaded.times.tolist() == [4]

    def test_load_peak_per_tag(self, tmp_path):
        # loading from a path sizes the arrays once and parses a slice at
        # a time: 9 B a tag of output plus bounded temporaries
        n = 1 << 20
        rng = np.random.default_rng(8)
        stream = tag_stream(rng.integers(1, 7, n),
                            np.sort(rng.integers(0, 10**12, n)))
        path = str(tmp_path / "alice.tags")
        dump_tagstream(stream, path)
        tracemalloc.start()
        try:
            loaded = load_tagstream(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * n
        np.testing.assert_array_equal(loaded.times, stream.times)
        np.testing.assert_array_equal(loaded.channels, stream.channels)
