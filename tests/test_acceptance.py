"""End-to-end acceptance gate.

One test per shipped guarantee, each asserting its quantitative bound
and its runtime budget.  ``pytest -v tests/test_acceptance.py`` prints
one pass/fail line per criterion.  Expensive scenario runs are shared
between the criterion that checks their physics and the determinism
criterion that re-runs them.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import curve_fit

from hybridqkd import harness, protocol, quantum, tags
from hybridqkd.kernels import match_nearest
from hybridqkd.optics import (
    ChannelModel,
    DetectorModel,
    DriftModel,
    SourceModel,
    alice_station,
    bob_station,
    simulate_session,
)

from oracle_matching import optimal_matching
from oracle_quantum import (hybrid_state, monte_carlo_correlation,
                            setting_correlation)

SQRT8 = 2.0 * math.sqrt(2.0)
IDEAL_DETECTOR = DetectorModel(efficiency=1.0, jitter_fwhm_ps=0.0,
                               dark_rate_hz=0.0, dead_time_ps=0)


def timed_preset(name, out_dir, **overrides):
    cfg = harness.load_config(harness.preset_path(name))
    if overrides:
        cfg = cfg.replaced(**overrides)
    start = time.perf_counter()
    result = harness.run_scenario(cfg, out_dir=out_dir)
    return result, time.perf_counter() - start


def read_rows(path):
    lines = path.read_text().strip().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


@pytest.fixture(scope="module")
def ideal_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("ideal")
    result, elapsed = timed_preset("ideal", out)
    return result, elapsed, out


@pytest.fixture(scope="module")
def paper_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("paper")
    result, elapsed = timed_preset("paper", out)
    return result, elapsed, out


@pytest.fixture(scope="module")
def window_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("windows")
    result, elapsed = timed_preset("window_sweep", out)
    return result, elapsed, out


def test_criterion_01_formula_anchors():
    assert quantum.mutual_information(0.0371) == pytest.approx(0.771,
                                                               abs=0.001)
    assert quantum.holevo_bound(SQRT8) == 0.0
    assert quantum.holevo_bound(2.0) == 1.0


def test_criterion_02_monte_carlo_matches_analytic():
    start = time.perf_counter()
    rng = np.random.default_rng(2026)
    within = 0
    for _ in range(100):
        state = hybrid_state(rng.uniform(0.0, 2.0 * math.pi))
        a = quantum.polarizer_setting("a", rng.uniform(-0.5 * math.pi,
                                                       0.5 * math.pi), 1, 2)
        b = quantum.polarizer_setting("b", rng.uniform(-0.5 * math.pi,
                                                       0.5 * math.pi), 1, 2)
        exact = setting_correlation(state, a, b)
        estimate, err = monte_carlo_correlation(state, a, b, 100_000, rng)
        within += abs(estimate - exact) <= 3.0 * max(err, 1e-12)
    elapsed = time.perf_counter() - start
    assert within >= 97, f"only {within}/100 within 3 sigma"
    assert elapsed < 30.0


def test_criterion_03_ideal_end_to_end(ideal_run):
    result, elapsed, out = ideal_run
    _, rows = read_rows(out / "report.csv")
    aggregate = [r for r in rows if int(r[0]) == protocol.AGGREGATE_BLOCK_ID]
    s, s_err, qber = (float(aggregate[0][i]) for i in (1, 2, 3))
    assert s_err <= 0.01
    assert abs(s - 2.8284) <= 3.0 * s_err
    assert qber < 0.001
    assert result.verdict == "accept"
    assert elapsed < 30.0


def test_criterion_04_paper_regime(paper_run):
    cfg = harness.load_config(harness.preset_path("paper"))
    assert cfg["detector.alice.efficiency"] == 0.55
    assert cfg["detector.bob.efficiency"] == 0.65
    assert cfg["detector.alice.jitter_fwhm_ps"] == 400.0
    assert cfg["detector.bob.jitter_fwhm_ps"] == 70.0
    assert cfg["detector.alice.dark_rate_hz"] == 3000.0
    assert cfg["detector.bob.dark_rate_hz"] == 100.0
    assert cfg["protocol.window_ps"] == 64

    result, elapsed, out = paper_run
    _, rows = read_rows(out / "report.csv")
    aggregate = [r for r in rows if int(r[0]) == protocol.AGGREGATE_BLOCK_ID]
    qber = float(aggregate[0][3])
    raw_bps = float(aggregate[0][5])
    secure_bps = float(aggregate[0][9])
    blocks = cfg["duration_s"] / cfg["block_s"]
    assert abs(raw_bps - 1500.0) <= 0.05 * 1500.0
    assert 0.030 <= qber <= 0.045
    assert 50.0 <= secure_bps <= 200.0
    assert result.verdict == "accept"
    assert elapsed < 60.0 * blocks


def test_criterion_05_window_sensitivity(window_run):
    result, elapsed, out = window_run
    _, rows = read_rows(out / "windows.csv")
    by_window = {int(r[0]): (float(r[1]), float(r[2])) for r in rows}
    s64, err64 = by_window[64]
    s128, _ = by_window[128]
    s800, err800 = by_window[800]
    assert abs(s128 - s64) <= 0.02 * s64
    assert s800 < s64 - 5.0 * math.hypot(err64, err800)
    assert elapsed < 60.0


def test_criterion_06_greedy_matches_exhaustive_matching():
    start = time.perf_counter()
    rng = np.random.default_rng(60)
    for instance in range(1000):
        n_pairs = int(rng.integers(50, 400))
        n_extra_a = int(rng.integers(20, 600))
        n_extra_b = int(rng.integers(20, 600))
        span = 10**12
        true_a = rng.integers(0, span, size=n_pairs)
        offsets = rng.normal(0.0, 40.0, size=n_pairs).astype(np.int64)
        keep = rng.random(n_pairs) < 0.8
        a = np.sort(np.concatenate(
            [true_a, rng.integers(0, span, size=n_extra_a)]))
        b = np.sort(np.concatenate(
            [true_a[keep] + offsets[keep],
             rng.integers(0, span, size=n_extra_b)]))
        assert a.size + b.size <= 10_000
        half = int(rng.integers(32, 160))
        ai, bi = match_nearest(a, b, half)
        oi, oj = optimal_matching(a, b, half)
        assert set(zip(ai.tolist(), bi.tolist())) == \
            set(zip(oi.tolist(), oj.tolist())), f"instance {instance}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0


def test_criterion_07_phase_sweep_shape(tmp_path):
    result, elapsed = timed_preset("phase_sweep", tmp_path)
    _, rows = read_rows(tmp_path / "sweep.csv")
    assert len(rows) == 16
    phases = np.array([float(r[2]) for r in rows])
    s = np.array([float(r[3]) for r in rows])

    def shape(phi, phi0):
        return math.sqrt(2.0) * (1.0 - np.cos(phi - phi0))

    (phi0,), _ = curve_fit(shape, phases, s, p0=[0.0])
    residuals = s - shape(phases, phi0)
    r_squared = 1.0 - np.sum(residuals**2) / np.sum((s - s.mean())**2)
    assert r_squared >= 0.99
    # the fitted offset recovers the reference operating point (phase pi
    # maximizes S, i.e. offset 0 modulo a full period)
    assert min(abs(phi0) % (2.0 * math.pi),
               2.0 * math.pi - abs(phi0) % (2.0 * math.pi)) < 0.05
    assert elapsed < 120.0


def test_criterion_08_stability_abort_block(tmp_path):
    result, elapsed = timed_preset("stability", tmp_path)
    assert result.exit_code == 3
    cfg = harness.load_config(harness.preset_path("stability"))
    rate = cfg["drift.rate_rad_per_s"]
    block_s = cfg["block_s"]
    t_cross = math.acos(math.sqrt(2.0) - 1.0) / rate
    predicted_block = int(t_cross // block_s)
    _, rows = read_rows(tmp_path / "report.csv")
    abort_blocks = [int(r[0]) for r in rows
                    if r[-1] == "abort" and int(r[0]) >= 0]
    assert abort_blocks, "drift never tripped the violation monitor"
    assert abs(abort_blocks[0] - predicted_block) <= 1
    assert elapsed < 60.0


def test_criterion_09_transport_equivalence_and_sample_audit():
    start = time.perf_counter()
    source = SourceModel(pair_rate_hz=200_000.0)
    drift = DriftModel()
    alice_st = alice_station(ChannelModel(1.0, 150_000), IDEAL_DETECTOR)
    bob_st = bob_station(ChannelModel(1.0, 350_000), IDEAL_DETECTOR)
    res = simulate_session(source, drift, alice_st, bob_st, 5.0, seed=90)

    params = protocol.SessionParams(
        duration_ps=5 * 10**12, window_ps=64, block_ps=5 * 10**12,
        sample_fraction=0.1, qber_mode="sample", sample_seed=41)
    outcomes = {}
    for transport in ("in-process", "tcp"):
        alice_out, bob_out = protocol.run_session(
            params, params, res.alice, res.bob, transport=transport)
        assert alice_out.report_bytes == bob_out.report_bytes
        outcomes[transport] = alice_out
    assert outcomes["in-process"].report_bytes == \
        outcomes["tcp"].report_bytes
    assert outcomes["in-process"].report == outcomes["tcp"].report

    # position audit: an offline run on the same streams discloses the
    # full pre-sampling key; the sampled positions must be exactly the
    # ones missing from the sample-mode final key
    offline_params = protocol.SessionParams(
        duration_ps=5 * 10**12, window_ps=64, block_ps=5 * 10**12,
        sample_fraction=0.1, qber_mode="offline", sample_seed=41)
    offline, _ = protocol.run_session(offline_params, offline_params,
                                      res.alice, res.bob)
    all_ids = np.concatenate([k.pair_ids for k in offline.keys])
    positions = protocol.sample_positions(all_ids.size, 0.1,
                                          np.random.default_rng(41))
    final_ids = np.concatenate(
        [k.pair_ids for k in outcomes["in-process"].keys])
    sampled_ids = all_ids[positions]
    assert np.array_equal(final_ids, np.delete(all_ids, positions))
    assert not np.intersect1d(final_ids, sampled_ids).size
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0


def test_criterion_10_repeat_runs_byte_identical(ideal_run, paper_run,
                                                 window_run,
                                                 tmp_path_factory):
    def stripped_manifest(path):
        return b"\n".join(line for line in path.read_bytes().splitlines()
                          if not line.startswith(b"generated_at"))

    reruns = {"ideal": ideal_run[2], "paper": paper_run[2],
              "window_sweep": window_run[2]}
    for name, first_dir in reruns.items():
        again = tmp_path_factory.mktemp(f"{name}_again")
        timed_preset(name, again)
        csvs = sorted(p.name for p in first_dir.glob("*.csv"))
        assert csvs, f"{name} produced no CSV output"
        for csv_name in csvs:
            assert (again / csv_name).read_bytes() == \
                (first_dir / csv_name).read_bytes(), \
                f"{name}/{csv_name} differs between runs"
        assert stripped_manifest(again / "manifest.txt") == \
            stripped_manifest(first_dir / "manifest.txt")
