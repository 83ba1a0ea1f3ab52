"""Tests for scenario configuration, orchestration, and the CLI."""

import hashlib
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from hybridqkd import cli, harness, tags
from hybridqkd.optics import (
    ChannelModel,
    DetectorModel,
    DriftModel,
    SourceModel,
    TagStream,
    dump_tagstream,
)
from hybridqkd.harness import (
    CalibrationError,
    ConfigError,
    calibrate_loss,
    config_hash,
    load_config,
    parse_config,
    preset_path,
    run_scenario,
)

SQRT8 = 2.0 * math.sqrt(2.0)


def quick_ideal(**overrides):
    cfg = parse_config("scenario = ideal\nseed = 3\nduration_s = 2\n"
                       "block_s = 2\nchannel.bob.delay_ps = 250000\n")
    return cfg.replaced(**overrides) if overrides else cfg


class TestParseConfig:
    def test_empty_config_gets_all_defaults(self):
        cfg = parse_config("")
        assert cfg["scenario"] == "ideal"
        assert cfg["seed"] == 0
        assert cfg["source.pair_rate_hz"] == 200_000.0
        assert cfg["source.reference_phase"] == pytest.approx(math.pi)
        assert cfg["channel.alice.transmittance"] == 1.0
        assert cfg["detector.bob.efficiency"] == 1.0
        assert cfg["protocol.window_ps"] == 64
        assert cfg["protocol.qber_mode"] == "sample"
        assert cfg["sweep.temp_coefficient_rad_per_c"] == 0.8

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config("# a comment\n\nseed = 5  # trailing comment\n")
        assert cfg["seed"] == 5

    def test_unknown_key_names_the_path(self):
        with pytest.raises(ConfigError) as err:
            parse_config("detector.alice.effciency = 0.5\n")
        assert "detector.alice.effciency" in str(err.value)
        assert "unknown key" in str(err.value)

    def test_constraint_violation_names_the_path(self):
        with pytest.raises(ConfigError) as err:
            parse_config("detector.alice.efficiency = 1.5\n")
        message = str(err.value)
        assert "detector.alice.efficiency" in message
        assert "(0, 1]" in message

    def test_type_error_names_the_path(self):
        with pytest.raises(ConfigError) as err:
            parse_config("protocol.window_ps = 12.5\n")
        assert "protocol.window_ps" in str(err.value)
        assert "integer" in str(err.value)

    def test_all_errors_reported_at_once(self):
        with pytest.raises(ConfigError) as err:
            parse_config("bogus.key = 1\nseed = -1\ndrift.kind = wobble\n")
        assert len(err.value.errors) == 3
        joined = str(err.value)
        assert "bogus.key" in joined
        assert "seed" in joined
        assert "drift.kind" in joined

    def test_choice_keys_validated(self):
        with pytest.raises(ConfigError) as err:
            parse_config("scenario = nonsense\n")
        assert "scenario" in str(err.value)

    def test_missing_equals_sign_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config("scenario ideal\n")
        assert "line 1" in str(err.value)

    @pytest.mark.parametrize("raw", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("path", [path for path, key in
                                      harness.SCHEMA.items()
                                      if key.kind == "float"])
    def test_non_finite_float_names_the_path(self, path, raw):
        with pytest.raises(ConfigError) as err:
            parse_config(f"{path} = {raw}\n")
        assert err.value.errors == [f"{path}: must be finite, got "
                                    f"{float(raw)}"]

    def test_sweep_values_parsed_as_floats(self):
        cfg = parse_config("sweep.values = 1, 2.5, 3\n")
        assert cfg["sweep.values"] == (1.0, 2.5, 3.0)

    def test_sweep_values_must_be_numbers(self):
        with pytest.raises(ConfigError) as err:
            parse_config("sweep.values = 1, abc\n")
        assert "sweep.values" in str(err.value)

    def test_bool_key_parsing(self):
        assert parse_config("dump_tags = true\n")["dump_tags"] is True
        assert parse_config("dump_tags = False\n")["dump_tags"] is False
        with pytest.raises(ConfigError):
            parse_config("dump_tags = yes\n")

    def test_replaced_overrides_and_validates(self):
        cfg = parse_config("seed = 1\n")
        out = cfg.replaced(seed=9, channel__bob__transmittance=0.25)
        assert out["seed"] == 9
        assert out["channel.bob.transmittance"] == 0.25
        assert cfg["seed"] == 1  # original untouched
        with pytest.raises(ConfigError):
            cfg.replaced(channel__bob__transmittance=1.5)

    def test_delay_past_tag_time_limit_names_the_key(self):
        # a delay whose tags could pass the 2**55 ps sort-key limit once
        # ran into a float cast and an empty-stream error naming neither
        text = (harness.preset_path("ideal").read_text()
                + "duration_s = 0.05\n"
                  "channel.bob.delay_ps = 100000000000000000000\n")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert len(err.value.errors) == 1
        assert err.value.errors[0].startswith("channel.bob.delay_ps: ")

    def test_delay_plus_duration_bounded(self):
        limit = 2**55
        ok = parse_config(f"duration_s = 1\nchannel.alice.delay_ps = "
                          f"{limit - 10**12 - 1}\n")
        assert ok["channel.alice.delay_ps"] == limit - 10**12 - 1
        with pytest.raises(ConfigError) as err:
            parse_config(f"duration_s = 1\nchannel.alice.delay_ps = "
                         f"{limit - 10**12}\n")
        assert "channel.alice.delay_ps" in str(err.value)
        # the merged values of an override are checked too
        with pytest.raises(ConfigError) as err:
            ok.replaced(duration_s=2)
        assert "channel.alice.delay_ps" in str(err.value)

    def test_override_checked_against_merged_duration(self):
        # the default duration (10 s) would refuse this delay; the
        # config's own 1 ms does not
        short = parse_config("duration_s = 0.001\n")
        delay = 2**55 - 10**10
        out = short.replaced(channel__bob__delay_ps=delay)
        assert out["channel.bob.delay_ps"] == delay
        assert out["duration_s"] == 0.001


class TestConfigHash:
    def test_reordering_and_comments_do_not_change_hash(self):
        a = parse_config("seed = 4\nduration_s = 3\n")
        b = parse_config("# hi\nduration_s = 3\n\nseed = 4\n")
        assert config_hash(a) == config_hash(b)

    def test_explicit_default_equals_omitted(self):
        assert config_hash(parse_config("seed = 0\n")) == \
            config_hash(parse_config(""))

    def test_any_effective_change_changes_hash(self):
        base = parse_config("")
        assert config_hash(base) != config_hash(base.replaced(seed=1))
        assert config_hash(base) != \
            config_hash(base.replaced(protocol__window_ps=65))

    # the effective-config hash of the empty config and of each preset:
    # pins every key's name, kind and default
    HASHES = {
        "empty": "00877e6e80cddf63",
        "ideal": "48b84630c95c992c",
        "paper": "4b087dea1cbcb417",
        "phase_sweep": "91aee59fbe1ba813",
        "stability": "239bb40dabb9c7a5",
        "window_sweep": "6c6873b17c41a7b8",
    }

    @pytest.mark.parametrize("name", sorted(HASHES))
    def test_hash_golden(self, name):
        cfg = (parse_config("") if name == "empty"
               else load_config(preset_path(name)))
        assert config_hash(cfg) == self.HASHES[name]


PARTIES = ("alice", "bob")


class TestRefusals:
    # one value just outside each bound of a key, whether a model or the
    # config itself holds the bound
    @pytest.mark.parametrize("key, raw", [
        *((f"channel.{p}.delay_ps", "-1") for p in PARTIES),
        *((f"detector.{p}.{field}", "-1") for p in PARTIES
          for field in ("jitter_fwhm_ps", "dark_rate_hz", "dead_time_ps")),
        ("protocol.window_ps", "0"),
        ("protocol.window_ps", str(2**63)),
        ("protocol.sample_fraction", "0"),
        ("protocol.sample_fraction", "0.6"),
        ("protocol.abort_sigma", "-1"),
        ("protocol.qber_mode", "wobble"),
        ("drift.kind", "wobble"),
        ("block_s", "0"),
        ("block_s", "1e7"),
        ("duration_s", "0"),
        ("duration_s", "-1"),
        *((f"{part}.{p}.{field}", raw) for p in PARTIES
          for part, field in (("channel", "transmittance"),
                              ("detector", "efficiency"))
          for raw in ("0", "1.5")),
        ("source.pair_rate_hz", "0"),
        ("drift.period_s", "0"),
        ("seed", "-1"),
        ("calibrate.target_raw_bps", "0"),
        ("calibrate.probe_s", "0"),
        ("calibrate.tolerance", "0"),
        ("calibrate.tolerance", "1"),
        ("scenario", "wobble"),
        ("sweep.parameter", "wobble"),
    ])
    def test_one_error_names_the_key(self, key, raw):
        with pytest.raises(ConfigError) as err:
            parse_config(f"{key} = {raw}\n")
        assert len(err.value.errors) == 1
        assert err.value.errors[0].startswith(f"{key}: ")

    # each bound the config holds stricter than the library: the model
    # builds at the boundary value that the config refuses
    STRICTER = {
        "source.pair_rate_hz": lambda: SourceModel(0.0),
        "channel.alice.transmittance": lambda: ChannelModel(0.0),
        "channel.bob.transmittance": lambda: ChannelModel(0.0),
        "detector.alice.efficiency": lambda: DetectorModel(0.0, 0.0, 0.0, 0),
        "detector.bob.efficiency": lambda: DetectorModel(0.0, 0.0, 0.0, 0),
        "drift.period_s": lambda: DriftModel(kind="linear", period_s=0.0),
    }

    @pytest.mark.parametrize("key", sorted(STRICTER))
    def test_policy_is_stricter_than_the_model(self, key):
        self.STRICTER[key]()
        with pytest.raises(ConfigError) as err:
            parse_config(f"{key} = 0\n")
        assert err.value.errors == [f"{key}: {harness.SCHEMA[key].constraint}"
                                    f", got 0.0"]

    def test_every_policy_bound_on_a_model_field_is_covered(self):
        bounded = {path for path, key in harness._POLICY.items()
                   if key.check and path.rpartition(".")[0]
                   in harness._SECTIONS}
        assert bounded == set(self.STRICTER)


class TestPresets:
    @pytest.mark.parametrize("name", ["ideal", "paper", "phase_sweep",
                                      "stability", "window_sweep"])
    def test_preset_parses_and_matches_its_name(self, name):
        cfg = load_config(preset_path(name))
        assert cfg["scenario"] == name

    def test_paper_preset_hardware_values(self):
        cfg = load_config(preset_path("paper"))
        assert cfg["detector.alice.efficiency"] == 0.55
        assert cfg["detector.alice.jitter_fwhm_ps"] == 400.0
        assert cfg["protocol.window_ps"] == 64
        assert cfg["channel.bob.delay_ps"] == 107_800_000
        assert cfg["protocol.qber_mode"] == "offline"


class TestRunScenarioSingle:
    def test_ideal_report_and_manifest(self, tmp_path):
        res = run_scenario(quick_ideal(), out_dir=tmp_path)
        assert res.exit_code == 0
        assert res.verdict == "accept"
        report = (tmp_path / "report.csv").read_text()
        lines = report.strip().splitlines()
        assert lines[0].startswith("block_id,S,S_err")
        assert len(lines) == 3  # header, one block, aggregate
        manifest = (tmp_path / "manifest.txt").read_text()
        assert f"config_hash = {config_hash(quick_ideal())}" in manifest
        assert "seed = 3" in manifest
        assert "numpy_version" in manifest

    def test_repeat_runs_byte_identical(self, tmp_path):
        cfg = quick_ideal()
        run_scenario(cfg, out_dir=tmp_path / "a")
        run_scenario(cfg, out_dir=tmp_path / "b")
        assert (tmp_path / "a/report.csv").read_bytes() == \
            (tmp_path / "b/report.csv").read_bytes()

    def test_seed_changes_report(self, tmp_path):
        run_scenario(quick_ideal(), out_dir=tmp_path / "a")
        run_scenario(quick_ideal(seed=4), out_dir=tmp_path / "b")
        assert (tmp_path / "a/report.csv").read_bytes() != \
            (tmp_path / "b/report.csv").read_bytes()

    def test_dump_tags_round_trip_through_analyze(self, tmp_path):
        cfg = quick_ideal(dump_tags=True)
        run_scenario(cfg, out_dir=tmp_path)
        result = harness.analyze_streams(tmp_path / "alice.tags",
                                         tmp_path / "bob.tags",
                                         64, out_dir=tmp_path / "analysis")
        assert abs(result["delay_ps"] - 250_000) <= 16
        assert result["s"] == pytest.approx(SQRT8, abs=4 * result["s_err"])
        assert result["qber"] < 0.001
        assert (tmp_path / "analysis/matrix.csv").exists()
        estimates = (tmp_path / "analysis/estimates.csv").read_text()
        assert estimates.splitlines()[0] == "term,value,std_error"
        assert "E(a0,b0)" in estimates and "S," in estimates


class TestStabilityScenario:
    def test_drift_until_abort_reports_crossing_block(self, tmp_path):
        cfg = parse_config(
            "scenario = stability\nseed = 6\nduration_s = 40\n"
            "block_s = 10\nsource.pair_rate_hz = 30000\n"
            "drift.kind = linear\ndrift.rate_rad_per_s = 0.04\n")
        res = run_scenario(cfg, out_dir=tmp_path)
        assert res.exit_code == 3
        assert res.verdict == "abort"
        # linear drift crosses S = 2 when cos(rate * t) falls to sqrt(2) - 1
        t_cross = math.acos(math.sqrt(2.0) - 1.0) / 0.04
        rows = (tmp_path / "report.csv").read_text().strip().splitlines()[1:]
        abort_blocks = [int(r.split(",")[0]) for r in rows
                        if r.split(",")[-1] == "abort"
                        and int(r.split(",")[0]) >= 0]
        assert abort_blocks, "no block aborted"
        assert abs(abort_blocks[0] - int(t_cross // 10)) <= 1


class TestPhaseSweepScenario:
    def test_points_ordered_with_temperature_mapping(self, tmp_path):
        cfg = parse_config(
            "scenario = phase_sweep\nseed = 8\nduration_s = 1\n"
            "block_s = 1\nsource.pair_rate_hz = 150000\n"
            "sweep.parameter = temperature_c\nsweep.values = 0, 1, 2, 3\n"
            "sweep.temp_coefficient_rad_per_c = 0.8\n")
        res = run_scenario(cfg, out_dir=tmp_path)
        assert res.exit_code == 0
        rows = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert rows[0].startswith("point,value,phase_rad")
        assert len(rows) == 5
        for index, row in enumerate(rows[1:]):
            parts = row.split(",")
            assert int(parts[0]) == index
            expected_phase = math.pi + 0.8 * float(parts[1])
            assert float(parts[2]) == pytest.approx(expected_phase)
        # the violation must respond to the phase: max near the reference,
        # and clearly degraded by 2 rad away from it
        s_values = [float(r.split(",")[3]) for r in rows[1:]]
        assert s_values[0] == pytest.approx(SQRT8, abs=0.1)
        assert s_values[2] < s_values[0] - 1.0

    def test_phase_parameter_used_directly(self, tmp_path):
        cfg = parse_config(
            "scenario = phase_sweep\nseed = 8\nduration_s = 1\n"
            "block_s = 1\nsource.pair_rate_hz = 100000\n"
            "sweep.parameter = phase_rad\nsweep.values = 3.1416, 1.5708\n")
        run_scenario(cfg, out_dir=tmp_path)
        rows = (tmp_path / "sweep.csv").read_text().strip().splitlines()[1:]
        assert float(rows[0].split(",")[2]) == pytest.approx(3.1416)
        assert float(rows[1].split(",")[2]) == pytest.approx(1.5708)

    def test_sweep_requires_parameter_and_points(self, tmp_path):
        cfg = parse_config("scenario = phase_sweep\nsweep.values = 1, 2\n")
        with pytest.raises(ConfigError) as err:
            run_scenario(cfg, out_dir=tmp_path)
        assert "sweep.parameter" in str(err.value)
        cfg = parse_config("scenario = phase_sweep\n"
                           "sweep.parameter = temperature_c\n"
                           "sweep.values = 1\n")
        with pytest.raises(ConfigError) as err:
            run_scenario(cfg, out_dir=tmp_path)
        assert "sweep.values" in str(err.value)

    def test_window_parameter_rejected_for_phase_sweep(self, tmp_path):
        cfg = parse_config("scenario = phase_sweep\n"
                           "sweep.parameter = window_ps\n"
                           "sweep.values = 64, 128\n")
        with pytest.raises(ConfigError) as err:
            run_scenario(cfg, out_dir=tmp_path)
        assert "sweep.parameter" in str(err.value)


class TestWindowSweepScenario:
    def test_rows_per_window_and_pair_monotonicity(self, tmp_path):
        cfg = parse_config(
            "scenario = window_sweep\nseed = 9\nduration_s = 2\n"
            "source.pair_rate_hz = 200000\n"
            "channel.bob.delay_ps = 150000\n"
            "detector.alice.jitter_fwhm_ps = 100\n"
            "detector.bob.jitter_fwhm_ps = 70\n"
            "sweep.parameter = window_ps\nsweep.values = 32, 64, 256\n")
        res = run_scenario(cfg, out_dir=tmp_path)
        assert res.exit_code == 0
        rows = (tmp_path / "windows.csv").read_text().strip().splitlines()
        assert rows[0] == "window_ps,S,S_err,pairs"
        windows = [int(r.split(",")[0]) for r in rows[1:]]
        pairs = [int(r.split(",")[3]) for r in rows[1:]]
        assert windows == [32, 64, 256]
        assert pairs[0] < pairs[1] < pairs[2]

    def test_fractional_window_rejected(self, tmp_path):
        # 1e30 is past 2**63; 2**53 + 1 would round to a float of 2**53
        for values in ("32.5, 64", "64, 1e30", "64, 9007199254740993"):
            with pytest.raises(ConfigError) as err:
                run_scenario(parse_config("scenario = window_sweep\n"
                                          "sweep.parameter = window_ps\n"
                                          f"sweep.values = {values}\n"),
                             out_dir=tmp_path)
            assert "sweep.values" in str(err.value)


class TestCalibrateLoss:
    CONFIG = ("scenario = ideal\nseed = 12\nduration_s = 2\n"
              "source.pair_rate_hz = 200000\n"
              "channel.bob.transmittance = 0.5\n"
              "channel.bob.delay_ps = 200000\n"
              "calibrate.probe_s = 1\ncalibrate.tolerance = 0.04\n")

    def test_target_at_current_rate_returns_current(self):
        cfg = parse_config(self.CONFIG)
        rate_now = harness._raw_rate(cfg, 0.5, 12, 1.0)
        t, raw, rows = calibrate_loss(
            cfg.replaced(calibrate__target_raw_bps=rate_now))
        assert t == 0.5
        assert len(rows) == 1
        assert raw == pytest.approx(rate_now, rel=0.1)

    def test_bisection_reaches_target(self):
        cfg = parse_config(self.CONFIG)
        # lossless raw rate is ~25 kbps; ask for half the current setting
        cfg = cfg.replaced(calibrate__target_raw_bps=6250.0)
        t, raw, rows = calibrate_loss(cfg)
        assert 0.15 < t < 0.35
        assert raw == pytest.approx(6250.0, rel=0.08)
        assert len(rows) >= 2
        # probes recorded as (iteration, transmittance, raw) and reproducible
        t2, raw2, rows2 = calibrate_loss(cfg)
        assert t2 == t and raw2 == raw and rows2 == rows

    def test_unachievable_target_names_bracket(self):
        cfg = parse_config(self.CONFIG)
        with pytest.raises(CalibrationError) as err:
            calibrate_loss(cfg.replaced(calibrate__target_raw_bps=60_000.0))
        message = str(err.value)
        assert "unachievable" in message
        assert "transmittance 1.0" in message


def ideal_streams():
    cfg = load_config(preset_path("ideal"))
    return cfg, harness._simulate(cfg, cfg["seed"], duration_s=0.2)


def dump(directory, alice, bob):
    directory.mkdir()
    paths = directory / "alice.tags", directory / "bob.tags"
    for stream, path in zip((alice, bob), paths):
        dump_tagstream(stream, str(path))
    return paths


def csv_rows(path, keys):
    """{the first ``keys`` fields: the rest} of each row below the
    header."""
    rows = (line.split(",") for line in path.read_text().splitlines()[1:])
    return {",".join(row[:keys]): ",".join(row[keys:]) for row in rows}


class TestOfflineAnalysis:
    def test_unmapped_channel_counts_nowhere(self, tmp_path, monkeypatch):
        # one of Alice's key pairs moves to channel 9, which no setting
        # names: matrix.csv lists it, but no E, S, QBER or raw bit counts it
        cfg, res = ideal_streams()
        _, ((ai, bi),) = tags.find_coincidences(res.alice, res.bob, [64])
        key = np.flatnonzero((res.alice.channels[ai] <= 2)
                             & (res.bob.channels[bi] <= 2))[0]
        a_ch, b_ch = res.alice.channels[ai[key]], res.bob.channels[bi[key]]
        channels = res.alice.channels.copy()
        channels[ai[key]] = 9
        found = {}
        for name, alice in (("mapped", res.alice),
                            ("moved", replace(res.alice, channels=channels))):
            harness.analyze_streams(*dump(tmp_path / name, alice, res.bob),
                                    64, tmp_path / name)
            monkeypatch.setattr(harness, "_simulate",
                                lambda *args, alice=alice, **kwargs:
                                SimpleNamespace(alice=alice, bob=res.bob))
            found[name] = (csv_rows(tmp_path / name / "matrix.csv", 2),
                           csv_rows(tmp_path / name / "estimates.csv", 1),
                           harness._raw_rate(cfg, 1.0, cfg["seed"], 1.0))
        (matrix, rows, raw), (moved, moved_rows, moved_raw) = \
            found["mapped"], found["moved"]
        matrix[f"{a_ch},{b_ch}"] = str(int(matrix[f"{a_ch},{b_ch}"]) - 1)
        assert moved == {**matrix, f"9,{b_ch}": "1"}
        assert moved_raw == raw - 1
        del rows["QBER"]
        qber = moved_rows.pop("QBER")
        assert moved_rows == rows
        key_counts = [int(moved.get(pair, 0))
                      for pair in ("1,2", "2,1", "1,1", "2,2")]
        errors, total = sum(key_counts[:2]), sum(key_counts)
        assert qber.split(",")[0] == "%.10g" % (errors / total)

    def test_missing_chsh_term_refused(self, tmp_path, capsys):
        # without Alice's a1 channels two CHSH terms have no pairs
        _, res = ideal_streams()
        keep = (res.alice.channels != 5) & (res.alice.channels != 6)
        alice = TagStream("alice", res.alice.duration_ps,
                          res.alice.channels[keep], res.alice.times[keep])
        paths = dump(tmp_path / "tags", alice, res.bob)
        with pytest.raises(tags.InsufficientStatisticsError):
            harness.analyze_streams(*paths, 64)
        rc = cli.main(["analyze", *map(str, paths), "--window", "64",
                       "--out", str(tmp_path / "analysis")])
        assert rc == 2
        assert "no coincidences for E(a1,b0)" in capsys.readouterr().err
        assert not (tmp_path / "analysis").exists()


class TestCli:
    def write_config(self, tmp_path, text):
        path = tmp_path / "config.cfg"
        path.write_text(text)
        return str(path)

    def test_run_success_exit_zero(self, tmp_path, capsys):
        path = self.write_config(
            tmp_path, "scenario = ideal\nseed = 3\nduration_s = 1\n"
            "block_s = 1\n")
        rc = cli.main(["run", path, "--out", str(tmp_path / "out")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "verdict = accept" in out
        assert (tmp_path / "out/report.csv").exists()

    def test_run_seed_and_scenario_overrides(self, tmp_path, capsys):
        path = self.write_config(
            tmp_path, "scenario = ideal\nseed = 3\nduration_s = 1\n"
            "block_s = 1\nsweep.parameter = window_ps\n"
            "sweep.values = 32, 64\n")
        rc = cli.main(["run", path, "--seed", "21", "--scenario",
                       "window_sweep", "--out", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out/windows.csv").exists()
        manifest = (tmp_path / "out/manifest.txt").read_text()
        assert "seed = 21" in manifest
        assert "scenario = window_sweep" in manifest

    def test_config_error_exit_one(self, tmp_path, capsys):
        path = self.write_config(tmp_path,
                                 "detector.alice.efficiency = 1.5\n")
        rc = cli.main(["run", path])
        assert rc == 1
        err = capsys.readouterr().err
        assert "detector.alice.efficiency" in err

    def test_delay_past_tag_time_limit_exit_one(self, tmp_path, capsys):
        path = self.write_config(
            tmp_path, "scenario = ideal\nduration_s = 0.05\n"
            "channel.bob.delay_ps = 100000000000000000000\n")
        rc = cli.main(["run", path, "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: channel.bob.delay_ps: ")

    @pytest.mark.parametrize("line, key", [
        ("block_s = 1e7", "block_s"),  # 10^19 ps
        ("block_s = 1e10", "block_s"),
        ("protocol.window_ps = 18446744073709551616", "protocol.window_ps"),
        ("protocol.window_ps = 9223372036854775808", "protocol.window_ps"),
        ("block_s = 1e-13", "block_s"),  # rounds to 0 ps
        ("duration_s = 1e-13", "duration_s"),
        ("duration_s = 1e300", "duration_s"),  # 10^312 ps: inf as a float
        ("block_s = 1e300", "block_s"),
    ])
    def test_picosecond_value_past_int64_exit_one(self, tmp_path, capsys,
                                                  line, key):
        path = self.write_config(
            tmp_path, f"scenario = ideal\nduration_s = 0.05\n{line}\n")
        rc = cli.main(["run", path, "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key}: ")
        assert "Traceback" not in err

    def test_missing_config_exit_two(self, tmp_path, capsys):
        rc = cli.main(["run", str(tmp_path / "nope.cfg")])
        assert rc == 2

    def test_abort_exit_three(self, tmp_path, capsys):
        path = self.write_config(
            tmp_path, "scenario = stability\nseed = 6\nduration_s = 20\n"
            "block_s = 10\nsource.pair_rate_hz = 30000\n"
            "drift.kind = linear\ndrift.rate_rad_per_s = 0.09\n")
        rc = cli.main(["run", path, "--out", str(tmp_path / "out")])
        assert rc == 3

    def test_calibrate_command(self, tmp_path, capsys):
        path = self.write_config(
            tmp_path, "scenario = ideal\nseed = 12\nduration_s = 1\n"
            "source.pair_rate_hz = 200000\n"
            "channel.bob.transmittance = 0.5\n"
            "channel.bob.delay_ps = 200000\ncalibrate.probe_s = 1\n")
        rc = cli.main(["calibrate", path, "--target-raw", "6250",
                       "--out", str(tmp_path / "out")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "channel.bob.transmittance" in out
        log = (tmp_path / "out/calibration.csv").read_text()
        assert log.splitlines()[0] == "iteration,transmittance,raw_bps"
        # pinned bytes: the one CSV that test_golden's CSV_DIGESTS omits
        assert hashlib.sha256(log.encode()).hexdigest() == \
            "36ef3ba1605c8398ebfd0cd26dfd5688882ec9f49bdd237ebb7d76e897b71114"

    @pytest.mark.parametrize("option, value, key", [
        ("--target-raw", "inf", "calibrate.target_raw_bps"),
        ("--target-raw", "nan", "calibrate.target_raw_bps"),
        ("--target-raw", "-5", "calibrate.target_raw_bps"),
        ("--target-raw", "0", "calibrate.target_raw_bps"),
        ("--tolerance", "5", "calibrate.tolerance"),
        ("--tolerance", "0", "calibrate.tolerance"),
        ("--tolerance", "inf", "calibrate.tolerance"),
    ])
    def test_calibrate_rejects_bad_overrides(self, tmp_path, capsys, option,
                                             value, key):
        path = self.write_config(tmp_path, "scenario = ideal\n")
        # a repeated --target-raw takes its last value
        rc = cli.main(["calibrate", path, "--target-raw", "6250", option,
                       value])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"config error: {key}: ")

    def test_analyze_command(self, tmp_path, capsys):
        cfg = quick_ideal(dump_tags=True)
        run_scenario(cfg, out_dir=tmp_path)
        rc = cli.main(["analyze", str(tmp_path / "alice.tags"),
                       str(tmp_path / "bob.tags"), "--window", "64",
                       "--out", str(tmp_path / "analysis")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "S = 2.8" in out
        assert (tmp_path / "analysis/estimates.csv").exists()

    def test_analyze_uncorrelated_streams_exit_two(self, tmp_path, capsys):
        from hybridqkd.optics import TagStream, dump_tagstream
        rng = np.random.default_rng(0)
        for name, chan in (("a.tags", 1), ("b.tags", 1)):
            times = np.sort(rng.integers(0, 10**9, size=2000))
            stream = TagStream(party="alice", duration_ps=10**9,
                               channels=np.full(2000, chan, dtype=np.uint8),
                               times=times)
            dump_tagstream(stream, str(tmp_path / name))
        rc = cli.main(["analyze", str(tmp_path / "a.tags"),
                       str(tmp_path / "b.tags"), "--window", "64"])
        assert rc == 2
