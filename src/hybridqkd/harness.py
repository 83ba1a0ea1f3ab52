"""Scenario configuration, orchestration, and CSV reporting.

Configs are flat ``key = value`` text files with dotted key paths
(``detector.alice.efficiency = 0.55``), ``#`` comments, and defaults for
every key — an empty file is a valid config.  The ``source``, ``drift``,
``channel.<party>``, ``detector.<party>`` and ``protocol`` sections are
the fields of their models, which own their bounds; a model's refusal
is reported under the key of the field it names.  Validation reports
every problem at once: each unreadable or unknown key, each bound the
config holds stricter than a model, and the first fault of each model.
The delay-plus-duration check spans keys and runs once every model
builds.

Scenarios:

* ``ideal`` / ``paper`` — one full simulate-and-post-process session;
  writes ``report.csv`` (these differ only in their parameter files).
* ``stability`` — same runner, meant for configs with a phase drift; the
  per-block report rows show where the violation dies.
* ``phase_sweep`` — one session per swept phase (or temperature) point;
  writes ``sweep.csv``.
* ``window_sweep`` — one simulation analyzed at several coincidence
  windows; writes ``windows.csv``.

Every run writes a ``manifest.txt`` with the effective-config hash, the
seed, and library versions, so outputs are attributable.  For a fixed
config and seed all CSV outputs are byte-identical across runs; sweep
points use seeds derived by index, so their rows are order-stable no
matter how points are scheduled.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, fields, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, optics, tags
from .optics import (
    PS_PER_SECOND,
    ChannelModel,
    DetectorModel,
    DriftModel,
    SourceModel,
    alice_station,
    bob_station,
    simulate_session,
)
from .protocol import PS_LIMIT, SessionParams, run_session

__all__ = [
    "ConfigError",
    "CalibrationError",
    "ScenarioConfig",
    "ScenarioResult",
    "parse_config",
    "load_config",
    "config_hash",
    "run_scenario",
    "calibrate_loss",
    "analyze_streams",
    "preset_path",
]

SCENARIOS = ("ideal", "paper", "phase_sweep", "stability", "window_sweep")
SWEEP_PARAMETERS = ("temperature_c", "phase_rad", "window_ps")


class ConfigError(ValueError):
    """One or more invalid config entries; ``errors`` lists them all."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class CalibrationError(RuntimeError):
    """The requested raw rate cannot be reached by the loss knob."""


def _positive(x):
    return x > 0


def _non_negative(x):
    return x >= 0


def _fraction(x):
    return 0 < x <= 1


@dataclass(frozen=True)
class _Key:
    kind: str                   # int | float | str | bool | floats
    default: object
    check: object = None
    constraint: str = ""
    choices: tuple = ()


PARTIES = ("alice", "bob")
# Each config section is one model: its key "<section>.<field>" takes its
# kind from the field's type and its default from the model, and the
# model's own checks are its bounds.
_SECTIONS = {
    "source": SourceModel,
    "drift": DriftModel,
    **{f"channel.{party}": ChannelModel for party in PARTIES},
    **{f"detector.{party}": DetectorModel for party in PARTIES},
    "protocol": SessionParams,
}
# the SessionParams fields set from keys outside the protocol section
_SESSION_KEYS = {"duration_ps": "duration_s", "block_ps": "block_s",
                 "sample_seed": "seed"}

# Config policy: the keys no model field declares, and the bounds the
# config holds stricter than the library.  A source of no pairs, a dark
# channel or detector, or a drift of no period is a valid model but no
# run to configure.  An entry here replaces its model field's key.
_POLICY = {
    "scenario": _Key("str", "ideal", choices=SCENARIOS),
    "seed": _Key("int", 0, _non_negative, "must be >= 0"),
    "duration_s": _Key("float", 10.0),
    "block_s": _Key("float", 10.0),
    "out_dir": _Key("str", "results"),
    "dump_tags": _Key("bool", False),
    "source.pair_rate_hz": _Key("float", 200_000.0, _positive,
                                "must be > 0"),
    **{f"{part}.{party}.{field}": _Key("float", 1.0, _fraction,
                                        "must be in (0, 1]")
       for part, field in (("channel", "transmittance"),
                           ("detector", "efficiency"))
       for party in PARTIES},
    "drift.period_s": _Key("float", 1.0, _positive, "must be > 0"),
    "sweep.parameter": _Key("str", "", choices=("",) + SWEEP_PARAMETERS),
    "sweep.values": _Key("floats", ()),
    "sweep.temp_coefficient_rad_per_c": _Key("float", 0.8),
    "sweep.temp_reference_c": _Key("float", 0.0),
    "calibrate.target_raw_bps": _Key("float", 1500.0, _positive,
                                     "must be > 0"),
    "calibrate.probe_s": _Key("float", 2.0, _positive, "must be > 0"),
    "calibrate.tolerance": _Key("float", 0.05, lambda x: 0 < x < 1,
                                "must be in (0, 1)"),
}

SCHEMA = {
    **{f"{section}.{f.name}": _Key(f.type, f.default)
       for section, model in _SECTIONS.items() for f in fields(model)
       if f.name not in _SESSION_KEYS},
    **_POLICY,
}

_INT_RE = re.compile(r"^[+-]?\d+$")


@dataclass(frozen=True)
class ScenarioConfig:
    """A fully validated configuration with every default filled in."""

    values: dict

    def __getitem__(self, path):
        return self.values[path]

    def replaced(self, **overrides) -> "ScenarioConfig":
        """A copy with dotted paths (dots written as double underscores
        when used as keyword names) replaced by new validated values."""
        text_pairs = []
        for name, value in overrides.items():
            path = name.replace("__", ".")
            if isinstance(value, (tuple, list)):
                value = ", ".join(str(v) for v in value)
            text_pairs.append(f"{path} = {value}")
        update, errors = _parse_values("\n".join(text_pairs))
        if errors:
            raise ConfigError(errors)
        merged = dict(self.values)
        for name, _ in (p.split(" = ", 1) for p in text_pairs):
            merged[name] = update[name]
        return _validated(merged, [])


def _convert(path, key, raw, errors):
    if key.kind == "int":
        if not _INT_RE.match(raw):
            errors.append(f"{path}: expected an integer, got {raw!r}")
            return None
        value = int(raw)
    elif key.kind == "float":
        try:
            value = float(raw)
        except ValueError:
            errors.append(f"{path}: expected a number, got {raw!r}")
            return None
        if not math.isfinite(value):
            errors.append(f"{path}: must be finite, got {value}")
            return None
    elif key.kind == "bool":
        if raw.lower() not in ("true", "false"):
            errors.append(f"{path}: expected true or false, got {raw!r}")
            return None
        value = raw.lower() == "true"
    elif key.kind == "floats":
        parts = [part.strip() for part in raw.split(",") if part.strip()]
        try:
            value = tuple(float(part) for part in parts)
        except ValueError:
            errors.append(f"{path}: expected comma-separated numbers, "
                          f"got {raw!r}")
            return None
        if not all(math.isfinite(v) for v in value):
            errors.append(f"{path}: values must be finite")
            return None
        inexact = [part for part, v in zip(parts, value)
                   if _INT_RE.match(part) and int(part) != v]
        if inexact:
            errors.append(f"{path}: {inexact[0]} is an integer a float "
                          f"does not hold exactly")
            return None
    else:
        value = raw
    if key.choices and value not in key.choices:
        errors.append(f"{path}: must be one of "
                      f"{', '.join(repr(c) for c in key.choices)}, "
                      f"got {value!r}")
        return None
    if key.check is not None and key.kind in ("int", "float"):
        if not key.check(value):
            errors.append(f"{path}: {key.constraint}, got {value}")
            return None
    return value


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate config text; raises ConfigError listing every
    problem with its key path."""
    return _validated(*_parse_values(text))


def _parse_values(text: str) -> tuple[dict, list]:
    """The schema's defaults with the keys of ``text`` set, and the
    problems found in each key on its own."""
    values = {path: key.default for path, key in SCHEMA.items()}
    errors = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            errors.append(f"line {lineno}: expected 'key = value', "
                          f"got {stripped!r}")
            continue
        path, _, raw = stripped.partition("=")
        path = path.strip()
        raw = raw.split("#", 1)[0].strip()
        if path not in SCHEMA:
            errors.append(f"{path}: unknown key")
            continue
        value = _convert(path, SCHEMA[path], raw, errors)
        if value is not None:
            values[path] = value
    return values, errors


def _validated(values: dict, errors: list) -> ScenarioConfig:
    """A config of complete ``values``, once every section's model builds
    from them and the checks that span keys pass; raises ConfigError with
    ``errors`` and each refusal, named by its key."""
    cfg = ScenarioConfig(values=values)
    refused = []
    for section in _SECTIONS:
        try:
            if section == "protocol":
                _session_params(cfg)
            else:
                _build(section, cfg)
        except ValueError as err:
            field = str(err).split(" ", 1)[0]
            key = _SESSION_KEYS.get(field, f"{section}.{field}")
            refused.append(f"{key}: {err}")
    errors = errors + (refused or _tag_time_errors(values))
    if errors:
        raise ConfigError(errors)
    return cfg


def _tag_time_errors(values) -> list:
    """A party whose tags could reach ``optics.TAG_TIME_LIMIT_PS``
    (delay plus duration, in whole ps as the simulator counts them),
    named by its delay key."""
    errors = []
    duration = values["duration_s"]
    for party in PARTIES:
        path = f"channel.{party}.delay_ps"
        delay = values[path]
        if delay + _ps(duration) >= optics.TAG_TIME_LIMIT_PS:
            errors.append(f"{path}: delay_ps + duration_s x 10^12 must be "
                          f"below 2**55 ps, the tag-time limit, got "
                          f"{delay} ps and {duration:g} s")
    return errors


def load_config(path) -> ScenarioConfig:
    return parse_config(Path(path).read_text())


def _canonical(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.17g" % value
    if isinstance(value, tuple):
        return ", ".join("%.17g" % v for v in value)
    return str(value)


def config_hash(cfg: ScenarioConfig) -> str:
    """Hash of the effective parameters: stable under reordering and
    comments, changed by any effective value change."""
    text = "\n".join(f"{path} = {_canonical(cfg.values[path])}"
                     for path in sorted(cfg.values))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def preset_path(name: str) -> Path:
    """Path of a bundled scenario preset (e.g. 'ideal', 'paper')."""
    return Path(__file__).parent / "presets" / f"{name}.cfg"


# ---------------------------------------------------------------------------
# model construction
# ---------------------------------------------------------------------------

def _ps(seconds) -> int:
    """``seconds`` in whole ps.  A value past ``PS_LIMIT``, which
    ``SessionParams`` refuses, reads as ``PS_LIMIT``: the float product
    may be inf, which ``round`` cannot convert."""
    return int(round(min(seconds * PS_PER_SECOND, PS_LIMIT)))


def _build(section, cfg, **given):
    """The model of a config section, its fields not ``given`` read from
    the section's keys."""
    model = _SECTIONS[section]
    return model(**{f.name: cfg[f"{section}.{f.name}"] for f in fields(model)
                    if f.name not in given}, **given)


def _simulate(cfg, seed, *, phase=None, duration_s=None):
    source = _build("source", cfg)
    if phase is not None:
        source = replace(source, reference_phase=phase)
    alice, bob = (station(_build(f"channel.{party}", cfg),
                          _build(f"detector.{party}", cfg))
                  for party, station in zip(PARTIES,
                                            (alice_station, bob_station)))
    return simulate_session(source, _build("drift", cfg), alice, bob,
                            cfg["duration_s"] if duration_s is None
                            else duration_s, seed=seed)


def _session_params(cfg, duration_s=None, seed=None) -> SessionParams:
    duration = cfg["duration_s"] if duration_s is None else duration_s
    return _build("protocol", cfg, duration_ps=_ps(duration),
                  block_ps=_ps(cfg["block_s"]),
                  sample_seed=cfg["seed"] if seed is None else seed)


# ---------------------------------------------------------------------------
# scenario runners
# ---------------------------------------------------------------------------

@dataclass
class ScenarioResult:
    scenario: str
    verdict: str
    files: list
    exit_code: int
    summary: str


def _write(path: Path, data) -> Path:
    if isinstance(data, bytes):
        path.write_bytes(data)
    else:
        path.write_text(data)
    return path


def _manifest(cfg, out: Path, files) -> Path:
    lines = [
        f"scenario = {cfg['scenario']}",
        f"seed = {cfg['seed']}",
        f"config_hash = {config_hash(cfg)}",
        f"package_version = {__version__}",
        f"numpy_version = {np.__version__}",
        f"files = {', '.join(f.name for f in files)}",
        f"generated_at = {datetime.now(timezone.utc).isoformat()}",
    ]
    return _write(out / "manifest.txt", "\n".join(lines) + "\n")


def _sweep_values(cfg, expected_parameter=None):
    values = cfg["sweep.values"]
    errors = []
    parameter = cfg["sweep.parameter"]
    if not parameter:
        errors.append("sweep.parameter: required for sweep scenarios")
    elif expected_parameter and parameter not in expected_parameter:
        errors.append(f"sweep.parameter: must be one of "
                      f"{', '.join(expected_parameter)} for this scenario, "
                      f"got {parameter!r}")
    if len(values) < 2:
        errors.append("sweep.values: a sweep needs at least 2 points")
    if errors:
        raise ConfigError(errors)
    return parameter, values


def _run_single(cfg, out: Path):
    res = _simulate(cfg, cfg["seed"])
    params = _session_params(cfg)
    alice, _bob = run_session(params, params, res.alice, res.bob)
    files = [_write(out / "report.csv", alice.report_bytes)]
    if cfg["dump_tags"]:
        for stream, name in ((res.alice, "alice.tags"), (res.bob, "bob.tags")):
            optics.dump_tagstream(stream, out / name)
            files.append(out / name)
    agg = alice.report.aggregate
    abort_block = alice.report.abort_block()
    # a session that truncated key material at any block counts as aborted,
    # whatever the whole-session average says
    verdict = "abort" if abort_block is not None else alice.report.verdict
    summary = (f"S = {agg.s:.4f} +- {agg.s_err:.4f}, qber = {agg.qber:.4f}, "
               f"raw = {agg.raw_bps:.1f} bps, secure = {agg.secure_bps:.1f} "
               f"bps, verdict = {verdict}")
    if abort_block is not None:
        summary += f" (first abort in block {abort_block})"
    return files, verdict, summary


def _phase_for(cfg, parameter, value):
    if parameter == "phase_rad":
        return float(value)
    coeff = cfg["sweep.temp_coefficient_rad_per_c"]
    reference = cfg["sweep.temp_reference_c"]
    return cfg["source.reference_phase"] + coeff * (float(value) - reference)


def _run_phase_sweep(cfg, out: Path):
    parameter, values = _sweep_values(cfg, ("temperature_c", "phase_rad"))
    seeds = np.random.SeedSequence(cfg["seed"]).spawn(len(values))
    rows = []
    for index, value in enumerate(values):
        phase = _phase_for(cfg, parameter, value)
        res = _simulate(cfg, seeds[index], phase=phase)
        params = _session_params(cfg, seed=cfg["seed"] + index)
        alice, _ = run_session(params, params, res.alice, res.bob)
        agg = alice.report.aggregate
        rows.append((index, value, phase, agg.s, agg.s_err, agg.qber,
                     agg.raw_bps, agg.secure_bps, agg.verdict))
    files = [_write(out / "sweep.csv", tags.csv_text(
        "point,value,phase_rad,S,S_err,qber,raw_bps,secure_bps,verdict",
        rows))]
    summary = f"{len(values)} {parameter} points -> sweep.csv"
    return files, "accept", summary


def _run_window_sweep(cfg, out: Path):
    _, values = _sweep_values(cfg, ("window_ps",))
    windows = []
    for v in values:
        if float(v) != int(v) or not 1 <= int(v) < PS_LIMIT:
            raise ConfigError([f"sweep.values: windows must be positive "
                               f"integers below 2**63, got {v}"])
        windows.append(int(v))
    res = _simulate(cfg, cfg["seed"])
    points = tags.window_sweep(res.alice, res.bob, windows)
    files = [_write(out / "windows.csv", tags.csv_text(
        "window_ps,S,S_err,pairs",
        ((p.window_ps, p.s, p.s_err, p.pairs) for p in points)))]
    summary = ", ".join(f"S({p.window_ps}) = {p.s:.4f}" for p in points)
    return files, "accept", summary


def run_scenario(cfg: ScenarioConfig, out_dir=None) -> ScenarioResult:
    """Run the configured scenario, writing CSVs and a manifest.

    Outputs are deterministic for a fixed config and seed (the manifest's
    timestamp line aside).  The exit code distinguishes a protocol-abort
    verdict (3) from success (0); config and runtime errors raise.
    """
    out = Path(cfg["out_dir"] if out_dir is None else out_dir)
    out.mkdir(parents=True, exist_ok=True)
    scenario = cfg["scenario"]
    if scenario in ("ideal", "paper", "stability"):
        files, verdict, summary = _run_single(cfg, out)
    elif scenario == "phase_sweep":
        files, verdict, summary = _run_phase_sweep(cfg, out)
    elif scenario == "window_sweep":
        files, verdict, summary = _run_window_sweep(cfg, out)
    else:  # unreachable: schema validates scenario names
        raise ConfigError([f"scenario: unknown scenario {scenario!r}"])
    files.append(_manifest(cfg, out, files))
    return ScenarioResult(scenario=scenario, verdict=verdict, files=files,
                          exit_code=3 if verdict == "abort" else 0,
                          summary=summary)


# ---------------------------------------------------------------------------
# loss calibration
# ---------------------------------------------------------------------------

def _raw_rate(cfg, transmittance, seed, duration_s) -> float:
    """Raw (sifted) key rate of a probe run at the given Bob-channel
    transmittance, via the offline analysis pipeline."""
    probe_cfg = cfg.replaced(channel__bob__transmittance=transmittance)
    res = _simulate(probe_cfg, seed, duration_s=duration_s)
    _, (pairs,) = tags.find_coincidences(res.alice, res.bob,
                                         [cfg["protocol.window_ps"]])
    terms = tags.fold(tags.build_matrix(res.alice, res.bob, pairs))
    raw_bits = int(terms[2, 0].sum())  # every (a2, b0) pair is a key bit
    return raw_bits / duration_s


# the probe count at which calibrate_loss's bisection stops, the
# bracketing probes included
_CALIBRATE_ITERATIONS = 32


def calibrate_loss(cfg: ScenarioConfig):
    """Find the Bob-channel transmittance yielding the raw rate
    ``calibrate.target_raw_bps`` within ``calibrate.tolerance``.

    The raw rate is monotone in the transmittance, so bisection on a
    bracket around the linear estimate converges quickly; every probe
    reuses the same seed, making the result deterministic.  Returns
    ``(transmittance, verified_raw_bps, iteration_rows)`` where the rows
    log every probe as (iteration, transmittance, raw_bps).
    """
    target = cfg["calibrate.target_raw_bps"]
    tol = cfg["calibrate.tolerance"]
    probe_s = cfg["calibrate.probe_s"]
    seed = cfg["seed"]
    rows = []

    def probe(t, iteration):
        rate = _raw_rate(cfg, t, seed, probe_s)
        rows.append((iteration, t, rate))
        return rate

    current = cfg["channel.bob.transmittance"]
    rate = probe(current, 0)
    if abs(rate - target) <= tol * target:
        verified = _raw_rate(cfg, current, seed, cfg["duration_s"])
        return current, verified, rows

    if rate <= 0:
        raise CalibrationError(
            f"no coincidences at transmittance {current}; cannot calibrate")
    linear = current * target / rate
    lo, hi = linear / 2, min(1.0, linear * 2)
    rate_hi = probe(hi, 1)
    if rate_hi < target * (1 - tol) and hi >= 1.0:
        raise CalibrationError(
            f"target {target:.6g} bps is unachievable: raw rate at "
            f"transmittance 1.0 is only {rate_hi:.6g} bps")
    rate_lo = probe(lo, 2)
    while rate_lo > target and lo > 1e-9:
        lo /= 4
        rate_lo = probe(lo, len(rows))
    if rate_lo > target:
        raise CalibrationError(
            f"target {target:.6g} bps is below the floor: raw rate at "
            f"transmittance {lo:.3g} is already {rate_lo:.6g} bps")

    best, best_rate = (hi, rate_hi) if rate_hi >= target else (lo, rate_lo)
    for iteration in range(len(rows), _CALIBRATE_ITERATIONS):
        mid = 0.5 * (lo + hi)
        rate = probe(mid, iteration)
        if abs(rate - target) < abs(best_rate - target):
            best, best_rate = mid, rate
        if abs(rate - target) <= tol * target * 0.5:
            break
        if rate < target:
            lo = mid
        else:
            hi = mid
    verified = _raw_rate(cfg, best, seed, cfg["duration_s"])
    return best, verified, rows


# ---------------------------------------------------------------------------
# offline stream analysis
# ---------------------------------------------------------------------------

def analyze_streams(alice_path, bob_path, window_ps: int, out_dir=None):
    """Offline analysis of two dumped tag streams: delay search, matching
    at the given window, correlation estimates, CHSH, and QBER.  Writes
    matrix.csv and estimates.csv; returns a summary dict."""
    a = optics.load_tagstream(alice_path)
    b = optics.load_tagstream(bob_path)
    est, (pairs,) = tags.find_coincidences(a, b, [window_ps])
    matrix = tags.build_matrix(a, b, pairs)
    estimates = tags.estimate(tags.fold(matrix))
    if "QBER" not in estimates:
        raise tags.InsufficientStatisticsError("no key-basis coincidences")
    files = []
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        files.append(_write(out / "matrix.csv", tags.matrix_csv(matrix)))
        files.append(_write(out / "estimates.csv",
                            tags.estimates_csv(estimates)))
    return {
        "delay_ps": est.delay_ps,
        "pairs": int(matrix.sum()),
        "s": estimates["S"].value,
        "s_err": estimates["S"].std_error,
        "qber": estimates["QBER"].value,
        "files": files,
    }
