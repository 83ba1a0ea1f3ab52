"""Monte-Carlo model of the photon-pair link, from emission to time tags.

Physical picture
----------------
A CW-pumped source emits photon pairs at Poisson times.  The short arm
carries a polarization qubit to Alice; en route, a polarization-selective
delay line retards the V component by one bin separation (800 ps), so
Alice's detection time tags her photon's path.  The long arm carries the
partner photon over fiber to Bob, whose decoder splits it 50/50 between a
direct arrival-time readout (time basis) and an unbalanced interferometer
with the same 800 ps imbalance (interference basis).

Relative to the unknown emission time, each pair therefore lands in one of
two timing classes:

* central (probability 1/2): both photons acquire the same bin offset.
  These are the coincidences a narrow window keeps, and their outcomes
  follow the two-qubit Born rule for the settings of
  :mod:`hybridqkd.quantum`, including the phase-sensitive interference
  terms.
* satellite (probability 1/2): the offsets differ by +-800 ps, the paths are
  distinguishable, and outcomes carry no phase correlation.  For the time
  basis these clicks exist and sit 800 ps off the coincidence peak (they are
  what poisons wide matching windows); for the interference basis the
  decoder's central-peak post-selection discards the Bob click outright.

Detection applies transmittance x efficiency thinning, adds channel delay
and Gaussian timing jitter (sigma = FWHM / 2.3548), merges Poisson dark
counts, and enforces a per-channel dead time.  Emissions that no detector
would record are never instantiated, which keeps 1e8-pairs-per-second
configurations tractable; the thinning is statistically exact.

Only the pairs both parties detect carry the model above.  A single, a
pair only one party detects, is never matched and correlates with
nothing, and its port does not depend on its time: at the paper's
operating point singles are about 97% of the tags.  Each party's singles
are one Poisson stream at its singles rate, shifted by the channel delay,
with one port draw per tag at P(port) = splitting x 1/2 (a polarizer or
the time basis) or x 1/4 (the interference basis, after post-selection);
no setting, path, outcome, bin or jitter is drawn for them.  Only their
few ns at the span's ends differ from the per-photon model.

:func:`simulate_session` draws whole streams at once.  The session
generator draws the coincidences and the dark counts; each party then
draws its singles from a generator of its own, spawned from the
session's after its last draw.  Each party's clicks live in one int64
buffer of ``time << 8 | port`` keys, sized for its coincidence and dark
clicks plus its singles' draw bound.  The singles are drawn into it
``_SIM_CHUNK`` at a time, the keys are sorted by time then port in
place, and unpacking them makes the only other full-length array, the
byte-wide ports.  The dead time is applied channel by channel to the
close runs (tags next to a shorter gap) only, and compacts the times and
ports in place, so each stream's arrays are prefixes of their buffers.
The coincidences' own arrays stay full length.  When both
parties expect more than ``kernels._SPLIT_TAGS`` clicks and the process
may use two CPUs, Bob's singles, sort and dead time (``_party_stream``)
run on a worker thread while Alice's run on the calling thread.  As
neither party draws from the other's generator, the streams are the
same either way.  A scalar one-emission-at-a-time model of the same
physics lives in ``tests/oracle_optics.py`` as the tests' reference.

All tag times are int64 picoseconds.
"""

from __future__ import annotations

import io
import math
import os
import re
from dataclasses import dataclass, fields

import numpy as np

from . import kernels
from .quantum import MeasurementSetting, standard_settings

BIN_SEPARATION_PS = 800
FWHM_TO_SIGMA = 1.0 / 2.3548
PS_PER_SECOND = 1_000_000_000_000
# tag times are packed into ``time << 8 | port`` int64 sort keys, so every
# time must stay below this
TAG_TIME_LIMIT_PS = 2**55

__all__ = [
    "BIN_SEPARATION_PS",
    "TAG_TIME_LIMIT_PS",
    "SourceModel",
    "ChannelModel",
    "DetectorModel",
    "DriftModel",
    "Station",
    "TagStream",
    "SessionResult",
    "detector_presets",
    "alice_station",
    "bob_station",
    "phase_at",
    "simulate_session",
    "dump_tagstream",
    "load_tagstream",
]


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------

def _require_finite(model):
    """Refuse a model with an infinite or NaN float field."""
    for field in fields(model):
        value = getattr(model, field.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{field.name} must be finite, got {value}")


@dataclass(frozen=True)
class SourceModel:
    """Pair source: emission rate and the static interferometric phase."""

    pair_rate_hz: float
    reference_phase: float = math.pi

    def __post_init__(self):
        _require_finite(self)
        if self.pair_rate_hz < 0:
            raise ValueError("pair_rate_hz must be >= 0")


@dataclass(frozen=True)
class ChannelModel:
    """One party's propagation path: power transmittance and fixed delay."""

    transmittance: float
    delay_ps: int = 0

    def __post_init__(self):
        _require_finite(self)
        if not 0.0 <= self.transmittance <= 1.0:
            raise ValueError("transmittance must be in [0, 1]")
        if not 0 <= self.delay_ps < TAG_TIME_LIMIT_PS:
            raise ValueError(f"delay_ps must be in [0, 2**55), got "
                             f"{self.delay_ps}")


@dataclass(frozen=True)
class DetectorModel:
    """Per-channel detector: efficiency, timing jitter, darks, dead time."""

    efficiency: float
    jitter_fwhm_ps: float
    dark_rate_hz: float
    dead_time_ps: int

    def __post_init__(self):
        _require_finite(self)
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError("efficiency must be in [0, 1]")
        if self.jitter_fwhm_ps < 0 or self.dark_rate_hz < 0 or self.dead_time_ps < 0:
            raise ValueError("jitter, dark rate, and dead time must be >= 0")

    @property
    def jitter_sigma_ps(self) -> float:
        return self.jitter_fwhm_ps * FWHM_TO_SIGMA


def detector_presets() -> dict[str, DetectorModel]:
    """Stock single-photon counters for the two wavelengths of the link."""
    return {
        # silicon APD module for the short-wavelength arm
        "spcm": DetectorModel(efficiency=0.55, jitter_fwhm_ps=400.0,
                              dark_rate_hz=3000.0, dead_time_ps=50_000),
        # superconducting nanowire for the fiber arm
        "sspd": DetectorModel(efficiency=0.65, jitter_fwhm_ps=70.0,
                              dark_rate_hz=100.0, dead_time_ps=40_000),
    }


@dataclass(frozen=True)
class DriftModel:
    """Interferometric phase excursion on top of the source reference phase.

    kind "none": constant ``offset_rad``.
    kind "linear": offset + rate * t.
    kind "sine": offset + amplitude * sin(2 pi t / period).
    """

    kind: str = "none"
    offset_rad: float = 0.0
    rate_rad_per_s: float = 0.0
    amplitude_rad: float = 0.0
    period_s: float = 0.0

    def __post_init__(self):
        _require_finite(self)
        if self.kind not in ("none", "linear", "sine"):
            raise ValueError(f"unknown drift kind {self.kind!r}")
        if self.kind == "sine" and self.period_s <= 0:
            raise ValueError("sine drift needs period_s > 0")


def phase_at(source: SourceModel, drift: DriftModel, t_ps) -> np.ndarray | float:
    """Total interferometric phase at emission time(s) t_ps."""
    t_s = np.asarray(t_ps, dtype=np.float64) / PS_PER_SECOND
    if drift.kind == "none":
        out = np.full_like(t_s, drift.offset_rad)
    elif drift.kind == "linear":
        out = drift.offset_rad + drift.rate_rad_per_s * t_s
    else:
        out = drift.offset_rad + drift.amplitude_rad * np.sin(
            2.0 * math.pi * t_s / drift.period_s)
    out = source.reference_phase + out
    if np.ndim(t_ps) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class Station:
    """One party's receiver: channel, detectors, analyzer settings, splitting.

    ``modes`` labels how each setting turns a photon into a click time:
    "polarizer" (bin follows the photon's path), "time" (bin follows the
    measured outcome), or "interference" (central-peak post-selected, bin
    latent).  ``splitting`` is the passive routing probability per setting.
    """

    channel: ChannelModel
    detector: DetectorModel
    settings: tuple[MeasurementSetting, ...]
    splitting: tuple[float, ...]
    modes: tuple[str, ...]

    def __post_init__(self):
        if not (len(self.settings) == len(self.splitting) == len(self.modes)):
            raise ValueError("settings, splitting, and modes must align")
        if abs(sum(self.splitting) - 1.0) > 1e-9:
            raise ValueError("splitting ratios must sum to 1")
        for m in self.modes:
            if m not in ("polarizer", "time", "interference"):
                raise ValueError(f"unknown analyzer mode {m!r}")
        ports = [p for s in self.settings for p in (s.plus_port, s.minus_port)]
        if len(set(ports)) != len(ports):
            raise ValueError("detector channels must be distinct within a station")

    @property
    def channel_ids(self) -> tuple[int, ...]:
        return tuple(p for s in self.settings for p in (s.plus_port, s.minus_port))


def alice_station(channel: ChannelModel, detector: DetectorModel) -> Station:
    """Polarization analyzer side: half the photons to the key setting a2,
    a quarter each to the test settings a0 and a1."""
    s = standard_settings()
    return Station(
        channel=channel,
        detector=detector,
        settings=(s["a2"], s["a0"], s["a1"]),
        splitting=(0.5, 0.25, 0.25),
        modes=("polarizer", "polarizer", "polarizer"),
    )


def bob_station(channel: ChannelModel, detector: DetectorModel) -> Station:
    """Time-bin decoder side: 50/50 between arrival-time readout and the
    interferometric basis."""
    s = standard_settings()
    return Station(
        channel=channel,
        detector=detector,
        settings=(s["b0"], s["b1"]),
        splitting=(0.5, 0.5),
        modes=("time", "interference"),
    )


# ---------------------------------------------------------------------------
# tag containers
# ---------------------------------------------------------------------------

@dataclass
class TagStream:
    """All tags one party recorded: parallel (channel, time) arrays sorted by
    time (ties by channel id).  ``duration_ps`` is the emission window; tags
    may trail slightly past it through delay, bin offset, and jitter."""

    party: str
    duration_ps: int
    channels: np.ndarray
    times: np.ndarray

    def __post_init__(self):
        self.channels = np.asarray(self.channels, dtype=np.uint8)
        self.times = np.asarray(self.times, dtype=np.int64)
        if self.channels.shape != self.times.shape:
            raise ValueError("channels and times must have equal length")
        if (self.times[1:] < self.times[:-1]).any():
            raise ValueError("tag times must be sorted ascending")
        if self.times.size and self.times[0] < 0:
            raise ValueError("tag times must be >= 0")

    def __len__(self):
        return self.times.shape[0]


@dataclass
class SessionResult:
    alice: TagStream
    bob: TagStream


# ---------------------------------------------------------------------------
# vectorized session simulation
# ---------------------------------------------------------------------------

# draws, gap compares and compactions run this many tags at a time, so
# their temporaries stay a fixed size whatever the stream's length
_SIM_CHUNK = 1 << 16


def _poisson_size(rate_hz: float, duration_ps: int) -> int:
    """Gaps drawn per part of a Poisson stream: the expected arrivals in
    [0, duration) plus 6 sigma and 16 (0 for an empty stream)."""
    if rate_hz <= 0 or duration_ps <= 0:
        return 0
    expected = duration_ps / (PS_PER_SECOND / rate_hz)
    return int(expected + 6.0 * math.sqrt(expected + 1.0) + 16)


def _poisson_arrivals(rng: np.random.Generator, rate_hz: float,
                      duration_ps: int):
    """Poisson process arrival times in [0, duration) ps: yields them in
    order as sorted float64 arrays of at most ``_SIM_CHUNK`` each.

    The gaps come in parts of ``_poisson_size`` draws; a part after the
    first adds the last arrival before it after its own cumsum.  Within a
    part the exponentials are drawn ``_SIM_CHUNK`` at a time and the
    running sum is carried into each chunk's first gap, so every float
    add, and the generator's state, are those of one whole draw and
    cumsum.  The last part's gaps past the end are drawn too, for the
    same reason.
    """
    size = _poisson_size(rate_hz, duration_ps)
    if size == 0:
        return
    mean_gap_ps = PS_PER_SECOND / rate_hz
    last = None            # the previous part's last arrival
    while True:
        total, ended = 0.0, False
        for lo in range(0, size, _SIM_CHUNK):
            gaps = rng.exponential(mean_gap_ps,
                                   size=min(_SIM_CHUNK, size - lo))
            if ended:
                continue
            gaps[0] += total
            times = np.cumsum(gaps, out=gaps)
            total = times[-1]
            if last is not None:
                times += last
            tail = times[-1]  # read before the caller may add to times
            end = int(np.searchsorted(times, duration_ps))
            ended = end < times.shape[0]
            if end:
                yield times[:end]
        if ended:
            return
        last = tail


def _put(buf: np.ndarray, n: int, values: np.ndarray) -> np.ndarray:
    """``buf`` with ``values`` cast into ``buf[n:]``: ``buf`` itself, or a
    copy of its first ``n`` entries twice as long as needed when they do
    not fit (a Poisson stream's later part)."""
    end = n + values.shape[0]
    if end > buf.shape[0]:
        grown = np.empty(2 * end, dtype=buf.dtype)
        grown[:n] = buf[:n]
        buf = grown
    np.copyto(buf[n:end], values, casting="unsafe")
    return buf


def _poisson_stream_ps(rng: np.random.Generator, rate_hz: float,
                       duration_ps: int) -> np.ndarray:
    """Poisson process arrival times in [0, duration) ps, float64, sorted."""
    out, n = np.empty(_poisson_size(rate_hz, duration_ps)), 0
    for times in _poisson_arrivals(rng, rate_hz, duration_ps):
        out = _put(out, n, times)
        n += times.shape[0]
    return out[:n]


def _setting_choice(rng, n, probs):
    """Index per event drawn from the probabilities ``probs`` (a setting
    from the splitting, or a port): the number of inner cumulative edges
    at or below a uniform draw (``searchsorted(side="right")`` capped at
    the last index).  The uniforms are drawn ``_SIM_CHUNK`` at a time."""
    idx = np.zeros(n, dtype=np.int8)
    edges = np.cumsum(probs)[:-1]
    for lo in range(0, n, _SIM_CHUNK):
        r = rng.random(min(_SIM_CHUNK, n - lo))
        out = idx[lo:lo + r.shape[0]]
        for edge in edges:
            out += r >= edge
    return idx


def _ports_for(station: Station, setting_idx: np.ndarray,
               outcome: np.ndarray) -> np.ndarray:
    """Detector port per click, gathered from a (setting, outcome > 0)
    table: the plus port when the outcome equals the setting's sign."""
    table = np.array([(s.minus_port, s.plus_port) if s.outcome_sign > 0
                      else (s.plus_port, s.minus_port)
                      for s in station.settings], dtype=np.uint8).ravel()
    key = setting_idx * np.int8(2)
    key += outcome > 0
    return table[key]


def _pack_keys(keys: np.ndarray, ports: np.ndarray):
    """Turn tag times into ``time << 8 | port`` sort keys, in place."""
    if keys.size and keys.max() >= TAG_TIME_LIMIT_PS:
        raise ValueError("tag times of 2**55 ps or more overflow the sort key")
    keys <<= 8
    keys |= ports


def _party_keys(batches: list, station: Station, rng, singles_hz: float,
                duration_ps: int) -> np.ndarray:
    """One party's clicks as sort keys (``_pack_keys``) in one int64
    buffer, in batch order: the ``(float64 times, uint8 ports)`` batches,
    popped and freed one by one, each time rounded to the nearest ps and
    the negative ones dropped, then the singles (``_singles_keys``).  The
    buffer holds the batches and the singles' draw bound; the keys are a
    prefix of it."""
    # P(click on port) of a single, per key 2s + 0 (setting s's plus
    # port) and 2s + 1 (its minus port)
    shares = np.array([split * _SINGLE_PORT_SHARE[mode]
                       for split, mode in zip(station.splitting, station.modes)
                       for _ in range(2)])
    rate_hz = singles_hz * shares.sum()
    keys = np.empty(sum(t.shape[0] for t, _ in batches)
                    + _poisson_size(rate_hz, duration_ps), dtype=np.int64)
    n = 0
    while batches:
        times, ports = batches.pop(0)
        end = n + times.shape[0]
        np.copyto(keys[n:end], np.rint(times, out=times), casting="unsafe")
        del times
        if end > n and keys[n:end].min() < 0:
            ok = keys[n:end] >= 0
            kept = keys[n:end][ok]
            end = n + kept.shape[0]
            keys[n:end] = kept
            ports = ports[ok]
        _pack_keys(keys[n:end], ports)
        n = end
    keys, n = _singles_keys(keys, n, station, rng, rate_hz,
                            shares / shares.sum(), duration_ps)
    return keys[:n]


def _dead_time_compact(times: np.ndarray, ports: np.ndarray, channel_ids,
                       dead_ps: int) -> int:
    """Apply the per-channel dead time to time-sorted tags in place: the
    kept tags of ``times`` and ``ports`` move, in order, to the front.
    Returns how many are kept.

    Only the close runs, the tags next to a gap shorter than ``dead_ps``
    whatever their channels, are filtered.  That is exact: a tag at least
    ``dead_ps`` after its predecessor survives; a tag whose next tag is
    also that far away cannot block any later tag; and every same-channel
    tag within ``dead_ps`` before a tag lies in the same run, so runs never
    interact.  One sort of the run tags by port then index makes each
    channel's run tags a contiguous, still time-sorted slice, and each
    slice is filtered on its own.  The gaps are compared, and the arrays
    compacted, ``_SIM_CHUNK`` tags at a time.
    """
    n = times.shape[0]
    if n < 2 or dead_ps <= 0:
        return n
    in_run = np.zeros(n, dtype=bool)
    for lo in range(0, n - 1, _SIM_CHUNK):
        hi = min(lo + _SIM_CHUNK, n - 1)
        close = times[lo + 1:hi + 1] - times[lo:hi] < dead_ps  # i and i + 1
        in_run[lo:hi] |= close
        in_run[lo + 1:hi + 1] |= close
    # port << 48 | index of each run tag, sorted in place: each channel's
    # run tags become one slice, still in time order
    run = np.flatnonzero(in_run)
    del in_run, close
    high = ports[run].astype(np.int64)
    high <<= 48
    run |= high
    del high
    run.sort()
    dropped = []
    for ch in channel_ids:
        lo, hi = np.searchsorted(run, [ch << 48, (ch + 1) << 48])
        at = run[lo:hi] & ((1 << 48) - 1)
        dropped.append(at[~kernels._dead_time_filter(times[at], dead_ps)])
    del run
    dropped = np.concatenate(dropped)
    if not dropped.size:
        return n
    keep = np.ones(n, dtype=bool)
    keep[dropped] = False
    kept = lo = int(dropped.min())
    while lo < n:
        sel = keep[lo:lo + _SIM_CHUNK]
        count = int(np.count_nonzero(sel))
        for arr in (times, ports):
            arr[kept:kept + count] = arr[lo:lo + sel.shape[0]][sel]
        kept += count
        lo += sel.shape[0]
    return kept


def simulate_session(source: SourceModel, drift: DriftModel, alice: Station,
                     bob: Station, duration_s: float, seed) -> SessionResult:
    """Simulate one accumulation block and return both tag streams.

    ``seed`` may be an int, a SeedSequence, or a Generator.  Identical
    arguments and seed give bit-identical streams.
    """
    rng = np.random.default_rng(seed)
    duration_ps = int(round(duration_s * PS_PER_SECOND))

    p_det_a = alice.channel.transmittance * alice.detector.efficiency
    p_det_b = bob.channel.transmittance * bob.detector.efficiency
    rate = source.pair_rate_hz

    # each party's click batches, (float64 times, uint8 ports), in order
    batches_a, batches_b = [], []

    # --- pairs with both photons detected -------------------------------
    t_both = _poisson_stream_ps(rng, rate * p_det_a * p_det_b, duration_ps)
    n_both = t_both.shape[0]

    a_set = _setting_choice(rng, n_both, alice.splitting)
    b_set = _setting_choice(rng, n_both, bob.splitting)
    central = rng.random(n_both) < 0.5

    x = np.empty(n_both, dtype=np.int8)
    y = np.empty(n_both, dtype=np.int8)
    bin_a = np.empty(n_both, dtype=np.int8)
    bin_b = np.empty(n_both, dtype=np.int8)
    b_keep = np.ones(n_both, dtype=bool)

    # central events: Born-rule joint outcomes with per-event phase
    idx_c = np.flatnonzero(central)
    if idx_c.size:
        phases = phase_at(source, drift, t_both[idx_c])
        e_pair = _pair_correlation_table(alice, bob, a_set[idx_c], b_set[idx_c], phases)
        same_sign = rng.random(idx_c.size) < (1.0 + e_pair) / 2.0
        xc = _signs(rng.random(idx_c.size) < 0.5)
        yc = np.where(same_sign, xc, -xc).astype(np.int8)
        x[idx_c], y[idx_c] = xc, yc
        is_time = _mode_mask(bob, b_set[idx_c], "time")
        latent = (rng.random(idx_c.size) < 0.5).astype(np.int8)
        bc = np.where(is_time, ((1 - yc) // 2).astype(np.int8), latent)
        bin_a[idx_c] = bc
        bin_b[idx_c] = bc

    # satellite events: distinguishable paths, uncorrelated outcomes
    idx_s = np.flatnonzero(~central)
    if idx_s.size:
        c = (rng.random(idx_s.size) < 0.5).astype(np.int8)
        p = (1 - c).astype(np.int8)
        x[idx_s] = _path_outcomes(alice, a_set[idx_s], p, rng)
        is_time = _mode_mask(bob, b_set[idx_s], "time")
        y[idx_s] = _signs(c == 0)
        bin_a[idx_s] = p
        bin_b[idx_s] = c
        b_keep[idx_s] = is_time          # interference satellites are discarded

    # interferometric post-selection on central clicks is already folded into
    # the central/satellite split: central b1 clicks survive, satellites don't.

    t_bob = t_both[b_keep]       # taken before Alice's clicks add into t_both
    _emit_clicks(batches_a, alice, rng, t_both, a_set, x, bin_a)
    _emit_clicks(batches_b, bob, rng, t_bob, b_set[b_keep], y[b_keep],
                 bin_b[b_keep])
    del t_both, a_set, b_set, central, x, y, bin_a, bin_b, b_keep

    # --- dark counts ------------------------------------------------------
    duration_s_exact = duration_ps / PS_PER_SECOND
    for station, batches in ((alice, batches_a), (bob, batches_b)):
        dark = station.detector.dark_rate_hz
        if dark <= 0:
            continue
        for ch in station.channel_ids:
            n_dark = rng.poisson(dark * duration_s_exact)
            t_dark = rng.integers(0, duration_ps, size=n_dark, dtype=np.int64)
            batches.append((t_dark.astype(np.float64),
                            np.full(n_dark, ch, np.uint8)))

    # --- pairs with only one photon detected, then sort and dead time -----
    # each party draws its singles from a generator of its own, derived
    # after the session generator's last draw, so the streams are the same
    # whether Bob's work runs on a worker thread or after Alice's
    rng_a, rng_b = (np.random.default_rng(child) for child in
                    np.random.SeedSequence(
                        rng.integers(0, 2**63, size=4)).spawn(2))
    # the gate: each party's expected clicks, known before its draws
    expected = duration_s_exact * min(
        rate * p_det + st.detector.dark_rate_hz * len(st.channel_ids)
        for st, p_det in ((alice, p_det_a), (bob, p_det_b)))
    stream_a, stream_b = kernels._in_parallel(
        _party_stream,
        [(batches_a, alice, rng_a, rate * p_det_a * (1.0 - p_det_b),
          "alice", duration_ps),
         (batches_b, bob, rng_b, rate * (1.0 - p_det_a) * p_det_b, "bob",
          duration_ps)],
        kernels._two_threads(expected))
    return SessionResult(alice=stream_a, bob=stream_b)


def _party_stream(batches: list, station: Station, rng, singles_hz: float,
                  party: str, duration_ps: int) -> TagStream:
    """One party's stream from its coincidence and dark click
    ``batches`` (``_party_keys``), with its singles drawn from ``rng``,
    the party's own generator.

    The keys (``_party_keys``) are sorted in their buffer, then unpacked
    into it and into the ports, the only other full-length array; the
    dead time compacts both in place, so the stream's arrays are
    prefixes of the two.  Runs on a worker thread for Bob
    (``simulate_session``), so it calls no public function."""
    keys = _party_keys(batches, station, rng, singles_hz, duration_ps)
    # the batches come as a few sorted runs: a stable sort merges them fast
    keys.sort(kind="stable")
    ports = keys.astype(np.uint8)       # the low byte
    keys >>= 8
    n = _dead_time_compact(keys, ports, station.channel_ids,
                           station.detector.dead_time_ps)
    return TagStream(party=party, duration_ps=duration_ps,
                     channels=ports[:n], times=keys[:n])


def _mode_mask(station: Station, setting_idx: np.ndarray, mode: str) -> np.ndarray:
    flags = np.array([m == mode for m in station.modes])
    return flags[setting_idx]


def _pair_correlation_table(alice: Station, bob: Station, a_idx, b_idx,
                            phases) -> np.ndarray:
    """Quantum E per event for central pairs: cos(2a) against the time basis,
    sin(2a)cos(phase) against the interference basis."""
    nz = np.array([s.bloch[2] for s in alice.settings])
    nx = np.array([s.bloch[0] for s in alice.settings])
    is_time = _mode_mask(bob, b_idx, "time")
    return np.where(is_time, nz[a_idx], nx[a_idx] * np.cos(phases))


def _signs(draw: np.ndarray) -> np.ndarray:
    """+1 where the boolean ``draw`` is set, else -1, as int8 in its buffer."""
    signs = draw.view(np.int8)
    signs *= 2
    signs -= 1
    return signs


def _path_outcomes(station: Station, setting_idx, path, rng) -> np.ndarray:
    """+-1 per photon, drawn from P(+1) in a flat (setting, path) table."""
    nz = np.array([s.bloch[2] for s in station.settings])
    table = np.stack([(1.0 + nz) / 2.0, (1.0 - nz) / 2.0], axis=1).ravel()
    key = setting_idx * np.int8(2)
    key += path
    return _signs(rng.random(setting_idx.shape[0]) < table[key])


def _emit_clicks(batches: list, station: Station, rng, t_emit, setting_idx,
                 outcome, bins):
    """Turn sampled outcomes into detector clicks: port routing, bin offset,
    channel delay, jitter, added into ``t_emit`` (the caller's to give),
    appended to ``batches`` as one (times, ports) batch."""
    n = t_emit.shape[0]
    if n == 0:
        return
    ports = _ports_for(station, setting_idx, outcome)
    # emit + delay + bin offset + jitter, added left to right: the float
    # rounding, and so every tag time, depends on this order
    t_emit += station.channel.delay_ps
    offset = bins * float(BIN_SEPARATION_PS)
    t_emit += offset
    sigma = station.detector.jitter_sigma_ps
    if sigma > 0:
        # the draws of rng.normal(0.0, sigma), which is 0 + sigma * z
        jitter = rng.standard_normal(n, out=offset)
        jitter *= sigma
        t_emit += jitter
    batches.append((t_emit, ports))


# P(port | setting) of a photon whose partner went unrecorded, by analyzer
# mode: a polarizer's P(+1 | setting, path) = (1 +- n_z)/2 averages to 1/2
# over the two equally likely paths; the time basis reads a 50/50 bin; the
# interference basis keeps the central peak (1/2), then gives +-1 at 50/50
_SINGLE_PORT_SHARE = {"polarizer": 0.5, "time": 0.5, "interference": 0.25}


def _singles_keys(keys: np.ndarray, n: int, station: Station, rng,
                  rate_hz: float, probs: np.ndarray, duration_ps: int):
    """Pack the clicks of the pairs whose partner photon went undetected
    into ``keys[n:]``: one Poisson stream at ``rate_hz``, shifted by the
    channel delay, then one port draw per tag from ``probs`` (each port's
    splitting x mode share, normalised).  Every time is drawn before the
    first port, as with whole draws; the ports are drawn and packed
    ``_SIM_CHUNK`` at a time.  Returns the buffer (a longer copy if the
    stream outgrew it) and the keys' new end.  ``rng`` is the party's
    own generator, not the session's (``simulate_session``), so each
    party's singles can be drawn on its own thread.

    This is exact in distribution: a single's setting, path and outcome
    do not depend on its emission time, so its port is a time-independent
    mark, and the clicks of each port form an independent Poisson process
    whatever the draw that routes them.  The bin offset and jitter would
    shift each tag by an iid amount, which leaves each port's process
    Poisson at the same rate; only the few ns at the span's ends differ,
    the approximation the dark counts make too.  So no setting, path,
    outcome, bin or jitter is drawn, and a party whose singles rate is 0
    draws nothing.
    """
    start = n
    for times in _poisson_arrivals(rng, rate_hz, duration_ps):
        times += station.channel.delay_ps
        keys = _put(keys, n, np.rint(times, out=times))
        n += times.shape[0]
    channels = np.array(station.channel_ids, np.uint8)
    for lo in range(start, n, _SIM_CHUNK):
        hi = min(lo + _SIM_CHUNK, n)
        key = _setting_choice(rng, hi - lo, probs)
        _pack_keys(keys[lo:hi], channels[key])
    return keys, n


# ---------------------------------------------------------------------------
# tag-stream serialization
# ---------------------------------------------------------------------------
#
# A dump is its header line, then one row per tag in ``"%d\t%d\n"`` form.
# The reader accepts rows ``[0-9]{1,3}\t[0-9]{1,19}`` whose channel is at
# most 255 and whose time fits int64, in ascending time; blank lines
# (empty, or spaces and tabs only) anywhere; ``\r\n`` line ends; and a last
# line without a newline.  It refuses anything else, naming the line.
# Both directions work on a row's layout, the digit counts of its channel
# and its time: the rows of one layout form one (rows, width) uint8 matrix.

_HEADER_RE = re.compile(
    r"^#tagstream v1 party=(alice|bob) duration_ps=(\d+)\s*$")


# rows formatted per write and body bytes parsed per read: each bounds the
# arrays in flight whatever the stream's length
_DUMP_ROWS = 1 << 14
_LOAD_BYTES = 1 << 18
# shorter runs of one layout inside a slice are parsed with their neighbours,
# about _MIXED_BYTES of lines at a time: the general parse keeps some 8
# bytes of index arrays per byte of text
_MIN_RUN = 1 << 8
_MIXED_BYTES = 1 << 16

_CHANNEL_DIGITS, _TIME_DIGITS = 3, 19   # the widest fields a row may have
_TAB, _NEWLINE, _SPACE, _ZERO = 9, 10, 32, 48   # ASCII codes


def _digit_quads() -> np.ndarray:
    """The ASCII digits of 0000 to 9999, four bytes to a uint32 entry."""
    digits = np.arange(_ZERO, _ZERO + 10, dtype=np.uint8)
    quads = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    quads[..., 0] = digits[:, None, None, None]
    quads[..., 1] = digits[:, None, None]
    quads[..., 2] = digits[:, None]
    quads[..., 3] = digits
    return quads.reshape(-1).view(np.uint32)


_QUADS = _digit_quads()
# 10 to 10**18: a time has one digit more than the powers at or below it
_POWERS = 10 ** np.arange(1, _TIME_DIGITS, dtype=np.int64)


def _windows(text: np.ndarray, width: int) -> np.ndarray:
    """A view of ``text`` with one ``width``-byte element starting at
    each byte: indexing it gathers or scatters whole rows at any
    offsets, one element per row."""
    return np.ndarray((text.shape[0] - width + 1,), buffer=text,
                      dtype=np.dtype((np.void, width)), strides=(1,))


def _write_layout(rows: np.ndarray, channels: np.ndarray,
                  times: np.ndarray, c: int) -> None:
    """Write tags whose channels have ``c`` digits and whose times all
    have the same count into the uint8 matrix ``rows``, one text row per
    matrix row.  The time goes in four digits at a time from its right
    end (a floor division by a constant is fast, a remainder is not); the
    leading quad may spill left into the channel and tab columns, which
    are written after it."""
    end, left = rows.shape[1] - 1, rows.shape[1] - 2 - c
    rest = times
    while left > 4:
        high = rest // 10_000
        low = high * -10_000
        low += rest
        rows[:, end - 4:end].view(np.uint32)[:, 0] = _QUADS[low]
        rest, end, left = high, end - 4, left - 4
    if end >= 4:
        rows[:, end - 4:end].view(np.uint32)[:, 0] = _QUADS[rest]
    else:  # a one-digit channel and a one-digit time
        rows[:, end - 1] = rest + _ZERO
    rest = channels
    for j in range(c - 1, 0, -1):
        high = rest // 10
        rows[:, j] = rest - high * 10 + _ZERO
        rest = high
    rows[:, 0] = rest + _ZERO
    rows[:, c] = _TAB
    rows[:, -1] = _NEWLINE


def _format_rows(channels: np.ndarray, times: np.ndarray) -> np.ndarray:
    """The ``"%d\t%d\n"`` text of some tags as a uint8 array: one matrix
    when they share a layout, as a run of ascending times does between
    powers of ten; else each layout's rows scattered to their offsets."""
    lo, hi = int(times.min()), int(times.max())
    if lo < 0:
        raise ValueError("tag times must be >= 0")
    c, t = len(str(int(channels.max()))), len(str(hi))
    if c == len(str(int(channels.min()))) and t == len(str(lo)):
        text = np.empty((times.shape[0], c + t + 2), dtype=np.uint8)
        _write_layout(text, channels, times, c)
        return text.reshape(-1)
    cs = (channels >= 10).view(np.uint8) + (channels >= 100) + 1
    ts = np.searchsorted(_POWERS, times, side="right") + 1
    widths = ts + cs + 2
    starts = np.cumsum(widths)
    text = np.empty(int(starts[-1]), dtype=np.uint8)
    starts -= widths
    layout = cs * 32 + ts
    for key in np.flatnonzero(np.bincount(layout)):
        c, t = divmod(int(key), 32)
        width = c + t + 2
        rows = np.flatnonzero(layout == key)
        block = np.empty((rows.shape[0], width), dtype=np.uint8)
        _write_layout(block, channels[rows], times[rows], c)
        _windows(text, width)[starts[rows]] = block.view(
            np.dtype((np.void, width)))[:, 0]
    return text


def dump_tagstream(stream: TagStream, path_or_file) -> None:
    """Write the plain-text ``#tagstream v1`` dump: a one-line header,
    then one ``channel<TAB>time_ps`` line per tag in stream order, the
    bytes ``"%d\t%d\n"`` makes of each.

    ``path_or_file`` is a path (``str``, ``bytes`` or ``os.PathLike``),
    written in binary mode, or an open file: a binary file
    (``io.RawIOBase`` or ``io.BufferedIOBase``) receives bytes, any other
    ``str``.  Rows are formatted ``_DUMP_ROWS`` at a time, so memory stays
    bounded by the slice.
    """
    own = isinstance(path_or_file, (str, bytes, os.PathLike))
    f = open(path_or_file, "wb") if own else path_or_file
    text = not isinstance(f, (io.RawIOBase, io.BufferedIOBase))
    try:
        header = (f"#tagstream v1 party={stream.party} "
                  f"duration_ps={stream.duration_ps}\n")
        f.write(header if text else header.encode())
        for lo in range(0, len(stream), _DUMP_ROWS):
            rows = _format_rows(stream.channels[lo:lo + _DUMP_ROWS],
                                stream.times[lo:lo + _DUMP_ROWS])
            f.write(str(rows, "ascii") if text else rows)
    finally:
        if own:
            f.close()


def _count_rows(f) -> int:
    """The rows a binary file can hold from its position on: its
    newlines, plus one for a last line without one.  Reads ``f`` a slice
    at a time and leaves its position where it was."""
    start, count, last = f.tell(), 0, b"\n"
    while chunk := f.read(_LOAD_BYTES):
        count += np.count_nonzero(np.frombuffer(chunk, np.uint8) == _NEWLINE)
        last = chunk[-1:]
    f.seek(start)
    return count + (last != b"\n")


def _body_lines(f):
    """The rest of ``f`` as bytearrays of whole lines: each read of
    ``_LOAD_BYTES`` is cut after its last newline and the rest carried
    into the next.  Text is encoded as UTF-8, ``\r\n`` becomes ``\n`` and
    a last line without a newline gets one."""
    carry = b""
    while chunk := f.read(_LOAD_BYTES):
        lines = bytearray(carry)
        lines += chunk.encode("utf-8", "replace") if isinstance(
            chunk, str) else chunk
        cut = lines.rfind(b"\n") + 1
        carry = bytes(lines[cut:])
        del lines[cut:]
        if lines:
            yield lines.replace(b"\r\n", b"\n") if b"\r" in lines else lines
    if carry:
        yield bytearray(carry.replace(b"\r\n", b"\n") + b"\n")


def _row_error(line: bytes) -> str:
    """Why a line that is neither a row nor blank was refused."""
    fields = line.split(b"\t")
    if len(fields) != 2 or not all(map(_DIGITS_RE.fullmatch, fields)):
        text = line.decode("ascii", "backslashreplace")
        return f"expected 'channel<TAB>time' in decimal digits, got {text!r}"
    name, field, most = (("channel", fields[0], _CHANNEL_DIGITS)
                         if len(fields[0]) > _CHANNEL_DIGITS
                         else ("time", fields[1], _TIME_DIGITS))
    return f"{name} {field.decode()} has more than {most} digits"


_DIGITS_RE = re.compile(rb"[0-9]+")


class _TagRows:
    """The channels and times of a dump's body, parsed one bytearray of
    whole lines at a time (``parse``) into arrays of ``capacity``
    entries, grown in place if they fill and cut to length by
    ``result``.  ``source`` prefixes every refusal."""

    def __init__(self, capacity: int, source: str):
        self.channels = np.empty(capacity, dtype=np.uint8)
        self.times = np.empty(capacity, dtype=np.int64)
        self.n = 0
        self.line = 2           # of the next line; the header is line 1
        self.source = source

    def result(self) -> tuple[np.ndarray, np.ndarray]:
        self._resize(self.n)
        return self.channels, self.times

    def _resize(self, size: int) -> None:
        # in place (realloc): no view of either array outlives a call
        self.channels.resize(size, refcheck=False)
        self.times.resize(size, refcheck=False)

    def _refuse(self, line: int, cause: str):
        raise ValueError(f"{self.source}line {self.line + line}: {cause}")

    def parse(self, lines: bytearray) -> None:
        """Parse whole lines, the last ending in a newline: runs of rows
        of one layout as matrices that view ``lines`` (``_run``), and
        the lines from a short run on by ``_parse_mixed``, up to the
        first newline ``_MIXED_BYTES`` on."""
        text = np.frombuffer(lines, dtype=np.uint8)
        at = 0
        while at < text.shape[0]:
            used = self._run(lines, text, at)
            if not used:
                end = lines.find(b"\n", min(at + _MIXED_BYTES,
                                            text.shape[0] - 1)) + 1
                self._parse_mixed(text[at:end])
                used = end - at
            at += used

    def _run(self, lines: bytearray, text: np.ndarray, at: int) -> int:
        """Parse the rows from byte ``at`` on that have the layout of
        the line there, as one (rows, width) matrix; returns the bytes
        parsed, or 0 when that line is no row or its run is short and
        not the last."""
        width = lines.find(b"\n", at) + 1 - at
        c = lines.find(b"\t", at, at + width) - at
        if not (1 <= c <= _CHANNEL_DIGITS
                and 1 <= width - 2 - c <= _TIME_DIGITS):
            return 0
        rows = text[at:at + (text.shape[0] - at) // width * width]
        rows = rows.reshape(-1, width)
        # the run ends at the first matrix row that does not end a line
        ends = rows[:, -1] == _NEWLINE
        stop = int(ends.argmin())
        count = rows.shape[0] if ends[stop] else stop
        if count < _MIN_RUN and at + count * width < text.shape[0]:
            return 0
        rows = rows[:count]
        if not (rows[:, c] == _TAB).all():
            return 0
        rows -= _ZERO
        # every byte but the tab and the newline is a digit
        if np.count_nonzero(rows > 9) != 2 * count:
            rows += _ZERO
            return 0
        channel = rows[:, 0].astype(np.uint16)
        for j in range(1, c):
            channel *= 10
            channel += rows[:, j]
        self._reserve(count)
        where = slice(self.n, self.n + count)
        faults = self._store_channels(channel, where, None)
        faults += _sum_times(rows[:, c + 1:-1], self.times[where], None)
        self._finish(count, None, faults)
        return count * width

    def _parse_mixed(self, text: np.ndarray) -> None:
        """Parse whole lines of any mix of layouts: ``_sort_out`` finds
        the rows among them from their non-digit bytes.  A channel is the
        up to three digits before its tab; the times of one width are
        gathered into one matrix, aligned at the tab, and scattered back
        to their rows."""
        count, lines, tabs, c, t = self._sort_out(text)
        channel = (text[tabs - 1] - _ZERO).astype(np.uint16)
        for k, scale in ((2, 10), (3, 100)):
            digit = text[tabs - k] - _ZERO   # any byte where c < k
            digit[c < k] = 0
            channel += digit.astype(np.uint16) * scale
        self._reserve(tabs.shape[0])
        first = self.n
        faults = self._store_channels(
            channel, slice(first, first + tabs.shape[0]), lines)
        for width in np.flatnonzero(np.bincount(t)):
            group = np.flatnonzero(t == width)
            digits = _windows(text, int(width))[tabs[group] + 1]
            digits = digits.view(np.uint8).reshape(group.shape[0], int(width))
            digits -= _ZERO
            times = np.empty(group.shape[0], dtype=np.int64)
            faults += _sum_times(digits, times, lines[group])
            self.times[first + group] = times
        self._finish(count, lines, faults)

    def _sort_out(self, text: np.ndarray):
        """Classify whole lines by their non-digit bytes: a row has two,
        its tab and its newline, around fields of 1-3 and 1-19 digits; a
        blank line has no digit and no bytes but spaces and tabs.  Refuse
        the first line that is neither, else return the count of lines,
        and the rows' lines, tabs and channel and time digit counts."""
        marks = np.flatnonzero((text - _ZERO) > 9)
        kinds = text[marks]
        last = np.flatnonzero(kinds == _NEWLINE)   # each line's last mark
        ends = marks[last]
        starts = _line_starts(ends)
        tabs = marks[last - 1]   # a row's tab, the mark before its newline
        c, t = tabs - starts, ends - tabs - 1
        per_line = np.diff(last, prepend=-1)
        row = ((per_line == 2) & (kinds[last - 1] == _TAB)
               & (c >= 1) & (c <= _CHANNEL_DIGITS)
               & (t >= 1) & (t <= _TIME_DIGITS))
        blank = per_line == ends - starts + 1
        other = (kinds != _TAB) & (kinds != _SPACE) & (kinds != _NEWLINE)
        blank[np.searchsorted(last, np.flatnonzero(other))] = False
        bad = ~(row | blank)
        if bad.any():
            self._refuse_line(text, starts, ends, int(bad.argmax()))
        lines = np.flatnonzero(row)
        return last.shape[0], lines, tabs[lines], c[lines], t[lines]

    def _refuse_line(self, text, starts, ends, i: int):
        """Refuse line ``i`` of ``text``, neither a row nor blank, once
        the lines before it are parsed: one of them may fault first."""
        if i:
            self._parse_mixed(text[:starts[i]])
        self._refuse(0, _row_error(text[starts[i]:ends[i]].tobytes()))

    def _reserve(self, count: int) -> None:
        if self.n + count > self.times.shape[0]:
            self._resize(max(self.n + count, self.times.shape[0] * 3 // 2))

    def _store_channels(self, channel: np.ndarray, where, lines) -> list:
        """Store channels at ``where``; returns the first above 255 as
        ``[(line, cause)]``, ``lines`` giving each row's line in the
        slice (None: the rows are the lines)."""
        self.channels[where] = channel
        over = channel > 255
        if not over.any():
            return []
        i = int(over.argmax())
        return [(i if lines is None else int(lines[i]),
                 f"channel {channel[i]} is above 255")]

    def _finish(self, count: int, lines, faults: list) -> None:
        """Refuse the first line of the slice with a fault: one of
        ``faults`` or a time below the row before it (from the row
        before the slice on), which ranks after a fault of the same line
        (a time past int64 wraps below its predecessor).  Else take in
        the slice's rows and move past its ``count`` lines."""
        first = self.n
        end = first + (count if lines is None else lines.shape[0])
        times = self.times[max(first - 1, 0):end]
        back = times[1:] < times[:-1]
        if back.any():
            i = int(back.argmax()) + 1   # the row in ``times``
            row = i - (first > 0)        # the row in the slice
            faults.append((row if lines is None else int(lines[row]),
                           f"time {times[i]} is below the previous row's "
                           f"{times[i - 1]}"))
        if faults:
            self._refuse(*min(faults, key=lambda fault: fault[0]))
        self.n = end
        self.line += count


def _sum_times(digits: np.ndarray, times: np.ndarray, lines) -> list:
    """Sum the rows of ``digits``, the digit values of times of one
    width, column by column into ``times``; returns the first time past
    int64 as ``[(line, cause)]``, ``lines`` giving each row's line in the
    slice (None: the rows are the lines)."""
    np.copyto(times, digits[:, 0])
    for j in range(1, digits.shape[1]):
        times *= 10
        times += digits[:, j]
    # 19 digits can pass 2**63 - 1; the sum then wraps negative
    if digits.shape[1] < _TIME_DIGITS or not (times < 0).any():
        return []
    i = int((times < 0).argmax())
    field = (digits[i] + _ZERO).tobytes().decode()
    return [(i if lines is None else int(lines[i]),
             f"time {field} does not fit int64")]


def _line_starts(ends: np.ndarray) -> np.ndarray:
    """Where each line starts, given where each ends (its newline)."""
    starts = np.empty_like(ends)
    starts[0] = 0
    np.add(ends[:-1], 1, out=starts[1:])
    return starts


def load_tagstream(path_or_file) -> TagStream:
    """Read a ``#tagstream v1`` dump (the grammar at the head of this
    section).

    ``path_or_file`` is a path (``str``, ``bytes`` or ``os.PathLike``),
    read in binary mode, or an open text or binary file, read from its
    current position.  The body is parsed a slice of whole lines at a
    time (``_body_lines``, ``_TagRows``), so memory stays bounded by the
    slice and the output arrays.  These are sized once from a newline
    count for a seekable path, and grown as rows arrive otherwise.
    Raises ``ValueError`` on a bad header, or, naming the path, the
    1-based line and the cause, on a line that is neither a row nor
    blank, a channel above 255, a time past int64 or a time below the one
    before it.
    """
    own = isinstance(path_or_file, (str, bytes, os.PathLike))
    f = open(path_or_file, "rb") if own else path_or_file
    try:
        header = f.readline()
        if isinstance(header, bytes):
            header = header.decode("ascii", "replace")
        m = _HEADER_RE.match(header)
        if not m:
            raise ValueError(f"bad tag-stream header: {header!r}")
        rows = _TagRows(_count_rows(f) if own and f.seekable() else 0,
                        f"{os.fsdecode(path_or_file)}: " if own else "")
        for lines in _body_lines(f):
            rows.parse(lines)
        channels, times = rows.result()
    finally:
        if own:
            f.close()
    return TagStream(party=m.group(1), duration_ps=int(m.group(2)),
                     channels=channels, times=times)
