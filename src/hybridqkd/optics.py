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
  follow the two-qubit Born rule of :mod:`hybridqkd.quantum`, including the
  phase-sensitive interference terms.
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

import itertools
import math
import re
from dataclasses import dataclass, fields

import numpy as np

from . import kernels
from .quantum import MeasurementSetting, standard_settings

BIN_SEPARATION_PS = 800
FWHM_TO_SIGMA = 1.0 / 2.3548
PS_PER_SECOND = 1_000_000_000_000

__all__ = [
    "BIN_SEPARATION_PS",
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
        if self.delay_ps < 0:
            raise ValueError("delay_ps must be >= 0")


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

    def rate_hz(self) -> float:
        if self.duration_ps == 0:
            return 0.0
        return len(self) * PS_PER_SECOND / self.duration_ps


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
    if keys.size and keys.max() >= 2**55:
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

_HEADER_RE = re.compile(
    r"^#tagstream v1 party=(alice|bob) duration_ps=(\d+)\s*$")


# rows formatted per write: bounds the Python ints and the text in flight
# (about 70 bytes of objects per row, so about 290 KB) whatever the
# stream's length
_DUMP_ROWS = 1 << 12


def dump_tagstream(stream: TagStream, path_or_file) -> None:
    """Write the plain-text ``#tagstream v1`` dump: a one-line header,
    then one ``channel<TAB>time_ps`` line per tag in stream order.

    ``path_or_file`` is a path or an open text file.  Rows are formatted
    a fixed-size slice at a time, so memory stays bounded by the slice.
    The bytes are those ``np.savetxt`` writes for the (channel, time)
    rows with ``fmt="%d"`` and a tab delimiter.
    """
    own = isinstance(path_or_file, (str, bytes))
    f = open(path_or_file, "w") if own else path_or_file
    try:
        f.write(f"#tagstream v1 party={stream.party} "
                f"duration_ps={stream.duration_ps}\n")
        for lo in range(0, len(stream), _DUMP_ROWS):
            hi = min(lo + _DUMP_ROWS, len(stream))
            pairs = np.empty((hi - lo, 2), dtype=np.int64)
            pairs[:, 0] = stream.channels[lo:hi]
            pairs[:, 1] = stream.times[lo:hi]
            f.write(("%d\t%d\n" * (hi - lo)) % tuple(pairs.ravel().tolist()))
    finally:
        if own:
            f.close()


def load_tagstream(path_or_file) -> TagStream:
    """Read a ``#tagstream v1`` dump written by :func:`dump_tagstream`.

    ``path_or_file`` is a path or an open text file, read from its
    current position.  After the header, ``np.loadtxt`` parses the open
    file line by line, so memory stays bounded by its chunks and the
    output arrays.  A body of blank lines gives an empty stream.  Raises
    ``ValueError`` on a bad header, a row that is not two integer
    columns, a channel outside [0, 255], or times out of order.
    """
    own = isinstance(path_or_file, (str, bytes))
    f = open(path_or_file, "r") if own else path_or_file
    try:
        header = f.readline()
        m = _HEADER_RE.match(header)
        if not m:
            raise ValueError(f"bad tag-stream header: {header!r}")
        party, duration = m.group(1), int(m.group(2))
        # a body of only blank lines is an empty stream (np.loadtxt would
        # warn on it); the lines read here go to the parser unchanged
        lead = []
        for line in f:
            lead.append(line)
            if line.strip():
                data = np.loadtxt(itertools.chain(lead, f), dtype=np.int64,
                                  delimiter="\t", ndmin=2)
                break
        else:
            data = np.empty((0, 2), dtype=np.int64)
    finally:
        if own:
            f.close()
    if data.shape[1] != 2:
        raise ValueError("tag lines must be 'channel<TAB>time_ps'")
    if data.size and ((data[:, 0] < 0).any() or (data[:, 0] > 255).any()):
        raise ValueError("channel ids must be in [0, 255]")
    # contiguous times, so that readers do not copy a strided column
    return TagStream(party=party, duration_ps=duration,
                     channels=data[:, 0].astype(np.uint8),
                     times=np.ascontiguousarray(data[:, 1]))
