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

:func:`simulate_session` draws whole streams at once.  Each party's
clicks are sorted by time then port as packed keys, and the dead time is
applied channel by channel to the close runs (tags next to a shorter
gap) only.  When both parties have more than ``kernels._SPLIT_TAGS``
clicks and the process may use two CPUs, Bob's clicks are merged and
sorted on a worker thread while Alice's are on the calling thread
(``_sort_clicks``); the dead time, which calls the public
``kernels.dead_time_filter``, stays on the calling thread, and no random
draw moves.  Per-tag ground truth (:class:`GroundTruth`) is
produced only on request (``truth=True``); the streams do not depend on
it.  A scalar one-emission-at-a-time model of the same physics lives in
``tests/oracle_optics.py`` as the tests' reference.

All tag times are int64 picoseconds.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass

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
    "GroundTruth",
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

@dataclass(frozen=True)
class SourceModel:
    """Pair source: emission rate and the static interferometric phase."""

    pair_rate_hz: float
    reference_phase: float = math.pi

    def __post_init__(self):
        if self.pair_rate_hz < 0:
            raise ValueError("pair_rate_hz must be >= 0")


@dataclass(frozen=True)
class ChannelModel:
    """One party's propagation path: power transmittance and fixed delay."""

    transmittance: float
    delay_ps: int = 0

    def __post_init__(self):
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

    def setting_index(self, name: str) -> int:
        for i, s in enumerate(self.settings):
            if s.name == name:
                return i
        raise KeyError(name)


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
class GroundTruth:
    """Per-tag provenance, index-aligned with the two tag streams.

    emission ids are session-local labels of the pairs both parties
    detected, ``emission_count`` of them; a pair of tags with the same
    nonnegative id came from the same emission.  -1 means no recorded
    partner: a single (its partner photon went undetected) or a dark
    count.  setting is the index into the station's settings tuple (-1
    dark), outcome the quantum +-1 (0 dark), both read back from the port
    for a single; bin is the time-bin offset count (-1 single or dark).
    """

    emission_count: int
    alice_emission: np.ndarray
    alice_setting: np.ndarray
    alice_outcome: np.ndarray
    alice_bin: np.ndarray
    bob_emission: np.ndarray
    bob_setting: np.ndarray
    bob_outcome: np.ndarray
    bob_bin: np.ndarray

    def true_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Tag-index pairs whose two sides share an emission id."""
        a_ok = self.alice_emission >= 0
        b_ok = self.bob_emission >= 0
        common, ai, bi = np.intersect1d(
            self.alice_emission[a_ok], self.bob_emission[b_ok],
            assume_unique=True, return_indices=True)
        return np.flatnonzero(a_ok)[ai], np.flatnonzero(b_ok)[bi]


@dataclass
class SessionResult:
    alice: TagStream
    bob: TagStream
    truth: GroundTruth | None  # None unless simulated with truth=True


# ---------------------------------------------------------------------------
# vectorized session simulation
# ---------------------------------------------------------------------------

def _poisson_stream_ps(rng: np.random.Generator, rate_hz: float,
                       duration_ps: int) -> np.ndarray:
    """Poisson process arrival times in [0, duration) ps, float64, sorted."""
    if rate_hz <= 0 or duration_ps <= 0:
        return np.empty(0, dtype=np.float64)
    mean_gap_ps = PS_PER_SECOND / rate_hz
    expected = duration_ps / mean_gap_ps
    chunk = int(expected + 6.0 * math.sqrt(expected + 1.0) + 16)
    parts = []
    while True:
        gaps = rng.exponential(mean_gap_ps, size=chunk)
        times = np.cumsum(gaps, out=gaps)
        if parts:
            times += parts[-1][-1]
        parts.append(times)
        if times[-1] >= duration_ps:
            break
    times = np.concatenate(parts) if len(parts) > 1 else parts[0]
    return times[:np.searchsorted(times, duration_ps)]


def _setting_choice(rng, n, probs):
    """Index per event drawn from the probabilities ``probs`` (a setting
    from the splitting, or a port): the number of inner cumulative edges
    at or below a uniform draw (``searchsorted(side="right")`` capped at
    the last index)."""
    r = rng.random(n)
    idx = np.zeros(n, dtype=np.int8)
    for edge in np.cumsum(probs)[:-1]:
        idx += r >= edge
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


# emission id, setting, outcome, bin
_PROVENANCE_DTYPES = (np.int64, np.int8, np.int8, np.int8)


class _PartyAccumulator:
    """Collects click batches for one party before merge/sort/dead-time.

    Provenance (emission id, setting, outcome, bin per click) is kept only
    when ``truth`` is set; otherwise ``add`` ignores it, and callers pass
    None for the arrays that only provenance needs.
    """

    def __init__(self, truth: bool = False):
        self.times = []
        self.ports = []
        self.provenance = ([], [], [], []) if truth else None
        self.merged = None  # set by _sort_clicks

    def __len__(self):
        return sum(t.shape[0] for t in self.times)

    def add(self, times, ports, emission, setting, outcome, bins):
        self.times.append(np.asarray(times))
        self.ports.append(np.asarray(ports, dtype=np.uint8))
        if self.provenance is not None:
            for parts, arr, dtype in zip(self.provenance,
                                         (emission, setting, outcome, bins),
                                         _PROVENANCE_DTYPES):
                parts.append(np.asarray(arr, dtype=dtype))


def _dead_time_keep(times: np.ndarray, ports: np.ndarray, channel_ids,
                    dead_ps: int) -> np.ndarray:
    """Keep-mask of the per-channel dead time over time-sorted tags.

    Only the close runs, the tags next to a gap shorter than ``dead_ps``
    whatever their channels, are filtered.  That is exact: a tag at least
    ``dead_ps`` after its predecessor survives; a tag whose next tag is
    also that far away cannot block any later tag; and every same-channel
    tag within ``dead_ps`` before a tag lies in the same run, so runs never
    interact.  One stable sort of the run tags' 8-bit ports (a radix sort)
    makes each channel's run tags a contiguous, still time-sorted slice;
    each slice is filtered on its own and the mask is scattered back once.
    """
    n = times.shape[0]
    keep = np.ones(n, dtype=bool)
    if n < 2 or dead_ps <= 0:
        return keep
    close = np.diff(times) < dead_ps       # close[i]: tags i and i + 1
    in_run = np.append(close, False)
    in_run[1:] |= close
    run = np.flatnonzero(in_run)
    run_ports = ports[run]
    run = run[np.argsort(run_ports, kind="stable")]
    counts = np.bincount(run_ports, minlength=256)
    ends = np.cumsum(counts)
    port_times = times[run]
    port_keep = np.ones(run.shape[0], dtype=bool)
    for ch in channel_ids:
        lo, hi = int(ends[ch] - counts[ch]), int(ends[ch])
        port_keep[lo:hi] = kernels.dead_time_filter(port_times[lo:hi], dead_ps)
    keep[run] = port_keep
    return keep


def _sort_clicks(acc: _PartyAccumulator):
    """Merge one party's click batches into time-major, port-minor order.
    Sets ``acc.merged`` to (times, ports, order, provenance): ``order``
    maps the sorted tags to the merged batches and ``provenance`` holds
    the per-click (emission, setting, outcome, bin) arrays in batch
    order, both only when ``acc`` kept provenance (else None).  Runs on a
    worker thread for Bob (``simulate_session``), so it calls no public
    function."""
    times = (np.concatenate([np.rint(t, out=t) for t in acc.times],
                            dtype=np.int64, casting="unsafe")
             if acc.times else np.empty(0, np.int64))
    ports = np.concatenate(acc.ports) if acc.ports else np.empty(0, np.uint8)
    provenance = None
    if acc.provenance is not None:
        provenance = [np.concatenate(parts) if parts else np.empty(0, dtype)
                      for parts, dtype in zip(acc.provenance,
                                              _PROVENANCE_DTYPES)]
    acc.times = acc.ports = acc.provenance = None

    if times.size and times.min() < 0:
        ok = times >= 0
        times, ports = times[ok], ports[ok]
        if provenance is not None:
            provenance = [p[ok] for p in provenance]

    # time-major, port-minor order from one stable sort (the batches come
    # nearly in order) of packed keys; only provenance needs the order
    if times.size and times.max() >= 2**55:
        raise ValueError("tag times of 2**55 ps or more overflow the sort key")
    times <<= 8
    times |= ports
    order = None
    if provenance is None:
        times.sort(kind="stable")
    else:
        order = np.argsort(times, kind="stable")
        times = times[order]
    ports = times.astype(np.uint8)       # the low byte
    times >>= 8
    acc.merged = times, ports, order, provenance


def _finalize_party(acc: _PartyAccumulator, station: Station, party: str,
                    duration_ps: int):
    """One party's dead-time filtered stream from its merged clicks
    (``_sort_clicks``).  Returns the stream and, when ``acc`` kept
    provenance, the per-tag (emission, setting, outcome, bin) arrays
    aligned with it (else None)."""
    times, ports, order, provenance = acc.merged
    acc.merged = None  # the filtered arrays replace these
    keep = _dead_time_keep(times, ports, station.channel_ids,
                           station.detector.dead_time_ps)
    times, ports = times[keep], ports[keep]
    if provenance is not None:
        order = order[keep]
        provenance = [p[order] for p in provenance]

    stream = TagStream(party=party, duration_ps=duration_ps,
                       channels=ports, times=times)
    return stream, provenance


def simulate_session(source: SourceModel, drift: DriftModel, alice: Station,
                     bob: Station, duration_s: float, seed, *,
                     truth: bool = False) -> SessionResult:
    """Simulate one accumulation block and return both tag streams.

    ``seed`` may be an int, a SeedSequence, or a Generator.  Identical
    arguments and seed give bit-identical streams.  With ``truth=True``
    the result also carries the per-tag :class:`GroundTruth`; without it
    ``SessionResult.truth`` is None and no provenance is kept.  The flag
    changes no random draw, so the streams are the same either way.
    """
    rng = np.random.default_rng(seed)
    duration_ps = int(round(duration_s * PS_PER_SECOND))

    p_det_a = alice.channel.transmittance * alice.detector.efficiency
    p_det_b = bob.channel.transmittance * bob.detector.efficiency
    rate = source.pair_rate_hz

    acc_a = _PartyAccumulator(truth)
    acc_b = _PartyAccumulator(truth)

    # --- pairs with both photons detected -------------------------------
    t_both = _poisson_stream_ps(rng, rate * p_det_a * p_det_b, duration_ps)
    n_both = t_both.shape[0]
    # session-local emission labels; only ground truth reads them
    ids_both = np.arange(n_both, dtype=np.int64) if truth else None

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
    _emit_clicks(acc_a, alice, rng, t_both, ids_both, a_set, x, bin_a)
    _emit_clicks(acc_b, bob, rng, t_bob,
                 None if ids_both is None else ids_both[b_keep],
                 b_set[b_keep], y[b_keep], bin_b[b_keep])
    del t_both, ids_both, a_set, b_set, central, x, y, bin_a, bin_b, b_keep

    # --- pairs with only one photon detected ----------------------------
    _emit_singles(acc_a, alice, rng, rate * p_det_a * (1.0 - p_det_b),
                  duration_ps)
    _emit_singles(acc_b, bob, rng, rate * (1.0 - p_det_a) * p_det_b,
                  duration_ps)

    # --- dark counts ------------------------------------------------------
    duration_s_exact = duration_ps / PS_PER_SECOND
    for station, acc in ((alice, acc_a), (bob, acc_b)):
        dark = station.detector.dark_rate_hz
        if dark <= 0:
            continue
        for ch in station.channel_ids:
            n_dark = rng.poisson(dark * duration_s_exact)
            t_dark = rng.integers(0, duration_ps, size=n_dark, dtype=np.int64)
            provenance = (None,) * 4
            if truth:
                provenance = (np.full(n_dark, -1, np.int64),
                              np.full(n_dark, -1, np.int8),
                              np.zeros(n_dark, np.int8),
                              np.full(n_dark, -1, np.int8))
            acc.add(t_dark.astype(np.float64), np.full(n_dark, ch, np.uint8),
                    *provenance)

    # Bob's clicks sort on a worker thread while Alice's sort here; the
    # dead time (kernels.dead_time_filter) stays on this thread
    kernels._in_parallel(_sort_clicks, [(acc_a,), (acc_b,)],
                         kernels._two_threads(min(len(acc_a), len(acc_b))))
    stream_a, prov_a = _finalize_party(acc_a, alice, "alice", duration_ps)
    stream_b, prov_b = _finalize_party(acc_b, bob, "bob", duration_ps)
    ground = None
    if truth:
        ground = GroundTruth(n_both, *prov_a, *prov_b)
    return SessionResult(alice=stream_a, bob=stream_b, truth=ground)


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


def _emit_clicks(acc: _PartyAccumulator, station: Station, rng,
                 t_emit, emission_ids, setting_idx, outcome, bins):
    """Turn sampled outcomes into detector clicks: port routing, bin offset,
    channel delay, jitter, added into ``t_emit`` (the caller's to give)."""
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
    acc.add(t_emit, ports, emission_ids, setting_idx, outcome, bins)


# P(port | setting) of a photon whose partner went unrecorded, by analyzer
# mode: a polarizer's P(+1 | setting, path) = (1 +- n_z)/2 averages to 1/2
# over the two equally likely paths; the time basis reads a 50/50 bin; the
# interference basis keeps the central peak (1/2), then gives +-1 at 50/50
_SINGLE_PORT_SHARE = {"polarizer": 0.5, "time": 0.5, "interference": 0.25}


def _emit_singles(acc: _PartyAccumulator, station: Station, rng,
                  rate_hz: float, duration_ps: int):
    """Clicks of the pairs whose partner photon went undetected: one
    Poisson stream at ``rate_hz`` x P(click), shifted by the channel
    delay, and one port draw per tag with P(port) = splitting x the mode's
    port share.

    This is exact in distribution: a single's setting, path and outcome
    do not depend on its emission time, so its port is a time-independent
    mark, and the clicks of each port form an independent Poisson process
    whatever the draw that routes them.  The bin offset and jitter would
    shift each tag by an iid amount, which leaves each port's process
    Poisson at the same rate; only the few ns at the span's ends differ,
    the approximation the dark counts make too.  So no setting, path,
    outcome, bin or jitter is drawn, and a party whose singles rate is 0
    draws nothing.  In the ground truth a single has emission and bin -1
    and its port's setting and outcome.
    """
    shares = np.array([split * _SINGLE_PORT_SHARE[mode]
                       for split, mode in zip(station.splitting, station.modes)
                       for _ in range(2)])
    times = _poisson_stream_ps(rng, rate_hz * shares.sum(), duration_ps)
    n = times.shape[0]
    if n == 0:
        return
    times += station.channel.delay_ps
    # key 2s + 0 is setting s's plus port, 2s + 1 its minus port
    key = _setting_choice(rng, n, shares / shares.sum())
    provenance = (None,) * 4
    if acc.provenance is not None:
        signs = np.array([(s.outcome_sign, -s.outcome_sign)
                          for s in station.settings], dtype=np.int8).ravel()
        provenance = (np.full(n, -1, np.int64), key // 2, signs[key],
                      np.full(n, -1, np.int8))
    acc.add(times, np.array(station.channel_ids, np.uint8)[key], *provenance)


# ---------------------------------------------------------------------------
# tag-stream serialization
# ---------------------------------------------------------------------------

_HEADER_RE = re.compile(
    r"^#tagstream v1 party=(alice|bob) duration_ps=(\d+)\s*$")


# rows formatted per write: bounds the Python ints and the text in flight
# (about 70 bytes of objects per row) whatever the stream's length
_DUMP_ROWS = 1 << 16


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
    return TagStream(party=party, duration_ps=duration,
                     channels=data[:, 0].astype(np.uint8), times=data[:, 1])
