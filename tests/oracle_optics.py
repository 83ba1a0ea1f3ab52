"""Scalar reference model of the optical link: one emission at a time.

A pair's routing, outcomes and time bins are drawn with explicit
per-event probabilities from the two-qubit Born rule, and one detection
attempt applies loss, delay, jitter and dead time tag by tag.  Nothing
here is shared with ``optics.simulate_session``, which draws whole
streams at once; tests compare the statistics of the two.

The second half keeps a whole-array reference of one party's last steps
(singles, sort and dead time): every click batch is concatenated, sorted
and filtered at full length.  ``optics._party_stream`` must return the
same bytes and leave its generator in the same state.
"""

import math
from dataclasses import dataclass

import numpy as np

from hybridqkd.optics import (
    BIN_SEPARATION_PS,
    PS_PER_SECOND,
    ChannelModel,
    DetectorModel,
    SourceModel,
    Station,
    TagStream,
)
from hybridqkd.quantum import MeasurementSetting
from oracle_kernels import dead_time_filter
from oracle_quantum import hybrid_state, joint_probability


@dataclass(frozen=True)
class TimeTag:
    channel: int
    time_ps: int


def generate_pair_times(source: SourceModel, duration_s: float,
                        rng: np.random.Generator) -> np.ndarray:
    """Homogeneous Poisson emission times over [0, duration) in int64 ps."""
    lam = source.pair_rate_hz * duration_s
    n = rng.poisson(lam)
    times = np.sort(rng.uniform(0.0, duration_s * PS_PER_SECOND, size=n))
    return times.astype(np.int64)


def sample_pair_outcome(phase: float, alice: Station, bob: Station,
                        rng: np.random.Generator):
    """Sample one emitted pair's analyzer routing, outcomes, and bins.

    Returns ``(alice_part, bob_part, central)`` where each part is either
    None (click discarded by interferometric post-selection) or a tuple
    ``(setting_index, outcome, bin)``.  Detection loss is not applied here;
    see :func:`detect`.
    """
    a_idx = int(rng.choice(len(alice.settings), p=alice.splitting))
    b_idx = int(rng.choice(len(bob.settings), p=bob.splitting))
    a_set = alice.settings[a_idx]
    b_set = bob.settings[b_idx]
    b_mode = bob.modes[b_idx]
    central = bool(rng.random() < 0.5)

    if central:
        state = hybrid_state(phase)
        probs = [joint_probability(state, a_set, b_set, xa, xb)
                 for xa in (1, -1) for xb in (1, -1)]
        pick = int(rng.choice(4, p=np.asarray(probs) / sum(probs)))
        x = 1 if pick < 2 else -1
        y = 1 if pick % 2 == 0 else -1
        if b_mode == "time":
            s = 0 if y == 1 else 1          # arrival time reveals the bin
        else:
            s = int(rng.random() < 0.5)     # latent, erased by interference
        return (a_idx, x, s), (b_idx, y, s), True

    # satellite: paths distinguishable, no phase correlation
    c = int(rng.random() < 0.5)
    p = 1 - c
    x = _path_conditioned_outcome(a_set, p, rng)
    if b_mode == "time":
        y = 1 if c == 0 else -1
        return (a_idx, x, p), (b_idx, y, c), False
    # interference basis: decoder keeps the central peak only
    return (a_idx, x, p), None, False


def _path_conditioned_outcome(setting: MeasurementSetting, path: int,
                              rng: np.random.Generator) -> int:
    """Analyzer outcome for a photon of definite path (0: H-like, 1: V-like)."""
    nz = setting.bloch[2]
    p_plus = (1.0 + nz) / 2.0 if path == 0 else (1.0 - nz) / 2.0
    return 1 if rng.random() < p_plus else -1


def port_for(setting: MeasurementSetting, outcome: int) -> int:
    """The detector channel that fires on quantum outcome +1 or -1: the +
    port when the outcome equals the setting's ``outcome_sign``."""
    if outcome == setting.outcome_sign:
        return setting.plus_port
    return setting.minus_port


def detect(arrival_ps: float, port: int, channel: ChannelModel,
           detector: DetectorModel, state: dict, rng: np.random.Generator):
    """One detection attempt.  ``arrival_ps`` already includes any time-bin
    offset; this applies loss thinning, channel delay, jitter, and the
    per-channel dead time (``state`` maps port -> last kept time).

    Calls must be made in nondecreasing arrival order per port.  Returns a
    TimeTag or None.
    """
    if rng.random() >= channel.transmittance * detector.efficiency:
        return None
    t = arrival_ps + channel.delay_ps
    if detector.jitter_fwhm_ps > 0:
        t += rng.normal(0.0, detector.jitter_sigma_ps)
    t = int(round(t))
    if t < 0:
        return None
    last = state.get(port)
    if last is not None and t - last < detector.dead_time_ps:
        return None
    state[port] = t
    return TimeTag(channel=port, time_ps=t)


def simulate_clicks(source: SourceModel, alice: Station, bob: Station,
                    duration_s: float, rng: np.random.Generator):
    """One emission at a time, without dark counts or phase drift.

    Each pair is routed by :func:`sample_pair_outcome`, wired to a port by
    :func:`port_for`, and each photon gets one
    :func:`detect` attempt.  Returns ``(pairs, alice_ports, bob_ports,
    joint)``: the number of emissions, the port of every click of each
    party, and the (alice port, bob port) of every emission that both
    parties recorded.
    """
    phase = source.reference_phase
    times = generate_pair_times(source, duration_s, rng)
    state_a, state_b = {}, {}
    alice_ports, bob_ports, joint = [], [], []
    for t in times:
        a_part, b_part, _ = sample_pair_outcome(phase, alice, bob, rng)
        a_idx, x, a_bin = a_part
        tag_a = detect(t + a_bin * BIN_SEPARATION_PS,
                       port_for(alice.settings[a_idx], x),
                       alice.channel, alice.detector, state_a, rng)
        tag_b = None
        if b_part is not None:
            b_idx, y, b_bin = b_part
            tag_b = detect(t + b_bin * BIN_SEPARATION_PS,
                           port_for(bob.settings[b_idx], y),
                           bob.channel, bob.detector, state_b, rng)
        if tag_a is not None:
            alice_ports.append(tag_a.channel)
        if tag_b is not None:
            bob_ports.append(tag_b.channel)
        if tag_a is not None and tag_b is not None:
            joint.append((tag_a.channel, tag_b.channel))
    return times.shape[0], alice_ports, bob_ports, joint


def read_ports(station: Station, ports) -> tuple[np.ndarray, np.ndarray]:
    """(setting index, +-1 outcome) of each click on ``ports``: the
    setting whose port it is, and the outcome :func:`port_for` wires to
    that port.  A port off the station reads setting -1, outcome 0."""
    setting = np.full(256, -1, dtype=np.int8)
    outcome = np.zeros(256, dtype=np.int8)
    for index, s in enumerate(station.settings):
        for x in (1, -1):
            setting[port_for(s, x)] = index
            outcome[port_for(s, x)] = x
    ports = np.asarray(ports, dtype=np.uint8)
    return setting[ports], outcome[ports]


# ---------------------------------------------------------------------------
# whole-array reference of one party's singles, sort and dead time
# ---------------------------------------------------------------------------

def poisson_stream_ps(rng, rate_hz, duration_ps):
    """Poisson arrival times in [0, duration) ps, float64, from parts of
    one whole exponential draw each; a later part adds the last arrival
    before it after its cumsum."""
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


def dead_time_keep(times, ports, channel_ids, dead_ps):
    """The per-channel dead-time keep-mask, one boolean-mask pass per
    channel through ``oracle_kernels.dead_time_filter``."""
    keep = np.ones(times.shape[0], dtype=bool)
    for ch in channel_ids:
        sel = ports == ch
        keep[sel] = dead_time_filter(times[sel], np.int64(dead_ps))
    return keep


class PartyAccumulator:
    """One party's click batches, float64 times and uint8 ports."""

    def __init__(self):
        self.times, self.ports = [], []

    def add(self, times, ports):
        self.times.append(np.asarray(times, dtype=np.float64))
        self.ports.append(np.asarray(ports, dtype=np.uint8))


def emit_singles(acc, station, rng, rate_hz, duration_ps):
    """One Poisson stream of singles shifted by the channel delay, then one
    whole uniform draw for their ports, added to ``acc`` as one batch."""
    share = {"polarizer": 0.5, "time": 0.5, "interference": 0.25}
    shares = np.array([split * share[mode]
                       for split, mode in zip(station.splitting, station.modes)
                       for _ in range(2)])
    times = poisson_stream_ps(rng, rate_hz * shares.sum(), duration_ps)
    n = times.shape[0]
    if n == 0:
        return
    times += station.channel.delay_ps
    r = rng.random(n)
    key = np.zeros(n, dtype=np.int8)
    for edge in np.cumsum(shares / shares.sum())[:-1]:
        key += r >= edge
    acc.add(times, np.array(station.channel_ids, np.uint8)[key])


def sort_clicks(acc):
    """(times, ports) of the concatenated batches in time-major,
    port-minor order."""
    times = (np.concatenate([np.rint(t) for t in acc.times]).astype(np.int64)
             if acc.times else np.empty(0, np.int64))
    ports = np.concatenate(acc.ports) if acc.ports else np.empty(0, np.uint8)
    ok = times >= 0
    times, ports = times[ok], ports[ok]
    if times.size and times.max() >= 2**55:
        raise ValueError("tag times of 2**55 ps or more overflow the sort key")
    order = np.lexsort((ports, times))
    return times[order], ports[order]


def party_stream(acc, station, rng, singles_hz, party, duration_ps):
    """What ``optics._party_stream`` returns, from whole arrays: the
    singles, the sort and the dead time."""
    emit_singles(acc, station, rng, singles_hz, duration_ps)
    times, ports = sort_clicks(acc)
    keep = dead_time_keep(times, ports, station.channel_ids,
                          station.detector.dead_time_ps)
    return TagStream(party=party, duration_ps=duration_ps,
                     channels=ports[keep], times=times[keep])
