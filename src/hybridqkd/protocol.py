"""Two-party post-processing protocol over a classical channel.

Alice and Bob each hold a time-tag stream from their own detectors and
nothing else.  The classical flow reconstructs everything either side needs
for key sifting and the security test while disclosing as little as
possible:

1. ``hello`` (Alice -> Bob): session parameters; Bob checks they match his.
2. ``tag_announce`` (Bob -> Alice, chunked): Bob's tag times plus a label
   per tag that names his basis, and the port only within the test basis.
   Outcomes in the key basis are never announced.
3. ``basis_reveal`` (Alice -> Bob, chunked): Alice estimates the clock
   delay, matches coincidences against Bob's times, and reveals per pair
   the Bob tag index, the pair's role (key / test / discard), her setting,
   and — for test pairs only — her outcome bit.
4. ``sample_request`` (Alice -> Bob): the key positions she chose to
   sacrifice for error estimation, with her bits at those positions.  In
   offline mode this is every position.
5. ``sample_reveal`` (Bob -> Alice): Bob's outcome bits for the test pairs
   that landed in his key basis (in pair order) and his key bits at the
   sampled positions.
6. ``report`` (Alice -> Bob): the canonical report CSV bytes.  Bob
   recomputes the report from the same shared data, verifies it
   byte-for-byte, and echoes it back as his acknowledgement; any mismatch
   or malformed message is answered with ``abort`` instead.

The wire format is a length-prefixed binary framing (big-endian
throughout): a 4-byte frame length covering a 1-byte message type, an
8-byte strictly increasing per-direction sequence number, and the payload.
Frames above the size limit are rejected before the payload is read.

Endpoints are sequential state machines communicating only via a
transport (an ordered reliable byte stream); an in-process queue pair and
a TCP socket implement the same interface and produce identical bytes.
"""

from __future__ import annotations

import math
import queue
import socket
import struct
import threading
from dataclasses import dataclass, field, replace

import numpy as np

from . import tags
from .optics import TagStream
from .quantum import security_quantities

__all__ = [
    "ProtocolError",
    "ProtocolViolation",
    "SessionAbort",
    "InsufficientKeyError",
    "SessionParams",
    "Endpoint",
    "SiftedKey",
    "BlockReport",
    "SecurityReport",
    "SessionOutcome",
    "alice_endpoint",
    "bob_endpoint",
    "sift",
    "sample_positions",
    "estimate_qber",
    "build_report",
    "report_csv",
    "frame_message",
    "parse_frame",
    "InProcessTransport",
    "transport_pair",
    "TcpTransport",
    "AliceSession",
    "BobSession",
    "run_session",
    "PS_PER_SECOND",
]

PS_PER_SECOND = 10**12

MAX_FRAME_BYTES = 32 * 1024 * 1024
TAG_CHUNK = 1 << 19
PAIR_CHUNK = 1 << 19

# message types
MSG_HELLO = 1
MSG_TAG_ANNOUNCE = 2
MSG_BASIS_REVEAL = 3
MSG_SAMPLE_REQUEST = 4
MSG_SAMPLE_REVEAL = 5
MSG_REPORT = 6
MSG_ABORT = 7

_MESSAGE_NAMES = {
    MSG_HELLO: "hello",
    MSG_TAG_ANNOUNCE: "tag_announce",
    MSG_BASIS_REVEAL: "basis_reveal",
    MSG_SAMPLE_REQUEST: "sample_request",
    MSG_SAMPLE_REVEAL: "sample_reveal",
    MSG_REPORT: "report",
    MSG_ABORT: "abort",
}

# pair roles in basis_reveal
ROLE_KEY = 0
ROLE_TEST = 1
ROLE_DISCARD = 2

# Bob announce labels: key basis hides the port, test basis names it
LABEL_KEY_BASIS = 0
LABEL_TEST_PLUS = 1
LABEL_TEST_MINUS = 2

OUTCOME_HIDDEN = 255

# the settings each role's channels can name; a setting's index on the
# wire and in ``Endpoint.channel_setting`` is its position here
_SETTINGS = {"alice": ("a0", "a1", "a2"), "bob": ("b0", "b1")}
UNMAPPED = 255  # ``Endpoint.channel_setting`` of a channel with no setting

_HELLO = struct.Struct(">QQQdBd")
_FRAME_HEAD = struct.Struct(">IBQ")

QBER_SAMPLE = 0
QBER_OFFLINE = 1
_QBER_MODES = {"sample": QBER_SAMPLE, "offline": QBER_OFFLINE}


class ProtocolError(RuntimeError):
    """Base class for protocol-level failures."""


class ProtocolViolation(ProtocolError):
    """The peer sent a malformed, out-of-order, or oversized message."""


class SessionAbort(ProtocolError):
    """The session ended before a verified report was exchanged.

    ``peer_stopped`` marks an abort that only follows from the peer
    stopping first: its close, its abort message, or a reset connection.
    ``run_session`` sets ``party`` to the side whose failure came first and
    ``peer_error`` to the other side's error, if it failed too.
    """

    def __init__(self, reason: str, partial_report=None, *,
                 peer_stopped: bool = False):
        super().__init__(reason)
        self.reason = reason
        self.partial_report = partial_report
        self.peer_stopped = peer_stopped
        self.party = None
        self.peer_error = None


class InsufficientKeyError(ValueError):
    """Key too short for the requested sampling fraction."""


# ---------------------------------------------------------------------------
# session parameters and endpoints
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SessionParams:
    """Parameters both parties must agree on before post-processing."""

    duration_ps: int
    window_ps: int = 64
    block_ps: int = 10 * PS_PER_SECOND
    sample_fraction: float = 0.1
    qber_mode: str = "sample"
    abort_sigma: float = 0.0
    sample_seed: int = 0

    def __post_init__(self):
        if self.duration_ps <= 0:
            raise ValueError("duration_ps must be positive")
        if self.window_ps < 1:
            raise ValueError("window_ps must be >= 1")
        if self.block_ps < 1:
            raise ValueError("block_ps must be >= 1")
        if not 0.0 < self.sample_fraction <= 0.5:
            raise ValueError("sample_fraction must be in (0, 0.5]")
        if self.qber_mode not in _QBER_MODES:
            raise ValueError("qber_mode must be 'sample' or 'offline'")
        if self.abort_sigma < 0.0:
            raise ValueError("abort_sigma must be >= 0")

    @property
    def n_blocks(self) -> int:
        """Accumulation blocks in the session; the last may be shorter."""
        return max(1, -(-self.duration_ps // self.block_ps))


@dataclass(frozen=True)
class Endpoint:
    """One party's static view of the session.

    ``setting_map`` names the measurement setting behind each of the
    party's detector channels; ``outcome_bit`` gives the bit value each
    channel encodes (0 for the analyzer's + port, 1 for the - port, with
    any flipped analyzer's sign convention already folded in, so equal
    bits always mean a +1 outcome product).  ``channel_setting`` and
    ``channel_bit`` are the two maps as tables indexed by channel id, with
    ``UNMAPPED`` as the setting of a channel the endpoint does not map.
    """

    role: str
    setting_map: dict
    outcome_bit: dict
    params: SessionParams
    channel_setting: np.ndarray = field(init=False, repr=False,
                                        compare=False)
    channel_bit: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.role not in _SETTINGS:
            raise ValueError("role must be 'alice' or 'bob'")
        if set(self.setting_map) != set(self.outcome_bit):
            raise ValueError("setting_map and outcome_bit must cover the "
                             "same detector channels")
        if not self.setting_map:
            raise ValueError("endpoint must map at least one channel")
        names = _SETTINGS[self.role]
        setting = np.full(256, UNMAPPED, dtype=np.uint8)
        bit = np.zeros(256, dtype=np.uint8)
        for channel, name in self.setting_map.items():
            if name not in names:
                raise ValueError(f"{self.role} has no setting {name!r}")
            setting[channel] = names.index(name)
            bit[channel] = self.outcome_bit[channel]
        object.__setattr__(self, "channel_setting", setting)
        object.__setattr__(self, "channel_bit", bit)


def alice_endpoint(params: SessionParams) -> Endpoint:
    """Alice's six channels: the key setting a2 on 1/2, test settings a0
    on 3/4 and a1 on 5/6 (a1's analyzer is wired with swapped ports, so
    its + port is channel 6)."""
    return Endpoint(
        role="alice",
        setting_map={1: "a2", 2: "a2", 3: "a0", 4: "a0", 5: "a1", 6: "a1"},
        outcome_bit={1: 0, 2: 1, 3: 0, 4: 1, 5: 1, 6: 0},
        params=params,
    )


def bob_endpoint(params: SessionParams) -> Endpoint:
    """Bob's four channels: the key basis b0 on 1/2, the test basis b1 on
    3/4."""
    return Endpoint(
        role="bob",
        setting_map={1: "b0", 2: "b0", 3: "b1", 4: "b1"},
        outcome_bit={1: 0, 2: 1, 3: 0, 4: 1},
        params=params,
    )


# ---------------------------------------------------------------------------
# sifting and error estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SiftedKey:
    """One block's worth of key bits with the pair ids they came from."""

    bits: np.ndarray
    pair_ids: np.ndarray
    block_id: int

    def __len__(self):
        return int(self.bits.shape[0])


def sift(alice_channels, bob_basis_labels, alice_ep: Endpoint):
    """Assign every matched pair exactly one role.

    ``alice_channels`` are Alice's detector channels per pair;
    ``bob_basis_labels`` are Bob's announced labels (key basis or the two
    test-basis ports).  Key pairs are (a2, key basis); the four
    combinations of {a0, a1} x {key basis, test basis} are CHSH test
    pairs; (a2, test basis) is discarded.  Returns a role array.
    """
    alice_channels = np.asarray(alice_channels)
    bob_basis_labels = np.asarray(bob_basis_labels)
    if alice_channels.shape != bob_basis_labels.shape:
        raise ValueError("per-pair arrays must have equal length")
    return _roles(alice_ep.channel_setting[alice_channels], bob_basis_labels)


def _roles(alice_setting, bob_label):
    """The sifting rule on Alice's setting indices and Bob's labels."""
    roles = np.full(alice_setting.shape[0], ROLE_DISCARD, dtype=np.uint8)
    roles[(alice_setting == 2) & (bob_label == LABEL_KEY_BASIS)] = ROLE_KEY
    roles[alice_setting < 2] = ROLE_TEST
    return roles


def sample_positions(length: int, fraction: float, rng) -> np.ndarray:
    """The sorted key positions to sacrifice for error estimation."""
    if not 0.0 < fraction <= 0.5:
        raise ValueError("fraction must be in (0, 0.5]")
    if length < math.ceil(1.0 / fraction):
        raise InsufficientKeyError(
            f"key of {length} bits cannot support a sampling fraction "
            f"of {fraction}")
    n = max(1, int(length * fraction))
    return np.sort(rng.choice(length, size=n, replace=False))


def estimate_qber(alice_key: SiftedKey, bob_key: SiftedKey,
                  sample_fraction: float, rng):
    """Publicly compare a random sample of key bits and remove it.

    Returns ``(qber, (alice_remaining, bob_remaining))``; the sampled
    positions are excluded from both remaining keys.
    """
    if len(alice_key) != len(bob_key):
        raise ValueError("keys must have equal length")
    positions = sample_positions(len(alice_key), sample_fraction, rng)
    mism = int((alice_key.bits[positions] != bob_key.bits[positions]).sum())
    qber = mism / positions.size
    keep = np.ones(len(alice_key), dtype=bool)
    keep[positions] = False
    out = tuple(replace(k, bits=k.bits[keep], pair_ids=k.pair_ids[keep])
                for k in (alice_key, bob_key))
    return qber, out


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

AGGREGATE_BLOCK_ID = -1


@dataclass(frozen=True)
class BlockReport:
    block_id: int
    s: float
    s_err: float
    qber: float
    raw_bits: int
    raw_bps: float
    i_ab: float
    i_eve: float
    secure_fraction: float
    secure_bps: float
    verdict: str


@dataclass(frozen=True)
class SecurityReport:
    """Per-block rows plus one aggregate row over the whole session."""

    blocks: tuple
    aggregate: BlockReport

    @property
    def verdict(self) -> str:
        return self.aggregate.verdict

    def abort_block(self):
        """Index of the first block whose verdict is abort, or None."""
        for row in self.blocks:
            if row.verdict == "abort":
                return row.block_id
        return None


def build_report(block_id: int, s: float, s_err: float, qber: float,
                 raw_bits: int, duration_s: float,
                 abort_sigma: float = 0.0) -> BlockReport:
    """Security accounting for one accumulation block.

    The secure rate is the raw rate scaled by the secure fraction from
    the mutual-information balance; the verdict is abort when the CHSH
    value (minus ``abort_sigma`` standard errors) fails to beat the
    classical limit of 2 or when no positive key fraction remains.
    """
    q = security_quantities(s, qber)
    raw_bps = raw_bits / duration_s if duration_s > 0 else 0.0
    secure_bps = raw_bps * q.secure_fraction
    accept = (s - abort_sigma * s_err > 2.0) and q.secure_fraction > 0.0
    return BlockReport(block_id=block_id, s=s, s_err=s_err, qber=qber,
                       raw_bits=raw_bits, raw_bps=raw_bps, i_ab=q.i_ab,
                       i_eve=q.i_eve, secure_fraction=q.secure_fraction,
                       secure_bps=secure_bps,
                       verdict="accept" if accept else "abort")


_CSV_HEADER = ("block_id,S,S_err,qber,raw_bits,raw_bps,i_ab,i_eve,"
               "secure_fraction,secure_bps,verdict")


def _csv_row(row: BlockReport) -> str:
    return ",".join([
        str(row.block_id),
        "%.10g" % row.s,
        "%.10g" % row.s_err,
        "%.10g" % row.qber,
        str(row.raw_bits),
        "%.10g" % row.raw_bps,
        "%.10g" % row.i_ab,
        "%.10g" % row.i_eve,
        "%.10g" % row.secure_fraction,
        "%.10g" % row.secure_bps,
        row.verdict,
    ])


def report_csv(report: SecurityReport) -> str:
    """Canonical CSV rendering; both parties must produce identical bytes."""
    lines = [_CSV_HEADER]
    lines.extend(_csv_row(r) for r in report.blocks)
    lines.append(_csv_row(report.aggregate))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------

def frame_message(msg_type: int, seq: int, payload: bytes) -> bytes:
    """4-byte length (type + sequence + payload), type, sequence, payload."""
    if msg_type not in _MESSAGE_NAMES:
        raise ValueError(f"unknown message type {msg_type}")
    length = 1 + 8 + len(payload)
    if length > MAX_FRAME_BYTES:
        raise ValueError(f"frame of {length} bytes exceeds the "
                         f"{MAX_FRAME_BYTES}-byte limit")
    return _FRAME_HEAD.pack(length, msg_type, seq) + payload


def _frame_length(data) -> int:
    """The declared length of the frame that ``data`` starts with, checked
    before any of the frame past the length prefix is read."""
    if len(data) < 4:
        raise ProtocolViolation("truncated frame: missing length prefix")
    length = int.from_bytes(data[:4], "big")
    if length > MAX_FRAME_BYTES:
        raise ProtocolViolation(f"declared frame length {length} exceeds "
                                f"the {MAX_FRAME_BYTES}-byte limit")
    if length < 9:
        raise ProtocolViolation("declared frame length too small for the "
                                "type and sequence fields")
    return length


def parse_frame(data: bytes):
    """Parse one complete frame; returns (type, seq, payload, bytes used)."""
    length = _frame_length(data)
    if len(data) < 4 + length:
        raise ProtocolViolation("truncated frame: incomplete payload")
    msg_type = data[4]
    if msg_type not in _MESSAGE_NAMES:
        raise ProtocolViolation(f"unknown message type {msg_type}")
    seq = int.from_bytes(data[5:13], "big")
    return msg_type, seq, data[13:4 + length], 4 + length


# ---------------------------------------------------------------------------
# transports
# ---------------------------------------------------------------------------

class InProcessTransport:
    """One side of an ordered, reliable in-process byte pipe.

    A receive waits until the peer sends or closes its end, however long
    the peer computes: each session closes its end when it stops, so the
    close sentinel, not a clock, tells a stopped peer from a slow one.
    ``timeout`` is how often a silent receive checks that the thread using
    the peer's end still runs (None: never); a peer thread that ended
    without closing is reported as a ``ConnectionError``.
    """

    def __init__(self, inbox: queue.Queue, outbox: queue.Queue,
                 timeout: float | None = None):
        self._inbox = inbox
        self._outbox = outbox
        self._timeout = timeout
        self._buffer = bytearray()
        self._closed = False
        self._peer_closed = False
        self._peer = None
        self._user = None  # the thread that last used this end

    def sendall(self, data: bytes):
        self._user = threading.current_thread()
        if self._closed:
            raise ConnectionError("transport is closed")
        self._outbox.put(bytes(data))

    def recv(self, max_bytes: int) -> bytes:
        self._user = threading.current_thread()
        if not self._buffer:
            if self._peer_closed:
                return b""
            chunk = self._next_chunk()
            if chunk is None:
                self._peer_closed = True
                return b""
            self._buffer.extend(chunk)
        out = bytes(self._buffer[:max_bytes])
        del self._buffer[:max_bytes]
        return out

    def _next_chunk(self):
        while True:
            try:
                return self._inbox.get(timeout=self._timeout)
            except queue.Empty:
                peer_thread = self._peer._user if self._peer else None
                if peer_thread is None or peer_thread.is_alive():
                    continue
            try:  # whatever the peer sent before its thread ended
                return self._inbox.get_nowait()
            except queue.Empty:
                raise ConnectionError("peer thread ended without closing "
                                      "the transport") from None

    def close(self):
        if not self._closed:
            self._closed = True
            self._outbox.put(None)


def transport_pair(timeout: float | None = None):
    """A connected pair of in-process transports; ``timeout`` as for
    ``InProcessTransport``."""
    q_ab: queue.Queue = queue.Queue()
    q_ba: queue.Queue = queue.Queue()
    alice = InProcessTransport(q_ba, q_ab, timeout)
    bob = InProcessTransport(q_ab, q_ba, timeout)
    alice._peer, bob._peer = bob, alice
    return alice, bob


class TcpTransport:
    """A connected TCP socket with the same interface.

    ``timeout`` is the longest a receive waits for the peer's next bytes
    (None: until the peer sends or closes); over a socket, silence is all
    that can be seen of a remote peer.
    """

    def __init__(self, sock: socket.socket, timeout: float | None = None):
        self._sock = sock
        self._sock.settimeout(timeout)

    @classmethod
    def listen(cls, host: str = "127.0.0.1", port: int = 0):
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind((host, port))
        server.listen(1)
        return server, server.getsockname()[1]

    @classmethod
    def accept(cls, server: socket.socket, timeout: float | None = None):
        server.settimeout(timeout)
        sock, _ = server.accept()
        return cls(sock, timeout)

    @classmethod
    def connect(cls, host: str, port: int, timeout: float | None = None):
        sock = socket.create_connection((host, port), timeout=timeout)
        return cls(sock, timeout)

    def sendall(self, data: bytes):
        self._sock.sendall(data)

    def recv(self, max_bytes: int) -> bytes:
        return self._sock.recv(max_bytes)

    def close(self):
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


class MessageChannel:
    """Framing plus per-direction sequence validation over a transport."""

    def __init__(self, transport):
        self._transport = transport
        self._send_seq = 0
        self._recv_seq = 0
        self._buffer = bytearray()

    def send(self, msg_type: int, payload: bytes = b""):
        frame = frame_message(msg_type, self._send_seq, payload)
        self._send_seq += 1
        try:
            self._transport.sendall(frame)
        except OSError as exc:
            raise SessionAbort(f"transport failure while sending "
                               f"{_MESSAGE_NAMES[msg_type]}: {exc}",
                               peer_stopped=isinstance(exc, ConnectionError))

    def _fill(self, needed: int):
        while len(self._buffer) < needed:
            try:
                chunk = self._transport.recv(65536)
            except OSError as exc:
                raise SessionAbort(f"transport failure while receiving: {exc}",
                                   peer_stopped=isinstance(exc,
                                                           ConnectionError))
            if not chunk:
                raise SessionAbort("transport closed mid-session",
                                   peer_stopped=True)
            self._buffer.extend(chunk)

    def recv(self, expected_type: int):
        self._fill(4)
        self._fill(4 + _frame_length(self._buffer))
        # parse in place and copy only the payload out of the buffer
        with memoryview(self._buffer) as frame:
            msg_type, seq, payload, used = parse_frame(frame)
            payload = bytes(payload)
        del self._buffer[:used]
        if seq != self._recv_seq:
            raise ProtocolViolation(
                f"out-of-order message: expected sequence {self._recv_seq}, "
                f"got {seq}")
        self._recv_seq += 1
        if msg_type == MSG_ABORT:
            raise SessionAbort("peer aborted: " +
                               payload.decode("utf-8", "replace"),
                               peer_stopped=True)
        if msg_type != expected_type:
            raise ProtocolViolation(
                f"expected {_MESSAGE_NAMES[expected_type]}, got "
                f"{_MESSAGE_NAMES[msg_type]}")
        return payload

    def send_abort(self, reason: str):
        try:
            self.send(MSG_ABORT, reason.encode("utf-8"))
        except ProtocolError:
            pass

    def close(self):
        self._transport.close()


# ---------------------------------------------------------------------------
# payload encoding
# ---------------------------------------------------------------------------

def _encode_hello(p: SessionParams) -> bytes:
    return _HELLO.pack(p.duration_ps, p.window_ps, p.block_ps,
                       p.sample_fraction, _QBER_MODES[p.qber_mode],
                       p.abort_sigma)


def _decode_hello(payload: bytes) -> SessionParams:
    if len(payload) != _HELLO.size:
        raise ProtocolViolation("hello payload has the wrong size")
    duration, window, block, fraction, mode, sigma = _HELLO.unpack(payload)
    modes = {v: k for k, v in _QBER_MODES.items()}
    if mode not in modes:
        raise ProtocolViolation(f"unknown qber mode {mode}")
    try:
        return SessionParams(duration_ps=duration, window_ps=window,
                             block_ps=block, sample_fraction=fraction,
                             qber_mode=modes[mode], abort_sigma=sigma)
    except ValueError as exc:
        raise ProtocolViolation(f"invalid hello parameters: {exc}")


def _chunk_header(total: int, offset: int, n: int) -> bytes:
    return struct.pack(">QQI", total, offset, n)


def _read_chunk_header(payload: bytes):
    if len(payload) < 20:
        raise ProtocolViolation("chunk header truncated")
    return struct.unpack(">QQI", payload[:20])


def _encode_tag_chunk(times: np.ndarray, labels: np.ndarray, total: int,
                      offset: int) -> bytes:
    head = _chunk_header(total, offset, times.shape[0])
    return head + times.astype(">u8").tobytes() + labels.astype(
        np.uint8).tobytes()


def _decode_tag_chunk(payload: bytes):
    total, offset, n = _read_chunk_header(payload)
    if len(payload) != 20 + 9 * n:
        raise ProtocolViolation("tag chunk payload has the wrong size")
    times = np.frombuffer(payload, dtype=">u8", count=n,
                          offset=20).astype(np.int64)
    labels = np.frombuffer(payload, dtype=np.uint8, count=n, offset=20 + 8 * n)
    return total, offset, times, labels.copy()


def _encode_pair_chunk(bob_index, role, setting, outcome, total, offset):
    head = _chunk_header(total, offset, bob_index.shape[0])
    return (head + bob_index.astype(">u8").tobytes()
            + role.astype(np.uint8).tobytes()
            + setting.astype(np.uint8).tobytes()
            + outcome.astype(np.uint8).tobytes())


def _decode_pair_chunk(payload: bytes):
    total, offset, n = _read_chunk_header(payload)
    if len(payload) != 20 + 11 * n:
        raise ProtocolViolation("pair chunk payload has the wrong size")
    bob_index = np.frombuffer(payload, dtype=">u8", count=n,
                              offset=20).astype(np.int64)
    role = np.frombuffer(payload, dtype=np.uint8, count=n, offset=20 + 8 * n)
    setting = np.frombuffer(payload, dtype=np.uint8, count=n,
                            offset=20 + 9 * n)
    outcome = np.frombuffer(payload, dtype=np.uint8, count=n,
                            offset=20 + 10 * n)
    return total, offset, bob_index, role.copy(), setting.copy(), outcome.copy()


def _encode_sample_request(positions: np.ndarray, bits: np.ndarray) -> bytes:
    return (struct.pack(">Q", positions.shape[0])
            + positions.astype(">u8").tobytes()
            + bits.astype(np.uint8).tobytes())


def _decode_sample_request(payload: bytes):
    if len(payload) < 8:
        raise ProtocolViolation("sample request truncated")
    n, = struct.unpack(">Q", payload[:8])
    if len(payload) != 8 + 9 * n:
        raise ProtocolViolation("sample request payload has the wrong size")
    positions = np.frombuffer(payload, dtype=">u8", count=n,
                              offset=8).astype(np.int64)
    bits = np.frombuffer(payload, dtype=np.uint8, count=n, offset=8 + 8 * n)
    return positions, bits.copy()


def _encode_sample_reveal(test_bits: np.ndarray, key_bits: np.ndarray) -> bytes:
    return (struct.pack(">Q", test_bits.shape[0])
            + test_bits.astype(np.uint8).tobytes()
            + struct.pack(">Q", key_bits.shape[0])
            + key_bits.astype(np.uint8).tobytes())


def _decode_sample_reveal(payload: bytes):
    if len(payload) < 8:
        raise ProtocolViolation("sample reveal truncated")
    n_test, = struct.unpack(">Q", payload[:8])
    if len(payload) < 16 + n_test:
        raise ProtocolViolation("sample reveal payload has the wrong size")
    test_bits = np.frombuffer(payload, dtype=np.uint8, count=n_test, offset=8)
    n_key, = struct.unpack(">Q", payload[8 + n_test:16 + n_test])
    if len(payload) != 16 + n_test + n_key:
        raise ProtocolViolation("sample reveal payload has the wrong size")
    key_bits = np.frombuffer(payload, dtype=np.uint8, count=n_key,
                             offset=16 + n_test)
    return test_bits.copy(), key_bits.copy()


def _send_chunked(channel, msg_type, arrays, encode, chunk_size):
    total = arrays[0].shape[0]
    offset = 0
    while True:
        n = min(chunk_size, total - offset)
        parts = tuple(a[offset:offset + n] for a in arrays)
        channel.send(msg_type, encode(*parts, total, offset))
        offset += n
        if offset >= total:
            break


def _recv_chunked(channel, msg_type, decode):
    parts = []
    received = 0
    while True:
        fields = decode(channel.recv(msg_type))
        total, offset = fields[0], fields[1]
        arrays = fields[2:]
        if offset != received:
            raise ProtocolViolation(
                f"chunk offset {offset} does not match the {received} "
                f"entries received so far")
        parts.append(arrays)
        received += arrays[0].shape[0]
        if received > total:
            raise ProtocolViolation("chunks exceed the declared total")
        if received == total:
            break
        if not arrays[0].shape[0]:
            raise ProtocolViolation("empty chunk before the declared total")
    if not parts:
        return ()
    return tuple(np.concatenate([p[i] for p in parts])
                 for i in range(len(parts[0])))


# ---------------------------------------------------------------------------
# shared post-processing (both parties run this identically)
# ---------------------------------------------------------------------------

class _SharedComputation:
    """Everything both parties derive from the disclosed data.

    After ``sample_reveal`` the two sides hold identical copies of: the
    matched pair list with roles and settings, both outcome bits for
    every test pair, and the disclosed sample bits.  This object turns
    those into per-block CHSH values, QBER, key accounting, and the
    report, guaranteeing byte-identical results on both ends.
    """

    def __init__(self, params: SessionParams, pair_block: np.ndarray,
                 roles: np.ndarray, alice_setting: np.ndarray,
                 alice_test_bit: np.ndarray, bob_label: np.ndarray,
                 bob_test_bit: np.ndarray):
        self.params = params
        self.pair_block = pair_block
        # per pair, the CHSH term and the agreement of a test pair: 4 *
        # Alice's setting + 2 * (Bob measured in his test basis) + (the
        # two outcome bits agree); 8 and above for every other pair
        code = alice_setting.astype(np.intp) * 4
        code += 2 * (bob_label != LABEL_KEY_BASIS)
        code += alice_test_bit == bob_test_bit
        code[roles != ROLE_TEST] = 8
        self.chsh_code = code

    def block_ids(self):
        return range(self.params.n_blocks)

    def chsh_for_block(self, block_id: int):
        """CHSH value from the test pairs of one block (or all blocks
        for the aggregate when block_id is AGGREGATE_BLOCK_ID)."""
        code = self.chsh_code
        if block_id != AGGREGATE_BLOCK_ID:
            code = code[self.pair_block == block_id]
        counts = np.bincount(code, minlength=8)
        s = 0.0
        var = 0.0
        for a_idx in (0, 1):
            for b_idx in (0, 1):
                term = 4 * a_idx + 2 * b_idx
                same = int(counts[term + 1])
                n = int(counts[term]) + same
                if n == 0:
                    return 0.0, float("inf")
                e = (2 * same - n) / n
                sign = -1.0 if (a_idx, b_idx) == (1, 1) else 1.0
                s += sign * e
                var += 4.0 * same * (n - same) / n**3
        return s, math.sqrt(var)

    def report_for(self, alice_key_bits, bob_key_bits, key_block,
                   sampled_mask):
        """Per-block and aggregate security accounting.

        ``sampled_mask`` marks key positions disclosed during error
        estimation; in sample mode those bits are excluded from the raw
        count (they are destroyed by disclosure), in offline mode the
        comparison is diagnostic and the count keeps every bit.
        """
        p = self.params
        offline = p.qber_mode == "offline"

        def row(block_id, disclosed, key_bits, duration_ps):
            n_disc = int(disclosed.sum())
            if n_disc:
                mism = int((alice_key_bits[disclosed]
                            != bob_key_bits[disclosed]).sum())
                qber = mism / n_disc
            else:
                qber = float("nan")
            raw = key_bits - (0 if offline else n_disc)
            s, s_err = self.chsh_for_block(block_id)
            return build_report(block_id, s, s_err, qber, raw,
                                duration_ps / PS_PER_SECOND, p.abort_sigma)

        rows = []
        for block_id in self.block_ids():
            in_block = key_block == block_id
            start = block_id * p.block_ps
            rows.append(row(block_id, sampled_mask & in_block,
                            int(in_block.sum()),
                            min(p.block_ps, p.duration_ps - start)))
        aggregate = row(AGGREGATE_BLOCK_ID, sampled_mask,
                        alice_key_bits.shape[0], p.duration_ps)
        return SecurityReport(blocks=tuple(rows), aggregate=aggregate)


def _final_keys(bits, pair_ids, block, sampled_mask, params):
    """Assemble per-block SiftedKeys, excluding disclosed bits in sample
    mode and truncating at the first aborted block."""
    keep = ~sampled_mask if params.qber_mode == "sample" else np.ones(
        bits.shape[0], dtype=bool)
    keys = []
    for block_id in range(params.n_blocks):
        mask = keep & (block == block_id)
        keys.append(SiftedKey(bits=bits[mask].copy(),
                              pair_ids=pair_ids[mask].copy(),
                              block_id=block_id))
    return keys


# ---------------------------------------------------------------------------
# endpoint sessions
# ---------------------------------------------------------------------------

@dataclass
class SessionOutcome:
    """One party's view of a completed session."""

    keys: list
    report: SecurityReport
    report_bytes: bytes


def _refuse_unmapped(endpoint: Endpoint, stream: TagStream):
    """Refuse a stream with a tag on a channel ``endpoint`` does not map."""
    unmapped = endpoint.channel_setting[stream.channels] == UNMAPPED
    if unmapped.any():
        channel = stream.channels[unmapped.argmax()]
        raise ValueError(f"{endpoint.role}'s stream has a tag on channel "
                         f"{channel}, which the endpoint does not map")


class BobSession:
    """Bob's sequential state machine."""

    def __init__(self, endpoint: Endpoint, stream: TagStream):
        if endpoint.role != "bob":
            raise ValueError("BobSession needs a bob endpoint")
        _refuse_unmapped(endpoint, stream)
        self.endpoint = endpoint
        self.stream = stream

    def _labels(self) -> np.ndarray:
        # the key basis b0 hides the port, the test basis b1 names it
        table = self.endpoint.channel_bit + LABEL_TEST_PLUS
        table[self.endpoint.channel_setting == 0] = LABEL_KEY_BASIS
        return table[self.stream.channels]

    def run(self, transport) -> SessionOutcome:
        channel = MessageChannel(transport)
        try:
            return self._run(channel)
        except ProtocolViolation as exc:
            channel.send_abort(str(exc))
            raise SessionAbort(f"protocol violation: {exc}") from exc
        finally:
            channel.close()

    def _run(self, channel: MessageChannel) -> SessionOutcome:
        params = self.endpoint.params
        hello = _decode_hello(channel.recv(MSG_HELLO))
        if replace(hello, sample_seed=params.sample_seed) != params:
            raise ProtocolViolation("session parameters do not match")

        labels = self._labels()
        times = self.stream.times
        _send_chunked(channel, MSG_TAG_ANNOUNCE, (times, labels),
                      _encode_tag_chunk, TAG_CHUNK)

        bob_index, roles, alice_setting, alice_outcome = _recv_chunked(
            channel, MSG_BASIS_REVEAL, _decode_pair_chunk)
        if bob_index.size and (bob_index.min() < 0
                               or bob_index.max() >= len(self.stream)):
            raise ProtocolViolation("pair references an unknown tag index")
        # greedy pairs never cross, so Alice sends ascending indices
        if (bob_index[1:] <= bob_index[:-1]).any():
            raise ProtocolViolation("pair tag indices are not strictly "
                                    "increasing")
        if (alice_setting > 2).any():
            raise ProtocolViolation("pair setting out of range")
        if ((alice_outcome > 1) & (alice_outcome != OUTCOME_HIDDEN)).any():
            raise ProtocolViolation("pair outcome out of range")
        if bob_index.size:
            my_label = labels[bob_index]
            if not np.array_equal(_roles(alice_setting, my_label), roles):
                raise ProtocolViolation("pair roles do not follow the "
                                        "sifting rule")
            if ((roles == ROLE_TEST) & (alice_outcome == OUTCOME_HIDDEN)).any():
                raise ProtocolViolation("test pair without a disclosed "
                                        "outcome")
        else:
            my_label = np.empty(0, dtype=np.uint8)

        key_mask = roles == ROLE_KEY
        test_mask = roles == ROLE_TEST
        my_bits = self.endpoint.channel_bit[self.stream.channels[bob_index]]
        # test pairs measured in my key basis: disclose those outcomes
        reveal_mask = test_mask & (my_label == LABEL_KEY_BASIS)
        test_bits_to_send = my_bits[reveal_mask]

        positions, alice_sample_bits = _decode_sample_request(
            channel.recv(MSG_SAMPLE_REQUEST))
        key_count = int(key_mask.sum())
        if positions.size and (positions.min() < 0
                               or positions.max() >= key_count):
            raise ProtocolViolation("sample position out of range")
        if (positions[1:] <= positions[:-1]).any():
            raise ProtocolViolation("sample positions are not strictly "
                                    "increasing")
        if positions.size != alice_sample_bits.size:
            raise ProtocolViolation("sample bits do not match positions")
        if params.qber_mode == "offline":
            if positions.size != key_count:
                raise ProtocolViolation("offline mode must disclose every "
                                        "key position")
        elif key_count and positions.size > key_count * 0.5 + 1:
            raise ProtocolViolation("sample discloses more than half the key")
        my_key_bits = my_bits[key_mask]
        channel.send(MSG_SAMPLE_REVEAL,
                     _encode_sample_reveal(test_bits_to_send,
                                           my_key_bits[positions]))

        # reconstruct the shared view and verify Alice's report
        alice_key_bits = np.full(key_count, OUTCOME_HIDDEN, dtype=np.uint8)
        alice_key_bits[positions] = alice_sample_bits
        keys, report, csv_bytes = _assemble(
            params, self.stream.times[bob_index], roles, alice_setting,
            alice_outcome, my_label, reveal_mask,
            test_bits_to_send, positions, alice_key_bits, my_key_bits,
            party="bob")

        their_csv = channel.recv(MSG_REPORT)
        if their_csv != csv_bytes:
            channel.send_abort("report verification failed")
            raise SessionAbort("report verification failed: peer bytes "
                               "differ from the locally recomputed report",
                               partial_report=report)
        channel.send(MSG_REPORT, csv_bytes)
        return SessionOutcome(keys=keys, report=report,
                              report_bytes=csv_bytes)


class AliceSession:
    """Alice's sequential state machine."""

    def __init__(self, endpoint: Endpoint, stream: TagStream):
        if endpoint.role != "alice":
            raise ValueError("AliceSession needs an alice endpoint")
        _refuse_unmapped(endpoint, stream)
        self.endpoint = endpoint
        self.stream = stream

    def run(self, transport) -> SessionOutcome:
        channel = MessageChannel(transport)
        try:
            return self._run(channel)
        except ProtocolViolation as exc:
            channel.send_abort(str(exc))
            raise SessionAbort(f"protocol violation: {exc}") from exc
        except (tags.InsufficientDataError, tags.NoCorrelationError) as exc:
            channel.send_abort(f"coincidence search failed: {exc}")
            raise SessionAbort(f"coincidence search failed: {exc}") from exc
        finally:
            channel.close()

    def _run(self, channel: MessageChannel) -> SessionOutcome:
        params = self.endpoint.params
        channel.send(MSG_HELLO, _encode_hello(params))
        bob_times, bob_labels = _recv_chunked(channel, MSG_TAG_ANNOUNCE,
                                              _decode_tag_chunk)
        # a wire time of 2**63 or more decodes negative
        if (bob_times < 0).any():
            raise ProtocolViolation("announced tag time out of range")
        if (bob_times[1:] < bob_times[:-1]).any():
            raise ProtocolViolation("announced tag times are not in "
                                    "ascending order")
        if (bob_labels > LABEL_TEST_MINUS).any():
            raise ProtocolViolation("announced tag label out of range")

        delay = tags.estimate_delay(self.stream.times, bob_times).delay_ps
        ai, bi = tags.match_coincidences(self.stream.times, bob_times,
                                         params.window_ps, delay)
        my_channels = self.stream.channels[ai]
        my_label = bob_labels[bi]
        roles = sift(my_channels, my_label, self.endpoint)
        setting_idx = self.endpoint.channel_setting[my_channels]
        my_bits = self.endpoint.channel_bit[my_channels]
        outcome = np.where(roles == ROLE_TEST, my_bits,
                           OUTCOME_HIDDEN).astype(np.uint8)

        _send_chunked(channel, MSG_BASIS_REVEAL,
                      (bi.astype(np.int64), roles, setting_idx, outcome),
                      _encode_pair_chunk, PAIR_CHUNK)

        key_mask = roles == ROLE_KEY
        my_key_bits = my_bits[key_mask]
        key_count = int(key_mask.sum())
        rng = np.random.default_rng(params.sample_seed)
        if params.qber_mode == "offline":
            positions = np.arange(key_count, dtype=np.int64)
        elif key_count:
            try:
                positions = sample_positions(key_count,
                                             params.sample_fraction, rng)
            except InsufficientKeyError:
                positions = np.empty(0, dtype=np.int64)
        else:
            positions = np.empty(0, dtype=np.int64)
        channel.send(MSG_SAMPLE_REQUEST,
                     _encode_sample_request(positions,
                                            my_key_bits[positions]))

        bob_test_bits, bob_sample_bits = _decode_sample_reveal(
            channel.recv(MSG_SAMPLE_REVEAL))
        reveal_mask = (roles == ROLE_TEST) & (my_label == LABEL_KEY_BASIS)
        if bob_test_bits.shape[0] != int(reveal_mask.sum()):
            raise ProtocolViolation("peer revealed the wrong number of "
                                    "test outcomes")
        if bob_sample_bits.shape[0] != positions.shape[0]:
            raise ProtocolViolation("peer revealed the wrong number of "
                                    "sample bits")

        bob_key_bits = np.full(key_count, OUTCOME_HIDDEN, dtype=np.uint8)
        bob_key_bits[positions] = bob_sample_bits
        keys, report, csv_bytes = _assemble(
            params, bob_times[bi], roles, setting_idx, outcome, my_label,
            reveal_mask, bob_test_bits, positions, my_key_bits,
            bob_key_bits, party="alice")

        channel.send(MSG_REPORT, csv_bytes)
        echo = channel.recv(MSG_REPORT)
        if echo != csv_bytes:
            raise SessionAbort("peer acknowledged a different report",
                               partial_report=report)
        return SessionOutcome(keys=keys, report=report,
                              report_bytes=csv_bytes)


def _assemble(params, pair_times, roles, alice_setting, alice_outcome,
              bob_label, reveal_mask, revealed_test_bits,
              positions, alice_key_bits, bob_key_bits, party):
    """Build the final keys and the report for one party.

    ``alice_key_bits`` / ``bob_key_bits`` hold the key-position bits each
    side knows (its own in full; the peer's only at disclosed positions).
    The report only ever reads disclosed positions, so both parties
    compute identical bytes.
    """
    # Bob's outcome bit for every test pair: announced by the label for
    # his test basis, disclosed in sample_reveal for his key basis
    bob_test_bit = np.zeros(roles.shape[0], dtype=np.uint8)
    bob_test_bit[bob_label == LABEL_TEST_MINUS] = 1
    bob_test_bit[reveal_mask] = revealed_test_bits

    # blocks are cut on Bob's clock (the only per-pair time both sides
    # share); tags pushed past the declared span by the channel delay
    # fold into the last block
    pair_block = np.minimum(pair_times // params.block_ps,
                            params.n_blocks - 1).astype(np.int64)
    shared = _SharedComputation(
        params=params, pair_block=pair_block, roles=roles,
        alice_setting=alice_setting, alice_test_bit=alice_outcome,
        bob_label=bob_label, bob_test_bit=bob_test_bit)

    key_mask = roles == ROLE_KEY
    key_block = pair_block[key_mask]
    key_count = int(key_mask.sum())
    sampled_mask = np.zeros(key_count, dtype=bool)
    sampled_mask[positions] = True
    report = shared.report_for(alice_key_bits, bob_key_bits, key_block,
                               sampled_mask)
    csv_bytes = report_csv(report).encode("ascii")

    own_bits = alice_key_bits if party == "alice" else bob_key_bits
    pair_ids = np.flatnonzero(key_mask)
    keys = _final_keys(own_bits, pair_ids, key_block, sampled_mask, params)
    abort_block = report.abort_block()
    if abort_block is not None:
        keys = [k for k in keys if k.block_id < abort_block]
    return keys, report, csv_bytes


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------

def run_session(alice: Endpoint, bob: Endpoint, alice_tags: TagStream,
                bob_tags: TagStream, transport: str = "in-process",
                timeout: float | None = None):
    """Run both endpoints to completion and return their outcomes.

    ``transport`` selects "in-process" (queue pair) or "tcp" (loopback
    socket); the bytes on the wire and the resulting reports are
    identical.  Returns (alice outcome, bob outcome); both contain the
    byte-identical verified report.

    A party waits for its peer however long the peer computes: each party
    closes its end when it stops, and that close is how the other learns
    it stopped.  ``timeout`` (seconds, None for none) is passed to the
    transports: over TCP it is the longest a receive waits for the peer's
    next bytes; in process it is only how often a waiting party checks
    that the peer's thread still runs.

    If either party fails, the failure that came first is raised: the one
    that is not a consequence of the peer stopping.  Its ``party`` names
    the side, its ``peer_error`` holds the other side's error, if any,
    and a ``SessionAbort`` says the side in its message too.
    """
    if transport == "in-process":
        t_alice, t_bob = transport_pair(timeout)
    elif transport == "tcp":
        server, port = TcpTransport.listen()
        with server:
            # the listen backlog completes the connection before accept
            t_alice = TcpTransport.connect("127.0.0.1", port, timeout)
            try:
                t_bob = TcpTransport.accept(server, timeout)
            except BaseException:
                t_alice.close()
                raise
    else:
        raise ValueError("transport must be 'in-process' or 'tcp'")

    outcomes = {}
    failures = []  # (party, error), in the order they were caught

    def play(party, session_type, endpoint, stream, end):
        try:
            outcomes[party] = session_type(endpoint, stream).run(end)
        except BaseException as exc:  # noqa: BLE001 - raised below
            failures.append((party, exc))
        finally:
            end.close()  # also when the session could not even start

    thread = threading.Thread(target=play, name="bob-endpoint", daemon=True,
                              args=("bob", BobSession, bob, bob_tags, t_bob))
    thread.start()
    play("alice", AliceSession, alice, alice_tags, t_alice)
    thread.join()  # ends: Alice's end is closed, so Bob cannot wait forever

    if failures:
        causes = [f for f in failures
                  if not getattr(f[1], "peer_stopped", False)]
        party, exc = (causes or failures)[0]
        peer_error = next((e for p, e in failures if p != party), None)
        if isinstance(exc, SessionAbort):
            error = SessionAbort(f"{party}: {exc.reason}",
                                 exc.partial_report,
                                 peer_stopped=exc.peer_stopped)
            error.party, error.peer_error = party, peer_error
            raise error from exc
        exc.party, exc.peer_error = party, peer_error
        if hasattr(exc, "add_note"):  # Python 3.11+
            exc.add_note(f"raised by {party}")
        raise exc
    return outcomes["alice"], outcomes["bob"]
