"""Two-party post-processing protocol over a classical channel.

Alice and Bob each hold a time-tag stream from their own detectors and
nothing else.  The classical flow reconstructs everything either side needs
for key sifting and the security test while disclosing as little as
possible:

1. ``hello`` (Alice -> Bob): session parameters; Bob checks they match his.
   Layout and checks: ``_SCHEMA[MSG_HELLO]``.
2. ``tag_announce`` (Bob -> Alice, chunked): Bob's tag times plus a label
   per tag that names his basis, and the port only within the test basis.
   Outcomes in the key basis are never announced.
   Layout and checks: ``_SCHEMA[MSG_TAG_ANNOUNCE]``.
3. ``basis_reveal`` (Alice -> Bob, chunked): Alice estimates the clock
   delay, matches coincidences against Bob's times, and reveals per pair
   the Bob tag index, the pair's role (key / test / discard), her setting,
   and — for test pairs only — her outcome bit.
   Layout and checks: ``_SCHEMA[MSG_BASIS_REVEAL]``.
4. ``sample_request`` (Alice -> Bob): the key positions she chose to
   sacrifice for error estimation, with her bits at those positions.  In
   offline mode this is every position.
   Layout and checks: ``_SCHEMA[MSG_SAMPLE_REQUEST]``.
5. ``sample_reveal`` (Bob -> Alice): Bob's outcome bits for the test pairs
   that landed in his key basis (in pair order) and his key bits at the
   sampled positions.
   Layout and checks: ``_SCHEMA[MSG_SAMPLE_REVEAL]``.
6. ``report`` (Alice -> Bob): the canonical report CSV bytes.  Bob
   recomputes the report from the same shared data, verifies it
   byte-for-byte, and echoes it back as his acknowledgement; any mismatch
   or malformed message is answered with ``abort`` instead.

The wire format is a length-prefixed binary framing (big-endian
throughout): a 4-byte frame length covering a 1-byte message type, an
8-byte strictly increasing per-direction sequence number, and the payload.
Frames above the size limit are rejected before the payload is read.

Each party reads its analyzer wiring from ``tags.WIRING[party]``: two
tables indexed by detector channel, built once when ``tags`` is
imported, the setting behind each channel (its index in
``tags.SETTINGS``, which is also its wire value) and the bit it encodes.
The two sessions are sequential state machines communicating only via a
transport (an ordered reliable byte stream); an in-process queue pair
and a TCP socket implement the same interface and produce identical
bytes.
"""

from __future__ import annotations

import math
import queue
import socket
import struct
import threading
from dataclasses import astuple, dataclass

import numpy as np

from . import tags
from .optics import PS_PER_SECOND, TagStream
from .quantum import security_quantities

__all__ = [
    "ProtocolError",
    "ProtocolViolation",
    "SessionAbort",
    "InsufficientKeyError",
    "SessionParams",
    "SiftedKey",
    "BlockReport",
    "SecurityReport",
    "SessionOutcome",
    "sample_positions",
    "build_report",
    "report_csv",
    "frame_message",
    "InProcessTransport",
    "transport_pair",
    "TcpTransport",
    "AliceSession",
    "BobSession",
    "run_session",
    "PS_PER_SECOND",
]

MAX_FRAME_BYTES = 32 * 1024 * 1024
PS_LIMIT = 2**63  # picosecond parameters are int64 here and u8 on the wire
_TCP_READ = 1 << 16  # the bytes each socket read asks for
CHUNK_ROWS = 1 << 19  # rows a chunk of a chunked message carries

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

_FRAME_HEAD = struct.Struct(">IBQ")

_QBER_MODES = ("sample", "offline")  # a mode's index is its wire value


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
# session parameters
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
        for name in ("duration_ps", "window_ps", "block_ps"):
            if getattr(self, name) >= PS_LIMIT:
                raise ValueError(f"{name} must be below 2**63")
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


def _roles(alice_setting, bob_label):
    """The sifting rule on Alice's setting indices and Bob's labels: a2
    with Bob's key basis is key, a0 and a1 test CHSH, the rest is
    discarded."""
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


def report_csv(report: SecurityReport) -> str:
    """Canonical CSV rendering; both parties must produce identical bytes."""
    rows = (*report.blocks, report.aggregate)
    return tags.csv_text(_CSV_HEADER, map(astuple, rows))


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
    """The declared length in a frame's 4-byte prefix ``data``, checked
    before any of the frame past the prefix is read."""
    length = int.from_bytes(data, "big")
    if length > MAX_FRAME_BYTES:
        raise ProtocolViolation(f"declared frame length {length} exceeds "
                                f"the {MAX_FRAME_BYTES}-byte limit")
    if length < 9:
        raise ProtocolViolation("declared frame length too small for the "
                                "type and sequence fields")
    return length


def _frame_body(body):
    """(type, sequence, payload) of the frame bytes past the length."""
    msg_type = body[0]
    if msg_type not in _MESSAGE_NAMES:
        raise ProtocolViolation(f"unknown message type {msg_type}")
    return msg_type, int.from_bytes(body[1:9], "big"), body[9:]


# ---------------------------------------------------------------------------
# transports
# ---------------------------------------------------------------------------

class _ReadAhead:
    """The received bytes a transport has not yet returned, handed out
    without a copy: the piece itself when all of it fits, else a
    read-only view of its next part."""

    _pending = None  # the received bytes not yet returned
    _offset = 0

    def _take(self, max_bytes: int):
        data, at = self._pending, self._offset
        if at == 0 and len(data) <= max_bytes:
            self._pending = None
            return data
        out = memoryview(data)[at:at + max_bytes]
        self._offset = at + len(out)
        if self._offset == len(data):
            self._pending = None
        return out


class InProcessTransport(_ReadAhead):
    """One side of an ordered, reliable in-process byte pipe.

    A receive waits until the peer sends or closes its end, however long
    the peer computes: each session closes its end when it stops, so the
    close sentinel, not a clock, tells a stopped peer from a slow one.
    ``timeout`` is how often a silent receive checks that the thread using
    the peer's end still runs (None: never); a peer thread that ended
    without closing is reported as a ``ConnectionError``.

    The bytes of each send are passed on as they are (``_ReadAhead``), so
    a frame reaches the peer without a copy.
    """

    def __init__(self, inbox: queue.Queue, outbox: queue.Queue,
                 timeout: float | None = None):
        self._inbox = inbox
        self._outbox = outbox
        self._timeout = timeout
        self._closed = False
        self._peer_closed = False
        self._peer = None
        self._user = None  # the thread that last used this end

    def sendall(self, data: bytes):
        self._user = threading.current_thread()
        if self._closed:
            raise ConnectionError("transport is closed")
        self._outbox.put(bytes(data))

    def recv(self, max_bytes: int):
        """At most ``max_bytes`` of the received bytes, as a bytes-like
        object; ``b""`` once the peer has closed."""
        self._user = threading.current_thread()
        while not self._pending:
            if self._peer_closed:
                return b""
            self._pending, self._offset = self._next_chunk(), 0
            if self._pending is None:
                self._peer_closed = True
                return b""
        return self._take(max_bytes)

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


class TcpTransport(_ReadAhead):
    """A connected TCP socket with the same interface.

    ``timeout`` is the longest a receive waits for the peer's next bytes
    (None: until the peer sends or closes); over a socket, silence is all
    that can be seen of a remote peer.  Each socket read asks for
    ``_TCP_READ`` bytes whatever a receive wants, so one read can carry
    several small frames (``_ReadAhead``).
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

    def recv(self, max_bytes: int):
        if not self._pending:
            self._pending, self._offset = self._sock.recv(_TCP_READ), 0
            if not self._pending:
                return b""
        return self._take(max_bytes)

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

    def send(self, msg_type: int, payload: bytes = b""):
        frame = frame_message(msg_type, self._send_seq, payload)
        self._send_seq += 1
        try:
            self._transport.sendall(frame)
        except OSError as exc:
            raise SessionAbort(f"transport failure while sending "
                               f"{_MESSAGE_NAMES[msg_type]}: {exc}",
                               peer_stopped=isinstance(exc, ConnectionError))

    def _read(self, size: int):
        """The next ``size`` bytes: the transport's piece itself when one
        piece holds them all, as an in-process frame does, else the
        pieces joined."""
        parts = []
        while size:
            try:
                chunk = self._transport.recv(size)
            except OSError as exc:
                raise SessionAbort(f"transport failure while receiving: {exc}",
                                   peer_stopped=isinstance(exc,
                                                           ConnectionError))
            if not chunk:
                raise SessionAbort("transport closed mid-session",
                                   peer_stopped=True)
            parts.append(chunk)
            size -= len(chunk)
        return parts[0] if len(parts) == 1 else b"".join(parts)

    def recv(self, expected_type: int):
        """The payload of the next message, which must be of
        ``expected_type``, as a read-only bytes-like view."""
        body = memoryview(self._read(_frame_length(self._read(4))))
        msg_type, seq, payload = _frame_body(body)
        if seq != self._recv_seq:
            raise ProtocolViolation(
                f"out-of-order message: expected sequence {self._recv_seq}, "
                f"got {seq}")
        self._recv_seq += 1
        if msg_type == MSG_ABORT:
            raise SessionAbort("peer aborted: " +
                               bytes(payload).decode("utf-8", "replace"),
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
# payload schema
# ---------------------------------------------------------------------------

_CHUNK_HEAD = struct.Struct(">QQ")  # total rows, the chunk's first row
_ROWS = struct.Struct(">Q")
_NATIVE = {">u8": np.int64, "u1": np.uint8}  # the decoded dtypes

# per message: a struct of head fields, then the layout of the rest: a
# struct holds the row count of the columns after it, and each column,
# (name, wire dtype, *(check, reason)), lies whole after the one before;
# a column's range check comes before its order check
_SCHEMA = {
    MSG_HELLO: (struct.Struct(">QQQdBd"), ()),
    MSG_TAG_ANNOUNCE: (_CHUNK_HEAD, (
        struct.Struct(">I"),
        ("time", ">u8", ("non-negative", "announced tag time out of range"),
         ("ascending", "announced tag times are not in ascending order")),
        ("label", "u1", (range(LABEL_TEST_MINUS + 1),
                         "announced tag label out of range")))),
    MSG_BASIS_REVEAL: (_CHUNK_HEAD, (
        struct.Struct(">I"),
        # greedy pairs never cross, so Alice sends ascending indices
        ("tag_index", ">u8",
         ("non-negative", "pair references an unknown tag index"),
         ("increasing", "pair tag indices are not strictly increasing")),
        ("role", "u1"),  # Bob checks it against the sifting rule
        ("setting", "u1", (range(3), "pair setting out of range")),
        ("outcome", "u1", ((0, 1, OUTCOME_HIDDEN),
                           "pair outcome out of range")))),
    MSG_SAMPLE_REQUEST: (struct.Struct(""), (
        _ROWS,
        ("position", ">u8", ("non-negative", "sample position out of range"),
         ("increasing", "sample positions are not strictly increasing")),
        ("bit", "u1", (range(2), "sample bit out of range")))),
    MSG_SAMPLE_REVEAL: (struct.Struct(""), (
        _ROWS,
        ("test_bit", "u1", (range(2), "revealed test outcome out of range")),
        _ROWS,
        ("key_bit", "u1", (range(2), "revealed sample bit out of range")))),
}


def _fails(check, column) -> bool:
    """Whether ``column`` fails ``check``: "non-negative", "ascending",
    "increasing", a ``range`` of values or a tuple of values."""
    if isinstance(check, range):
        return (column >= check.stop).any()  # a u1 column has no negatives
    if isinstance(check, tuple):
        return np.isin(column, check, invert=True).any()
    if check == "non-negative":
        return (column < 0).any()  # wire values of 2**63 and up
    if check == "ascending":
        return (column[1:] < column[:-1]).any()
    return (column[1:] <= column[:-1]).any()


def _hello_fields(p: SessionParams) -> tuple:
    """The head of a hello: every parameter but the sample seed."""
    return (p.duration_ps, p.window_ps, p.block_ps, p.sample_fraction,
            _QBER_MODES.index(p.qber_mode), p.abort_sigma)


def _encode(msg_type: int, columns, head=()) -> bytes:
    """A message's payload from its head fields and its columns."""
    head_struct, layout = _SCHEMA[msg_type]
    parts = [head_struct.pack(*head)]
    columns = list(columns)
    for item in layout:
        if isinstance(item, struct.Struct):
            parts.append(item.pack(len(columns[0])))
        else:
            parts.append(np.ascontiguousarray(columns.pop(0), item[1]))
    return b"".join(parts)


def _decode(msg_type: int, payload: bytes):
    """A payload's head fields and its columns as views on the payload."""
    head_struct, layout = _SCHEMA[msg_type]
    try:
        head = head_struct.unpack_from(payload)
        at, columns = head_struct.size, []
        for item in layout:
            if isinstance(item, struct.Struct):
                rows, = item.unpack_from(payload, at)
                at += item.size
            else:
                columns.append(np.frombuffer(payload, item[1], rows, at))
                at += columns[-1].nbytes
    except (struct.error, ValueError, OverflowError):  # past the end
        at = None
    if at != len(payload):
        raise ProtocolViolation(f"{_MESSAGE_NAMES[msg_type]} payload has "
                                f"the wrong size")
    return head, columns


def _send(channel, msg_type: int, *columns, head=()):
    """Send one message; a chunked one goes ``CHUNK_ROWS`` rows a chunk."""
    if _SCHEMA[msg_type][0] is not _CHUNK_HEAD:
        channel.send(msg_type, _encode(msg_type, columns, head))
        return
    total = columns[0].shape[0]
    for offset in range(0, max(total, 1), CHUNK_ROWS):
        channel.send(msg_type, _encode(
            msg_type, [c[offset:offset + CHUNK_ROWS] for c in columns],
            (total, offset)))


def _receive(channel, msg_type: int):
    """Receive one message: its head fields and its checked columns.  A
    chunked one is decoded a chunk at a time into arrays of the declared
    total, and the checks run once on the whole arrays."""
    head_struct, layout = _SCHEMA[msg_type]
    specs = [item for item in layout if not isinstance(item, struct.Struct)]
    head, columns = _decode(msg_type, channel.recv(msg_type))
    if head_struct is not _CHUNK_HEAD:
        columns = [c.astype(_NATIVE[s[1]]) for c, s in zip(columns, specs)]
    else:
        total, received = head[0], 0
        try:
            whole = [np.empty(total, _NATIVE[s[1]]) for s in specs]
        except (MemoryError, ValueError):
            raise ProtocolViolation(f"declared total of {total} entries is "
                                    f"too large") from None
        while True:
            rows = columns[0].shape[0]
            if head[0] != total:
                raise ProtocolViolation(f"chunk declares a total of "
                                        f"{head[0]} entries after {total}")
            if head[1] != received:
                raise ProtocolViolation(
                    f"chunk offset {head[1]} does not match the {received} "
                    f"entries received so far")
            if received + rows > total:
                raise ProtocolViolation("chunks exceed the declared total")
            if not rows and received < total:
                raise ProtocolViolation("empty chunk before the declared "
                                        "total")
            for part, column in zip(whole, columns):
                part[received:received + rows] = column
            received += rows
            if received == total:
                break
            head, columns = _decode(msg_type, channel.recv(msg_type))
        columns = whole
    for (_name, _dtype, *checks), column in zip(specs, columns):
        for check, reason in checks:
            if _fails(check, column):
                raise ProtocolViolation(reason)
    return head, columns


# ---------------------------------------------------------------------------
# the two parties' sessions
# ---------------------------------------------------------------------------

@dataclass
class SessionOutcome:
    """One party's view of a completed session."""

    keys: list
    report: SecurityReport
    report_bytes: bytes


class _Session:
    """One party's sequential state machine: ``role`` names the party, and
    ``setting`` and ``bit`` are its wiring tables, ``tags.WIRING[role]``."""

    role = ""

    def __init__(self, params: SessionParams, stream: TagStream):
        self.setting, self.bit = tags.WIRING[self.role]
        # refuse a stream with a tag on a channel the wiring does not map:
        # deleting the mapped channels' bytes leaves the unmapped tags'
        # channels, in stream order, without an index as long as the stream
        mapped = np.flatnonzero(self.setting != tags.UNMAPPED)
        unmapped = stream.channels.tobytes().translate(
            None, mapped.astype(np.uint8).tobytes())
        if unmapped:
            raise ValueError(f"{self.role}'s stream has a tag on channel "
                             f"{unmapped[0]}, which the endpoint does not map")
        self.params = params
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


class BobSession(_Session):
    """Bob's sequential state machine."""

    role = "bob"

    def _labels(self) -> np.ndarray:
        # the key basis b0 hides the port, the test basis b1 names it
        table = self.bit + LABEL_TEST_PLUS
        table[self.setting == 0] = LABEL_KEY_BASIS
        # a byte table maps the uint8 channels without an intp index
        return np.frombuffer(self.stream.channels.tobytes().translate(
            table.tobytes()), dtype=np.uint8)

    def _run(self, channel: MessageChannel) -> SessionOutcome:
        params = self.params
        head, _ = _receive(channel, MSG_HELLO)
        if head != _hello_fields(params):
            raise ProtocolViolation("session parameters do not match")

        labels = self._labels()
        _send(channel, MSG_TAG_ANNOUNCE, self.stream.times, labels)

        _, (bob_index, roles, alice_setting, alice_outcome) = _receive(
            channel, MSG_BASIS_REVEAL)
        if bob_index.size and bob_index[-1] >= len(self.stream):
            raise ProtocolViolation("pair references an unknown tag index")
        my_label = labels[bob_index]
        if not np.array_equal(_roles(alice_setting, my_label), roles):
            raise ProtocolViolation("pair roles do not follow the sifting "
                                    "rule")
        if ((roles == ROLE_TEST) & (alice_outcome == OUTCOME_HIDDEN)).any():
            raise ProtocolViolation("test pair without a disclosed outcome")

        key_mask = roles == ROLE_KEY
        my_bits = self.bit[self.stream.channels[bob_index]]
        # test pairs measured in my key basis: disclose those outcomes
        reveal_mask = (roles == ROLE_TEST) & (my_label == LABEL_KEY_BASIS)
        test_bits_to_send = my_bits[reveal_mask]

        _, (positions, alice_sample_bits) = _receive(channel,
                                                     MSG_SAMPLE_REQUEST)
        key_count = int(key_mask.sum())
        if positions.size and positions[-1] >= key_count:
            raise ProtocolViolation("sample position out of range")
        if params.qber_mode == "offline":
            if positions.size != key_count:
                raise ProtocolViolation("offline mode must disclose every "
                                        "key position")
        elif key_count and positions.size > key_count * 0.5 + 1:
            raise ProtocolViolation("sample discloses more than half the key")
        my_key_bits = my_bits[key_mask]
        my_sample_bits = my_key_bits[positions]
        _send(channel, MSG_SAMPLE_REVEAL, test_bits_to_send, my_sample_bits)

        # recompute the report from the shared view and verify Alice's
        keys, report, csv_bytes = _account(
            params, self.stream.times[bob_index], roles, alice_setting,
            alice_outcome, my_label, reveal_mask, test_bits_to_send,
            positions, alice_sample_bits != my_sample_bits, my_key_bits)

        their_csv = channel.recv(MSG_REPORT)
        if their_csv != csv_bytes:
            channel.send_abort("report verification failed")
            raise SessionAbort("report verification failed: peer bytes "
                               "differ from the locally recomputed report",
                               partial_report=report)
        channel.send(MSG_REPORT, csv_bytes)
        return SessionOutcome(keys=keys, report=report,
                              report_bytes=csv_bytes)


class AliceSession(_Session):
    """Alice's sequential state machine."""

    role = "alice"

    def _run(self, channel: MessageChannel) -> SessionOutcome:
        params = self.params
        _send(channel, MSG_HELLO, head=_hello_fields(params))
        _, (bob_times, bob_labels) = _receive(channel, MSG_TAG_ANNOUNCE)

        _, ((ai, bi),) = tags.find_coincidences(self.stream.times, bob_times,
                                                [params.window_ps])
        my_channels = self.stream.channels[ai]
        my_label = bob_labels[bi]
        setting_idx = self.setting[my_channels]
        roles = _roles(setting_idx, my_label)
        my_bits = self.bit[my_channels]
        outcome = np.where(roles == ROLE_TEST, my_bits,
                           OUTCOME_HIDDEN).astype(np.uint8)

        _send(channel, MSG_BASIS_REVEAL, bi, roles, setting_idx, outcome)

        key_mask = roles == ROLE_KEY
        my_key_bits = my_bits[key_mask]
        key_count = int(key_mask.sum())
        if params.qber_mode == "offline":
            positions = np.arange(key_count, dtype=np.int64)
        else:
            try:
                positions = sample_positions(
                    key_count, params.sample_fraction,
                    np.random.default_rng(params.sample_seed))
            except InsufficientKeyError:  # also when there is no key
                positions = np.empty(0, dtype=np.int64)
        my_sample_bits = my_key_bits[positions]
        _send(channel, MSG_SAMPLE_REQUEST, positions, my_sample_bits)
        _, (bob_test_bits, bob_sample_bits) = _receive(channel,
                                                       MSG_SAMPLE_REVEAL)
        reveal_mask = (roles == ROLE_TEST) & (my_label == LABEL_KEY_BASIS)
        if bob_test_bits.shape[0] != int(reveal_mask.sum()):
            raise ProtocolViolation("peer revealed the wrong number of "
                                    "test outcomes")
        if bob_sample_bits.shape[0] != positions.shape[0]:
            raise ProtocolViolation("peer revealed the wrong number of "
                                    "sample bits")

        keys, report, csv_bytes = _account(
            params, bob_times[bi], roles, setting_idx, outcome, my_label,
            reveal_mask, bob_test_bits, positions,
            my_sample_bits != bob_sample_bits, my_key_bits)

        channel.send(MSG_REPORT, csv_bytes)
        echo = channel.recv(MSG_REPORT)
        if echo != csv_bytes:
            raise SessionAbort("peer acknowledged a different report",
                               partial_report=report)
        return SessionOutcome(keys=keys, report=report,
                              report_bytes=csv_bytes)


def _account(params, pair_times, roles, alice_setting, alice_outcome,
             bob_label, reveal_mask, revealed_test_bits, positions,
             mismatch, own_key_bits):
    """One party's final keys, report and report bytes, from the data both
    parties share after ``sample_reveal``, so both compute identical bytes.

    ``pair_times`` are the pairs' times on Bob's clock, the only per-pair
    time both sides hold.  They ascend: Bob's tag indices strictly
    increase, and his tag times ascend.  So one search of the block edges
    cuts the pairs, the key and the disclosed positions into per-block
    slices.  Pairs pushed past the declared span by the channel delay fold
    into the last block.  ``positions`` are the disclosed key positions
    and ``mismatch`` whether the two parties' bits differ at each; the
    report reads no other key bit.  ``own_key_bits`` is the caller's key.
    """
    # Bob's outcome bit for every test pair: announced by the label for
    # his test basis, disclosed in sample_reveal for his key basis
    bob_test_bit = (bob_label == LABEL_TEST_MINUS).astype(np.uint8)
    bob_test_bit[reveal_mask] = revealed_test_bits
    # per pair, its place in tags.fold's terms: 4 * Alice's setting + 2 *
    # (Bob measured in his test basis) + (the two outcome bits agree); 8,
    # outside the CHSH terms, for every other pair
    code = alice_setting.astype(np.intp) * 4
    code += 2 * (bob_label != LABEL_KEY_BASIS)
    code += alice_outcome == bob_test_bit
    code[roles != ROLE_TEST] = 8
    key_ids = np.flatnonzero(roles == ROLE_KEY)

    # the first pair, key position and disclosed position of each block,
    # then the ends of the last block, which holds every later pair
    n_blocks = params.n_blocks
    pair_cut = np.append(np.searchsorted(
        pair_times, np.arange(n_blocks) * params.block_ps), roles.shape[0])
    key_cut = np.searchsorted(key_ids, pair_cut)
    disclosed_cut = np.searchsorted(positions, key_cut)
    offline = params.qber_mode == "offline"

    def row(block_id, pairs, n_keys, disclosed, duration_ps):
        terms = np.bincount(code[pairs], minlength=12).reshape(3, 2, 2)
        try:
            chsh = tags.estimate(terms)["S"]
            s, s_err = chsh.value, chsh.std_error
        except tags.InsufficientStatisticsError:  # a CHSH term is empty
            s, s_err = 0.0, float("inf")
        compared = mismatch[disclosed]
        n_disc = compared.shape[0]
        qber = int(compared.sum()) / n_disc if n_disc else float("nan")
        # disclosed bits leave the key in sample mode; in offline mode the
        # comparison is diagnostic and the count keeps every bit
        raw = n_keys - (0 if offline else n_disc)
        return build_report(block_id, s, s_err, qber, raw,
                            duration_ps / PS_PER_SECOND, params.abort_sigma)

    p, k, d = pair_cut.tolist(), key_cut.tolist(), disclosed_cut.tolist()
    rows = tuple(
        row(b, slice(p[b], p[b + 1]), k[b + 1] - k[b],
            slice(d[b], d[b + 1]),
            min(params.block_ps, params.duration_ps - b * params.block_ps))
        for b in range(n_blocks))
    report = SecurityReport(blocks=rows, aggregate=row(
        AGGREGATE_BLOCK_ID, slice(None), key_ids.shape[0], slice(None),
        params.duration_ps))

    # per-block keys, without the disclosed bits in sample mode, up to the
    # first aborted block
    keep = np.ones(key_ids.shape[0], dtype=bool)
    if not offline:
        keep[positions] = False
    abort_block = report.abort_block()
    keys = []
    for b in range(n_blocks if abort_block is None else abort_block):
        block = slice(k[b], k[b + 1])
        kept = keep[block]
        keys.append(SiftedKey(bits=own_key_bits[block][kept],
                              pair_ids=key_ids[block][kept], block_id=b))
    return keys, report, report_csv(report).encode("ascii")


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------

def run_session(alice_params: SessionParams, bob_params: SessionParams,
                alice_tags: TagStream, bob_tags: TagStream,
                transport: str = "in-process",
                timeout: float | None = None):
    """Run both parties' sessions to completion and return their outcomes.
    Each party holds its own parameters; Bob refuses a hello whose
    parameters differ from his.

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

    def play(party, session_type, params, stream, end):
        try:
            outcomes[party] = session_type(params, stream).run(end)
        except BaseException as exc:  # noqa: BLE001 - raised below
            failures.append((party, exc))
        finally:
            end.close()  # also when the session could not even start

    thread = threading.Thread(target=play, name="bob-endpoint", daemon=True,
                              args=("bob", BobSession, bob_params, bob_tags,
                                    t_bob))
    thread.start()
    play("alice", AliceSession, alice_params, alice_tags, t_alice)
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
