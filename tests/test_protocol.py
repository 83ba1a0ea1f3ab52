"""Tests for the two-party post-processing protocol."""

import math
import threading
import time

import numpy as np
import pytest

from hybridqkd import protocol, quantum, tags
from hybridqkd.optics import (
    ChannelModel,
    DetectorModel,
    DriftModel,
    SourceModel,
    TagStream,
    alice_station,
    bob_station,
    simulate_session,
)
from hybridqkd.protocol import (
    AGGREGATE_BLOCK_ID,
    LABEL_KEY_BASIS,
    LABEL_TEST_MINUS,
    LABEL_TEST_PLUS,
    MAX_FRAME_BYTES,
    MSG_ABORT,
    MSG_HELLO,
    ROLE_DISCARD,
    ROLE_KEY,
    ROLE_TEST,
    Endpoint,
    InsufficientKeyError,
    ProtocolViolation,
    SecurityReport,
    SessionAbort,
    SessionParams,
    SiftedKey,
    alice_endpoint,
    bob_endpoint,
    build_report,
    estimate_qber,
    frame_message,
    parse_frame,
    report_csv,
    run_session,
    sample_positions,
    sift,
    transport_pair,
)

PS = protocol.PS_PER_SECOND


def simulate(rate=200_000.0, duration=10.0, delay=350_000, seed=7,
             phase=math.pi, drift=None):
    src = SourceModel(pair_rate_hz=rate, reference_phase=phase)
    det = DetectorModel(efficiency=1.0, jitter_fwhm_ps=0.0,
                        dark_rate_hz=0.0, dead_time_ps=0)
    a = alice_station(ChannelModel(1.0, 0), det)
    b = bob_station(ChannelModel(1.0, delay), det)
    return simulate_session(src, drift or DriftModel(), a, b, duration,
                            seed=seed)


def params_for(duration=10.0, **kwargs):
    return SessionParams(duration_ps=int(duration * PS), **kwargs)


class TestEndpoints:
    def test_maps_must_cover_same_channels(self):
        p = params_for()
        with pytest.raises(ValueError):
            Endpoint(role="alice", setting_map={1: "a2"},
                     outcome_bit={1: 0, 2: 1}, params=p)

    def test_sample_fraction_bounds(self):
        with pytest.raises(ValueError):
            params_for(sample_fraction=0.0)
        with pytest.raises(ValueError):
            params_for(sample_fraction=0.6)
        params_for(sample_fraction=0.5)

    def test_standard_endpoints(self):
        p = params_for()
        a = alice_endpoint(p)
        b = bob_endpoint(p)
        assert set(a.setting_map) == {1, 2, 3, 4, 5, 6}
        assert set(b.setting_map) == {1, 2, 3, 4}
        # the flipped analyzer: channel 6 is the + port of a1
        assert a.outcome_bit[6] == 0 and a.outcome_bit[5] == 1
        assert a.setting_map[1] == "a2" and a.outcome_bit[1] == 0

    def test_channel_tables(self):
        p = params_for()
        a = alice_endpoint(p)
        assert a.channel_setting[1:7].tolist() == [2, 2, 0, 0, 1, 1]
        assert a.channel_bit[1:7].tolist() == [0, 1, 0, 1, 1, 0]
        unmapped = np.delete(np.arange(256), np.arange(1, 7))
        assert (a.channel_setting[unmapped] == protocol.UNMAPPED).all()
        assert bob_endpoint(p).channel_setting[1:5].tolist() == [0, 0, 1, 1]
        with pytest.raises(ValueError, match="bob has no setting 'a2'"):
            Endpoint(role="bob", setting_map={1: "a2"}, outcome_bit={1: 0},
                     params=p)


class TestSift:
    def test_key_pair(self):
        p = params_for()
        roles = sift(np.array([1]), np.array([LABEL_KEY_BASIS]),
                     alice_endpoint(p))
        assert roles[0] == ROLE_KEY

    def test_test_pair(self):
        p = params_for()
        roles = sift(np.array([3]), np.array([LABEL_TEST_PLUS]),
                     alice_endpoint(p))
        assert roles[0] == ROLE_TEST

    def test_discarded_pair(self):
        p = params_for()
        roles = sift(np.array([2]), np.array([LABEL_TEST_MINUS]),
                     alice_endpoint(p))
        assert roles[0] == ROLE_DISCARD

    def test_exhaustive_and_exclusive(self):
        rng = np.random.default_rng(8)
        p = params_for()
        ep = alice_endpoint(p)
        channels = rng.integers(1, 7, 5000).astype(np.uint8)
        labels = rng.integers(0, 3, 5000).astype(np.uint8)
        roles = sift(channels, labels, ep)
        assert set(np.unique(roles)) <= {ROLE_KEY, ROLE_TEST, ROLE_DISCARD}
        is_a2 = channels <= 2
        is_test_setting = channels >= 3
        bob_key = labels == LABEL_KEY_BASIS
        assert np.array_equal(roles == ROLE_KEY, is_a2 & bob_key)
        assert np.array_equal(roles == ROLE_TEST, is_test_setting)
        assert np.array_equal(roles == ROLE_DISCARD, is_a2 & ~bob_key)


class TestQberEstimation:
    def key(self, bits, block=0):
        bits = np.asarray(bits, dtype=np.uint8)
        return SiftedKey(bits=bits, pair_ids=np.arange(bits.size),
                         block_id=block)

    def test_identical_keys(self):
        rng = np.random.default_rng(9)
        bits = rng.integers(0, 2, 500)
        qber, (ka, kb) = estimate_qber(self.key(bits), self.key(bits),
                                       0.1, np.random.default_rng(1))
        assert qber == 0.0
        assert len(ka) == len(kb) == 450
        assert np.array_equal(ka.bits, kb.bits)

    def test_complementary_keys(self):
        bits = np.zeros(100, dtype=np.uint8)
        qber, _ = estimate_qber(self.key(bits), self.key(1 - bits),
                                0.2, np.random.default_rng(2))
        assert qber == 1.0

    def test_sampled_positions_removed(self):
        bits = np.arange(200) % 2
        rng = np.random.default_rng(3)
        positions = sample_positions(200, 0.25, np.random.default_rng(3))
        _, (ka, _) = estimate_qber(self.key(bits), self.key(bits), 0.25, rng)
        assert len(ka) == 200 - positions.size
        assert not np.isin(positions, ka.pair_ids).any()

    def test_key_too_short(self):
        with pytest.raises(InsufficientKeyError):
            estimate_qber(self.key([0, 1]), self.key([0, 1]), 0.1,
                          np.random.default_rng(4))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            estimate_qber(self.key([0, 1, 0]), self.key([0, 1]), 0.5,
                          np.random.default_rng(5))


class TestBuildReport:
    def test_ideal_block(self):
        row = build_report(0, 2 * math.sqrt(2), 0.0, 0.0, 1000, 1.0)
        assert row.verdict == "accept"
        assert row.secure_bps == pytest.approx(1000.0)
        assert row.i_ab == 1.0 and row.i_eve == pytest.approx(0.0)

    def test_classical_limit_aborts(self):
        row = build_report(0, 2.0, 0.0, 0.0, 1000, 1.0)
        assert row.verdict == "abort"
        assert row.secure_bps == 0.0

    def test_secure_rate_scales_with_fraction(self):
        row = build_report(0, 2.5, 0.01, 0.0371, 15_000, 10.0)
        q = quantum.security_quantities(2.5, 0.0371)
        assert row.raw_bps == pytest.approx(1500.0)
        assert row.secure_bps == pytest.approx(1500.0 * q.secure_fraction)

    def test_abort_sigma_margin(self):
        accept = build_report(0, 2.2, 0.03, 0.0, 1000, 1.0, abort_sigma=0.0)
        abort = build_report(0, 2.05, 0.03, 0.0, 1000, 1.0, abort_sigma=3.0)
        assert accept.verdict == "accept"
        assert abort.verdict == "abort"

    def test_csv_shape(self):
        rows = tuple(build_report(i, 2.7, 0.01, 0.02, 100, 1.0)
                     for i in range(2))
        agg = build_report(AGGREGATE_BLOCK_ID, 2.7, 0.007, 0.02, 200, 2.0)
        text = report_csv(SecurityReport(blocks=rows, aggregate=agg))
        lines = text.splitlines()
        assert lines[0].startswith("block_id,S,S_err,qber,raw_bits,raw_bps")
        assert len(lines) == 4
        assert lines[1].split(",")[0] == "0"
        assert lines[3].split(",")[0] == str(AGGREGATE_BLOCK_ID)
        assert lines[3].split(",")[-1] == "accept"


class TestFraming:
    def test_round_trip(self):
        for msg_type in range(1, 8):
            payload = bytes(range(msg_type * 7 % 40))
            frame = frame_message(msg_type, 3 * msg_type, payload)
            t, seq, p, used = parse_frame(frame)
            assert (t, seq, p, used) == (msg_type, 3 * msg_type, payload,
                                         len(frame))

    def test_truncated_frame(self):
        frame = frame_message(MSG_HELLO, 0, b"abcdef")
        for cut in (2, 8, len(frame) - 1):
            with pytest.raises(ProtocolViolation):
                parse_frame(frame[:cut])

    def test_oversized_declared_length_rejected_early(self):
        data = (MAX_FRAME_BYTES + 1).to_bytes(4, "big") + b"\x01"
        with pytest.raises(ProtocolViolation):
            parse_frame(data)

    def test_unknown_type(self):
        bad = frame_message(MSG_HELLO, 0, b"")
        bad = bad[:4] + b"\x63" + bad[5:]
        with pytest.raises(ProtocolViolation):
            parse_frame(bad)

    def test_frame_too_large_to_build(self):
        with pytest.raises(ValueError):
            frame_message(MSG_HELLO, 0, b"x" * MAX_FRAME_BYTES)

    def test_sequence_must_increase(self):
        ta, tb = transport_pair()
        ta.sendall(frame_message(MSG_HELLO, 0, b""))
        ta.sendall(frame_message(MSG_HELLO, 0, b""))
        chan = protocol.MessageChannel(tb)
        chan.recv(MSG_HELLO)
        with pytest.raises(ProtocolViolation):
            chan.recv(MSG_HELLO)

    @pytest.mark.parametrize("length, payload, reason", [
        (MAX_FRAME_BYTES + 1, b"",
         f"declared frame length {MAX_FRAME_BYTES + 1} exceeds the "
         f"{MAX_FRAME_BYTES}-byte limit"),
        (5, b"\x01" * 5,
         "declared frame length too small for the type and sequence fields"),
    ], ids=["oversized", "too-small"])
    def test_channel_refuses_declared_length(self, length, payload, reason):
        # refused from the length prefix alone: the sender closes without
        # sending the rest, which would end a wait for it as SessionAbort
        ta, tb = transport_pair()
        ta.sendall(length.to_bytes(4, "big") + payload)
        ta.close()
        with pytest.raises(ProtocolViolation) as info:
            protocol.MessageChannel(tb).recv(MSG_HELLO)
        assert str(info.value) == reason

    def test_abort_message_raises(self):
        ta, tb = transport_pair()
        ta.sendall(frame_message(MSG_ABORT, 0, "why not".encode()))
        with pytest.raises(SessionAbort, match="why not"):
            protocol.MessageChannel(tb).recv(MSG_HELLO)


class TestTransports:
    def test_in_process_round_trip(self):
        ta, tb = transport_pair()
        ta.sendall(b"hello")
        assert tb.recv(5) == b"hello"
        tb.sendall(b"world")
        assert ta.recv(3) == b"wor"
        assert ta.recv(10) == b"ld"

    def test_close_yields_eof(self):
        ta, tb = transport_pair()
        ta.close()
        assert tb.recv(10) == b""

    def test_send_after_close(self):
        ta, _ = transport_pair()
        ta.close()
        with pytest.raises(ConnectionError):
            ta.sendall(b"x")

    def test_slow_peer_outlives_timeout(self):
        ta, tb = transport_pair(timeout=0.05)

        def peer():
            tb.sendall(b"early")
            time.sleep(0.5)
            tb.sendall(b"late")

        thread = threading.Thread(target=peer)
        thread.start()
        assert ta.recv(10) == b"early"
        assert ta.recv(10) == b"late"
        thread.join(timeout=5.0)
        assert not thread.is_alive()

    def test_peer_thread_ending_without_close(self):
        ta, tb = transport_pair(timeout=0.05)
        thread = threading.Thread(target=tb.sendall, args=(b"last",))
        thread.start()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert ta.recv(10) == b"last"
        with pytest.raises(ConnectionError, match="ended without closing"):
            ta.recv(10)


class TestRunSession:
    def run_ideal(self, transport="in-process", qber_mode="sample",
                  seed=7, duration=10.0, phase=math.pi, sample_seed=11,
                  drift=None, rate=200_000.0):
        res = simulate(rate=rate, duration=duration, seed=seed, phase=phase,
                       drift=drift)
        p = params_for(duration=duration, qber_mode=qber_mode,
                       sample_seed=sample_seed)
        return run_session(alice_endpoint(p), bob_endpoint(p), res.alice,
                           res.bob, transport=transport)

    def test_ideal_session_accepts(self):
        alice, bob = self.run_ideal()
        report = alice.report
        assert report.verdict == "accept"
        assert report.aggregate.qber < 0.001
        agg = report.aggregate
        assert abs(agg.s - 2 * math.sqrt(2)) < 3 * agg.s_err
        assert agg.raw_bits > 100_000
        assert len(report.blocks) == 1
        assert alice.report_bytes == bob.report_bytes

    def test_keys_identical_without_impairments(self):
        # modest rate: leftover singles (partners of discarded tags) can
        # match each other accidentally at ~rate^2 * window, so the clean
        # regime is where that expectation is far below one
        alice, bob = self.run_ideal(rate=50_000.0, duration=5.0)
        assert len(alice.keys) == len(bob.keys) == 1
        ka, kb = alice.keys[0], bob.keys[0]
        assert len(ka) == len(kb) > 0
        assert np.array_equal(ka.bits, kb.bits)
        assert np.array_equal(ka.pair_ids, kb.pair_ids)
        assert set(np.unique(ka.bits)) == {0, 1}

    def test_s_killing_phase_aborts(self):
        alice, bob = self.run_ideal(phase=0.0, duration=4.0)
        assert alice.report.verdict == "abort"
        assert alice.report.aggregate.secure_bps == 0.0
        assert bob.report.verdict == "abort"
        assert alice.keys == [] and bob.keys == []

    def test_transport_equivalence(self):
        in_proc, _ = self.run_ideal(transport="in-process", duration=4.0)
        over_tcp, _ = self.run_ideal(transport="tcp", duration=4.0)
        assert in_proc.report_bytes == over_tcp.report_bytes

    def test_sampled_bits_never_in_final_key(self):
        sampled_run, _ = self.run_ideal(duration=4.0)
        offline_run, _ = self.run_ideal(duration=4.0, qber_mode="offline")
        all_ids = offline_run.keys[0].pair_ids
        kept_ids = sampled_run.keys[0].pair_ids
        positions = sample_positions(
            all_ids.size, 0.1, np.random.default_rng(11))
        sampled_ids = all_ids[positions]
        assert not np.isin(sampled_ids, kept_ids).any()
        assert set(kept_ids) | set(sampled_ids) == set(all_ids)

    def test_offline_mode_keeps_all_bits(self):
        alice, _ = self.run_ideal(duration=4.0, qber_mode="offline")
        report = alice.report
        assert report.aggregate.raw_bits == len(alice.keys[0])
        assert report.aggregate.qber < 0.001

    def test_multiple_blocks(self):
        alice, _ = self.run_ideal(duration=30.0, rate=50_000.0)
        assert len(alice.report.blocks) == 3
        assert [r.block_id for r in alice.report.blocks] == [0, 1, 2]
        total = sum(r.raw_bits for r in alice.report.blocks)
        assert total == alice.report.aggregate.raw_bits

    def test_drift_abort_truncates_keys(self):
        drift = DriftModel(kind="linear", rate_rad_per_s=0.25)
        alice, bob = self.run_ideal(duration=30.0, rate=50_000.0,
                                    drift=drift)
        report = alice.report
        block_verdicts = [r.verdict for r in report.blocks]
        assert "abort" in block_verdicts
        first_abort = report.abort_block()
        assert all(k.block_id < first_abort for k in alice.keys)
        assert [k.block_id for k in alice.keys] == \
            [k.block_id for k in bob.keys]

    def test_mismatched_params_abort(self):
        res = simulate(duration=2.0)
        pa = params_for(duration=2.0, window_ps=64)
        pb = params_for(duration=2.0, window_ps=128)
        with pytest.raises(SessionAbort):
            run_session(alice_endpoint(pa), bob_endpoint(pb), res.alice,
                        res.bob)

    def test_uncorrelated_streams_abort(self):
        res_a = simulate(duration=2.0, seed=21)
        res_b = simulate(duration=2.0, seed=22)
        p = params_for(duration=2.0)
        with pytest.raises(SessionAbort, match="coincidence search failed"):
            run_session(alice_endpoint(p), bob_endpoint(p), res_a.alice,
                        res_b.bob)

    def test_transport_failure_aborts(self):
        res = simulate(duration=2.0)
        p = params_for(duration=2.0)
        ta, tb = transport_pair(timeout=2.0)
        tb.close()
        session = protocol.AliceSession(alice_endpoint(p), res.alice)
        with pytest.raises(SessionAbort):
            session.run(ta)


def stall_alice(monkeypatch, seconds):
    """Make Alice compute ``seconds`` longer between Bob's tag announce and
    her basis reveal."""
    estimate_delay = tags.estimate_delay

    def slow(*args, **kwargs):
        time.sleep(seconds)
        return estimate_delay(*args, **kwargs)
    monkeypatch.setattr(protocol.tags, "estimate_delay", slow)


class TestSessionFailures:
    """A slow party is never taken for a dead one, and a failed session
    names the party whose failure came first."""

    @pytest.mark.parametrize("transport, timeout", [
        ("in-process", 0.2),  # waits past its timeout for a live peer
        ("tcp", None),
    ])
    def test_slow_alice_completes(self, monkeypatch, transport, timeout):
        res = simulate(duration=1.0)
        p = params_for(duration=1.0)
        stall_alice(monkeypatch, 1.0)
        alice, bob = run_session(alice_endpoint(p), bob_endpoint(p),
                                 res.alice, res.bob, transport=transport,
                                 timeout=timeout)
        assert alice.report_bytes == bob.report_bytes
        assert alice.report.verdict == bob.report.verdict == "accept"

    @pytest.mark.parametrize("transport", ["in-process", "tcp"])
    def test_bob_failing_first_is_named(self, transport):
        res = simulate(duration=1.0)
        pa = params_for(duration=1.0, window_ps=64)
        pb = params_for(duration=1.0, window_ps=128)
        with pytest.raises(SessionAbort) as info:
            run_session(alice_endpoint(pa), bob_endpoint(pb), res.alice,
                        res.bob, transport=transport)
        error = info.value
        assert error.party == "bob"
        assert str(error) == ("bob: protocol violation: session parameters "
                              "do not match")
        assert isinstance(error.peer_error, SessionAbort)
        assert error.peer_error.peer_stopped
        assert "peer aborted" in str(error.peer_error)

    def test_tcp_receive_deadline_names_bob(self, monkeypatch):
        # over TCP a timeout is a deadline: Bob gives up on a silent Alice,
        # and his timeout, not her closed connection, is the reported cause
        res = simulate(duration=1.0)
        p = params_for(duration=1.0)
        stall_alice(monkeypatch, 1.0)
        with pytest.raises(SessionAbort) as info:
            run_session(alice_endpoint(p), bob_endpoint(p), res.alice,
                        res.bob, transport="tcp", timeout=0.2)
        error = info.value
        assert error.party == "bob"
        assert str(error).startswith("bob: transport failure while receiving")
        assert "timed out" in str(error)
        assert error.peer_error.peer_stopped

    def test_duplicate_sample_positions_name_bob(self, monkeypatch):
        # key_count copies of position 0 are in range and, in offline
        # mode, as many as "every key position"; Bob must refuse them
        encode = protocol._encode_sample_request

        def duplicated(positions, bits):
            return encode(np.zeros_like(positions), np.repeat(bits[:1],
                                                              bits.size))
        monkeypatch.setattr(protocol, "_encode_sample_request", duplicated)
        res = simulate(duration=1.0)
        p = params_for(duration=1.0, qber_mode="offline")
        with pytest.raises(SessionAbort) as info:
            run_session(alice_endpoint(p), bob_endpoint(p), res.alice,
                        res.bob, transport="in-process")
        error = info.value
        assert error.party == "bob"
        assert str(error) == ("bob: protocol violation: sample positions "
                              "are not strictly increasing")
        assert error.peer_error.peer_stopped

    def test_failure_outside_the_protocol_is_named(self, monkeypatch):
        def broken(self):
            raise RuntimeError("label table missing")
        monkeypatch.setattr(protocol.BobSession, "_labels", broken)
        res = simulate(duration=1.0)
        p = params_for(duration=1.0)
        with pytest.raises(RuntimeError, match="label table missing") as info:
            run_session(alice_endpoint(p), bob_endpoint(p), res.alice,
                        res.bob)
        assert info.value.party == "bob"
        assert "closed mid-session" in str(info.value.peer_error)

    @pytest.mark.parametrize("party, channel", [("alice", 9), ("bob", 7)])
    def test_unmapped_channel_is_refused(self, party, channel):
        # a tag on a channel the endpoint does not map has no setting, so
        # the session refuses the stream before anything is sent
        res = simulate(duration=1.0)
        streams = {"alice": res.alice, "bob": res.bob}
        stream = streams[party]
        channels = stream.channels.copy()
        channels[::50] = channel
        streams[party] = TagStream(party, stream.duration_ps, channels,
                                   stream.times)
        p = params_for(duration=1.0)
        with pytest.raises(ValueError) as info:
            run_session(alice_endpoint(p), bob_endpoint(p), streams["alice"],
                        streams["bob"])
        assert str(info.value) == (f"{party}'s stream has a tag on channel "
                                   f"{channel}, which the endpoint does not "
                                   f"map")
        assert info.value.party == party
        assert "closed mid-session" in str(info.value.peer_error)


def tamper_sends(monkeypatch, msg_type, tamper):
    """Pass the arrays of every ``msg_type`` message through ``tamper``
    before they are chunked and encoded."""
    send = protocol._send_chunked

    def tampered(channel, kind, arrays, encode, chunk_size):
        if kind == msg_type:
            arrays = tamper(*(a.copy() for a in arrays))
        return send(channel, kind, arrays, encode, chunk_size)
    monkeypatch.setattr(protocol, "_send_chunked", tampered)


def swap_first_two(values):
    values[[0, 1]] = values[[1, 0]]
    return values


def wrap_last(values):
    values = values.astype(np.uint64)
    values[-1] = 2**63
    return values


def set_first(value):
    def tamper(values):
        values[0] = value
        return values
    return tamper


class TestPeerValidation:
    """Each party checks what its peer sends and names itself when it
    refuses it."""

    def refused(self, monkeypatch, msg_type, tamper):
        tamper_sends(monkeypatch, msg_type, tamper)
        res = simulate(duration=1.0)
        p = params_for(duration=1.0)
        with pytest.raises(SessionAbort) as info:
            run_session(alice_endpoint(p), bob_endpoint(p), res.alice,
                        res.bob, transport="in-process")
        assert info.value.peer_error.peer_stopped
        return info.value

    @pytest.mark.parametrize("tamper, reason", [
        (lambda t, lab: (swap_first_two(t), lab),
         "announced tag times are not in ascending order"),
        (lambda t, lab: (wrap_last(t), lab),
         "announced tag time out of range"),
        (lambda t, lab: (t, set_first(3)(lab)),
         "announced tag label out of range"),
    ], ids=["unsorted", "wrapped", "label"])
    def test_bad_tag_announce_names_alice(self, monkeypatch, tamper, reason):
        error = self.refused(monkeypatch, protocol.MSG_TAG_ANNOUNCE, tamper)
        assert error.party == "alice"
        assert str(error) == f"alice: protocol violation: {reason}"

    @pytest.mark.parametrize("tamper, reason", [
        (lambda i, r, s, o: (swap_first_two(i), r, s, o),
         "pair tag indices are not strictly increasing"),
        (lambda i, r, s, o: (i, r, set_first(3)(s), o),
         "pair setting out of range"),
        (lambda i, r, s, o: (i, r, s, set_first(2)(o)),
         "pair outcome out of range"),
    ], ids=["decreasing", "setting", "outcome"])
    def test_bad_basis_reveal_names_bob(self, monkeypatch, tamper, reason):
        error = self.refused(monkeypatch, protocol.MSG_BASIS_REVEAL, tamper)
        assert error.party == "bob"
        assert str(error) == f"bob: protocol violation: {reason}"


class TestReportAgreement:
    def test_verdicts_always_agree(self):
        for phase in (math.pi, 2.2, 0.0):
            res = simulate(duration=3.0, phase=phase, seed=int(phase * 10))
            p = params_for(duration=3.0)
            alice, bob = run_session(alice_endpoint(p), bob_endpoint(p),
                                     res.alice, res.bob)
            assert alice.report_bytes == bob.report_bytes
            assert alice.report.verdict == bob.report.verdict
            assert report_csv(alice.report).encode() == alice.report_bytes
