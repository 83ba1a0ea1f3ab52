"""Byte-identity gate for the simulator, the tag-file writer and the wire.

Pins the SHA-256 of both tag streams of every shipped preset, simulated
at the preset's own seed for a short duration, and of the
``dump_tagstream`` text of every stream, and
pins every preset's delay estimate on those streams and the coincidences
``tags.match_coincidences`` finds at that delay.  Any change to the
random draws, their order, the routing, the rounding, the sort or the
dead-time filter changes a stream digest; any change to the bytes of the
``#tagstream v1`` text changes a dump digest.  It also pins every frame
Alice and Bob send in sessions on the ideal preset's streams, so any
change to the bytes of a protocol message changes a wire digest.  And it
pins every CSV a short run of each preset writes, and the ``matrix.csv``
and ``estimates.csv`` of the offline analysis of the ideal and paper
runs' tag dumps, so any change to a count or an estimate changes a CSV
digest.

The digests were captured with numpy 2.4.6.  numpy does not promise the
same variates from ``Generator`` methods across releases, so after a
numpy upgrade a mismatch here may come from numpy rather than from the
simulator.  ``PYTHONPATH=src python tests/test_golden.py`` prints the
current digests, the CSV digests included.
"""

import hashlib
import io
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hybridqkd import harness, optics, protocol, tags
import oracle_delay

DURATION_S = 0.2

STREAM_DIGESTS = {
    "ideal": (
        "ab296043f9307c54d2327baa371837133392fa15231129c3707d8e49ab6a479d",
        "e6a490a709f5572fd5d9dcd137eccdabb69d1805b36cd9151667d1dfa91f21b5",
    ),
    "paper": (
        "c7e901568e709e14f36c905706915b8b32adfb795bb4bad93708bf12daeaee6b",
        "f027f193a6557bf3aefc18252b3daab3852bc5d44a1cd4271b845a6dd8449fa1",
    ),
    "phase_sweep": (
        "a0617e39119d0805ce757218ad0391a3a08657eb6f1d765eb4026ad77d5ec521",
        "b5dc9ccb70e3e31ec450f98b426ad15330c5162fc4d18700c2fb8c2bdb4a1f9d",
    ),
    "stability": (
        "9ff836598a03673b11ac453a025175804bcd6a9e2b76c2f01907f4e8a22f0f16",
        "e24b8c49e0fe5d24f50253ac40d88bb2a57244917f6e5c63dc5e42f892d90a4f",
    ),
    "window_sweep": (
        "09f488d4ab582703801e001566b4dbc210ea0c957eb050b658f606187e6143fa",
        "7cd200cab4f151ef42ad47788dae61be6395f71601305db9d8a827343e8735e0",
    ),
}

# SHA-256 of the UTF-8 text dump_tagstream writes for each stream above
DUMP_DIGESTS = {
    "ideal": (
        "5ffc8050f3260d8d956ac6c0d18cdf751025fb36e4aff9cd5bc51bb14d9b055c",
        "fe2c7da1f805e219b8e10195d3c900fbe42191dd1840f238ceb9821ec426d469",
    ),
    "paper": (
        "1b8728376047649c51114f74640fdae784c6a87490a992b5ee979168a07206c9",
        "6dfd54942cacb6dfd3869c7f7c1e3b07aff5dd8f6e0b7a73eb1d158e8e56d8d3",
    ),
    "phase_sweep": (
        "7f9533007475194b8e5339089a2843e3c2a651eb47488b6e89f0c39de2947930",
        "21bf115e0fb7113f07461d3bf39ea018d3ec91de91bb9da40871fba6b4e5518d",
    ),
    "stability": (
        "c98fbaf8ea9e6eb7ea30c9c0d1e078155a4292356033abbbfb978b5389dedf46",
        "c6e823140801358b237f26217ac67f69e5ab42d304349ee918c901f566598355",
    ),
    "window_sweep": (
        "ab5a4c4850f98ce7fdb851961bc5a1fb152550c331bba4020acd77f15a821816",
        "258fe7f6216ae1bffa732077f4e639609e77529c74f1fbf9407381660aa68ec4",
    ),
}

# tags.estimate_delay on the streams above: (delay_ps, significance,
# peak_count, background_mean, bin_width_ps)
DELAY_ESTIMATES = {
    "ideal": (200008, 6329.647575508713, 19887, 9.861629048086359, 16),
    "paper": (107649994, 55.70249638092897, 317, 27.088321884200198, 16),
    "phase_sweep": (200008, 4535.6634123574495, 10159, 5.011776251226693,
                    16),
    "stability": (200008, 1999.7262170869517, 1979, 0.9784102060843964,
                  16),
    "window_sweep": (200004, 314.6662955331613, 5526, 278.1403336604514,
                     16),
}

# SHA-256 of tags.match_coincidences's (ai, bi) on the streams above, at
# the preset's protocol.window_ps and the delay in DELAY_ESTIMATES
MATCH_DIGESTS = {
    "ideal":
        "e71ab1e7030a936e6f13ad750d642faff27888120192f70504e10aae77f84395",
    "paper":
        "f84b67be0116f81e1640dffe7c8d297f91a100bfa013ff80e811969dd954684e",
    "phase_sweep":
        "234ac744114e93e3530a3f8936e9028e69f322ba71a0cd107e5223aefdd38d8e",
    "stability":
        "61f6edd57b1e45dfe315a9f8fdc37dd0a85b8eed9a42b3645a813bc37987ed3f",
    "window_sweep":
        "a3756ba8f237d1a0f87430d4414a47030aa57bc04d7dc9abd2b56f1a893b99d1",
}

# the sessions whose frames WIRE_DIGESTS pins: (qber_mode, rows per
# chunk of the chunked messages, None for the default)
WIRE_SESSIONS = {
    "sample": ("sample", None),
    "offline": ("offline", None),
    "chunked": ("sample", 1 << 13),  # 4 announce and 3 reveal chunks
}

# SHA-256 of every frame each party sends, in order: (Alice's, Bob's)
WIRE_DIGESTS = {
    "chunked": (
        (
            "173f19cb802e1fbb4ecf899a2da58a0796fb1ca640c94d4ebc194f1433abfa2e",
            "abc0d29747652c5755469d9d45e3f1617af237c0ac7411d083a3b620466a6eee",
            "63d4224d9f3bfc1758b71ba0b5a8abddc0173038647a285b3c701d9c9a366778",
            "04bfafad2c7b5381e2888e56c881fe91b183800b67f78d9e688a1cbcf39c3228",
            "9145dd9cfb687820687147301806258c55336b5d55f7e952ac4cca5b882c9b64",
            "f0428b2cbec83e0425b33108bbf9579e94fcbbe3404a57d107f16c4853f47ebe",
        ),
        (
            "f3c3db264605056b0abf5e85980662f28efe0172ce5480d74d6fc144869ce614",
            "31ea1532f5e9a1ff4bb06843d95f372e74b9d98e97bd263a804e5d1432453bc1",
            "4536fcf8ebd26fd05fbf2dd1626f3d357c79cb3304de0012b009be4f24756c8d",
            "78330d40babaea41aa073c91b2f320189ed6e0575ec32e82cd40dba47d52ee79",
            "2f720c72ad1592c18934508f182fe889cd979936eca40f7b532a6b7800175c64",
            "f0428b2cbec83e0425b33108bbf9579e94fcbbe3404a57d107f16c4853f47ebe",
        ),
    ),
    "offline": (
        (
            "4e6f0a9278ccabe00b962757cfafb51b231002450cc8461e4f33198ad8f259f9",
            "187e60e60aee4d30490211ff95b3f9a39aa3d867fc95d9fb250bd10b2027795a",
            "84717915ccf9f304cb84d7340a154773539e6f92d2dfb5ade4102612b1b674a5",
            "4b7cde8a178677ce094413c9ffc9ceda8a599cd61c15575b8548713dd11bc31f",
        ),
        (
            "d36c361a07747f7da23bee47f69acf55ae8eb9f8a42652166d12420b68fc8fef",
            "28eef8e6d23eeb6045537ff653b15876570c175087f8b640f6daa50c9faa9c08",
            "dfae40d7144182b2e40e1ca79c221cf9a226c555e70735cf10e1acf9c5b6804b",
        ),
    ),
    "sample": (
        (
            "173f19cb802e1fbb4ecf899a2da58a0796fb1ca640c94d4ebc194f1433abfa2e",
            "187e60e60aee4d30490211ff95b3f9a39aa3d867fc95d9fb250bd10b2027795a",
            "b93e3c092ceb125063768b22ebd52164c23c4bfc7ddcda1fd41b3357939e507d",
            "82e218a64106abe6da66ecad42021af40c8f3f4a175dec1cfdb5c1b4a7dcf154",
        ),
        (
            "d36c361a07747f7da23bee47f69acf55ae8eb9f8a42652166d12420b68fc8fef",
            "aa1c989bbe104a6006dfd64f60dff3a871d7f8ec3bbd33875cec412421d387ca",
            "d3cbd748847915e5df61822b1bf62ddf0707bea83a7eb2c024988b2a959f0768",
        ),
    ),
}

# the run_scenario overrides of each preset whose CSVs CSV_DIGESTS pins;
# harness.analyze_streams then reads the dumps at each of ANALYZE_WINDOWS
CSV_RUNS = {
    "ideal": {"duration_s": 0.5, "dump_tags": True},
    "paper": {"duration_s": 0.5, "dump_tags": True},
    "phase_sweep": {"duration_s": 0.2},
    "stability": {"duration_s": 2, "block_s": 0.5,
                  "drift__rate_rad_per_s": 0.8},
    "window_sweep": {"duration_s": 0.5},
}
ANALYZE_WINDOWS = (64, 800)

# SHA-256 of each CSV those runs write, keyed "<preset>/<file>", and
# "<preset>@<window>/<file>" for the offline analysis
CSV_DIGESTS = {
    "ideal/report.csv":
        "f0c119205a9312fde062c91fd361391048ffec2b703ae918b01e1b343b63e142",
    "ideal@64/matrix.csv":
        "b532e1e1fdb5638d6730307e14f70432341fbcb2313a4acdc3130acd6a740eab",
    "ideal@64/estimates.csv":
        "20764cc5507472f87cd0cd386daf246e279e576c0ad04d8ea086c8a07ffc59f2",
    "ideal@800/matrix.csv":
        "24f92b4115ffed131a3682755d5c890bbbdcffd5162f650a16934a6b51204272",
    "ideal@800/estimates.csv":
        "ded3d9aec30c375ca4bc44d502b370b0f7d5bfce02043c0853ae45d3dbc90720",
    "paper/report.csv":
        "6f246e3e5670e21454672996422eff03686b68476442005da37b4ca8eb1d3f7a",
    "paper@64/matrix.csv":
        "9eae3702bf610c5901758793d84f3be5eebe770d63ab766235f2e8575f624fa1",
    "paper@64/estimates.csv":
        "3d41a4e2f1785efe0d3d99adb36f5b8e743536a5915d285f916fb7395c15a825",
    "paper@800/matrix.csv":
        "7d412962e83e392f1522825b7c6f0a1b52575c252348c178794efdc2e9216174",
    "paper@800/estimates.csv":
        "97fee5e927d82828cafc8aef6a2b63a66fd78e36937c726d10e49e5d527b4a89",
    "phase_sweep/sweep.csv":
        "43b0090d7d5088f3efeb2a310e158a38d3e0d142964d4ca82fda83f790b6c061",
    "stability/report.csv":
        "43b80abb025755ad859b11a100989054b928776d4808a44cf01b67ae7b1f7833",
    "window_sweep/windows.csv":
        "e08d76167c8835b39e909408b383626aae133ed25f6d1050ebef6041ebee05b9",
}

def _simulate(preset):
    cfg = harness.load_config(harness.preset_path(preset))
    return harness._simulate(cfg, cfg["seed"], duration_s=DURATION_S)


def _stream_digest(stream):
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(stream.times, dtype="<i8").tobytes())
    h.update(np.ascontiguousarray(stream.channels, dtype=np.uint8).tobytes())
    return h.hexdigest()


def _dump_digest(stream):
    buf = io.StringIO()
    optics.dump_tagstream(stream, buf)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def _match_digest(res, preset):
    cfg = harness.load_config(harness.preset_path(preset))
    delay = DELAY_ESTIMATES[preset][0]
    ai, bi = tags.match_coincidences(res.alice, res.bob,
                                     cfg["protocol.window_ps"], delay)
    h = hashlib.sha256(np.ascontiguousarray(ai, dtype="<i8").tobytes())
    h.update(np.ascontiguousarray(bi, dtype="<i8").tobytes())
    return h.hexdigest()


# lets the same file check commits from before the tag announce and the
# basis reveal shared one chunk constant
_CHUNK_NAMES = (("CHUNK_ROWS",) if hasattr(protocol, "CHUNK_ROWS")
                else ("TAG_CHUNK", "PAIR_CHUNK"))


def _wire_digests(session):
    """The SHA-256 of every frame each party sends in a session on the
    ideal preset's streams."""
    qber_mode, chunk_rows = WIRE_SESSIONS[session]
    cfg = harness.load_config(harness.preset_path("ideal"))
    res = _simulate("ideal")
    params = replace(harness._session_params(cfg, DURATION_S),
                     qber_mode=qber_mode)
    sent = ([], [])
    transport_pair = protocol.transport_pair

    def recording_pair(timeout=None):
        ends = transport_pair(timeout)
        for end, frames in zip(ends, sent):
            def sendall(frame, send=end.sendall, frames=frames):
                frames.append(hashlib.sha256(frame).hexdigest())
                send(frame)
            end.sendall = sendall
        return ends

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(protocol, "transport_pair", recording_pair)
        for name in _CHUNK_NAMES if chunk_rows else ():
            patch.setattr(protocol, name, chunk_rows)
        protocol.run_session(params, params, res.alice, res.bob)
    return tuple(tuple(frames) for frames in sent)


def _csv_digests(out):
    """The SHA-256 of every CSV the CSV_RUNS write under ``out``."""
    digests = {}

    def add(key, path):
        digests[f"{key}/{path.name}"] = \
            hashlib.sha256(path.read_bytes()).hexdigest()

    for preset, overrides in CSV_RUNS.items():
        cfg = harness.load_config(harness.preset_path(preset))
        run = harness.run_scenario(cfg.replaced(**overrides), out / preset)
        for path in run.files:
            if path.suffix == ".csv":
                add(preset, path)
        if overrides.get("dump_tags"):
            for window in ANALYZE_WINDOWS:
                summary = harness.analyze_streams(
                    out / preset / "alice.tags", out / preset / "bob.tags",
                    window, out / f"{preset}@{window}")
                for path in summary["files"]:
                    add(f"{preset}@{window}", path)
    return digests


@pytest.mark.parametrize("preset", sorted(STREAM_DIGESTS))
def test_stream_digests(preset):
    res = _simulate(preset)
    assert (_stream_digest(res.alice), _stream_digest(res.bob)) == \
        STREAM_DIGESTS[preset]


@pytest.mark.parametrize("preset", sorted(DUMP_DIGESTS))
def test_dump_digests(preset):
    res = _simulate(preset)
    assert (_dump_digest(res.alice), _dump_digest(res.bob)) == \
        DUMP_DIGESTS[preset]


@pytest.mark.parametrize("preset", sorted(DELAY_ESTIMATES))
def test_delay_estimates(preset):
    res = _simulate(preset)
    est = tags.estimate_delay(res.alice, res.bob)
    assert est == tags.DelayEstimate(*DELAY_ESTIMATES[preset])
    assert est == oracle_delay.estimate_delay(res.alice.times, res.bob.times)


@pytest.mark.parametrize("preset", sorted(MATCH_DIGESTS))
def test_match_digests(preset):
    assert _match_digest(_simulate(preset), preset) == MATCH_DIGESTS[preset]


@pytest.mark.parametrize("session", sorted(WIRE_SESSIONS))
def test_wire_digests(session):
    assert _wire_digests(session) == WIRE_DIGESTS[session]


def test_csv_digests(tmp_path):
    assert _csv_digests(tmp_path) == CSV_DIGESTS


if __name__ == "__main__":
    print(f"numpy {np.__version__}", file=sys.stderr)
    for name in sorted(STREAM_DIGESTS):
        res = _simulate(name)
        print(f"{name}: {_stream_digest(res.alice)} {_stream_digest(res.bob)}"
              f" {len(res.alice)} {len(res.bob)}")
        print(f"{name} dump: {_dump_digest(res.alice)}"
              f" {_dump_digest(res.bob)}")
        est = tags.estimate_delay(res.alice, res.bob)
        print(f"{name} delay: ({est.delay_ps}, {est.significance!r},"
              f" {est.peak_count}, {est.background_mean!r},"
              f" {est.bin_width_ps})")
        print(f"{name} match: {_match_digest(res, name)}")
    for session in sorted(WIRE_SESSIONS):
        alice, bob = _wire_digests(session)
        print(f"wire {session} alice: {' '.join(alice)}")
        print(f"wire {session} bob: {' '.join(bob)}")
    with tempfile.TemporaryDirectory() as out:
        for key, digest in _csv_digests(Path(out)).items():
            print(f"csv {key}: {digest}")
