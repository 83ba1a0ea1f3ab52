"""Work split over two threads: exceptions on the worker reach the caller,
no thread outlives the call, and the public functions a tracer wraps run
on their caller's thread.  The split threshold is lowered so that short
streams take the two-thread path, as on a two-CPU host."""

import sys
import threading

import numpy as np
import pytest

from hybridqkd import harness, kernels, optics, tags
from hybridqkd.optics import (
    ChannelModel,
    DetectorModel,
    DriftModel,
    SourceModel,
    alice_station,
    bob_station,
    simulate_session,
)

PERFECT = DetectorModel(efficiency=1.0, jitter_fwhm_ps=0.0, dark_rate_hz=0.0,
                        dead_time_ps=0)


@pytest.fixture
def split(monkeypatch):
    """Split work on more than 2**12 tags over two threads; returns the
    list of ``_in_parallel`` calls, True for each that used two."""
    monkeypatch.setattr(kernels, "_SPLIT_TAGS", 1 << 12)
    monkeypatch.setattr(kernels, "_CPUS", 2)
    calls = []
    original = kernels._in_parallel

    def counted(fn, args, parallel=True):
        calls.append(parallel and len(args) == 2)
        return original(fn, args, parallel)

    monkeypatch.setattr(kernels, "_in_parallel", counted)
    return calls


def test_worker_exception_reaches_caller():
    def fail_second(x):
        if x:
            raise KeyError("second")
        return x

    before = threading.enumerate()
    with pytest.raises(KeyError, match="second"):
        kernels._in_parallel(fail_second, [(0,), (1,)])
    assert threading.enumerate() == before
    assert kernels._in_parallel(fail_second, [(0,), (0,)]) == [0, 0]


def test_bob_sort_key_overflow_raised_from_worker(split, monkeypatch):
    # Bob's tags land past 2**55 ps; his clicks sort on the worker
    threads = []
    original = optics._sort_clicks

    def recorded(acc):
        threads.append(threading.current_thread())
        return original(acc)

    monkeypatch.setattr(optics, "_sort_clicks", recorded)
    a = alice_station(ChannelModel(1.0, 0), PERFECT)
    b = bob_station(ChannelModel(1.0, 2**55), PERFECT)
    before = threading.enumerate()
    with pytest.raises(ValueError, match="2\\*\\*55"):
        simulate_session(SourceModel(pair_rate_hz=1e7), DriftModel(), a, b,
                         0.001, seed=3)
    assert threading.enumerate() == before
    assert len(set(threads)) == 2 and threading.current_thread() in threads


def test_no_thread_left_running(split):
    a = alice_station(ChannelModel(1.0, 0), PERFECT)
    b = bob_station(ChannelModel(1.0, 5000), PERFECT)
    before = threading.enumerate()
    res = simulate_session(SourceModel(pair_rate_hz=1e7), DriftModel(), a, b,
                           0.002, seed=4)
    assert threading.enumerate() == before
    delay = tags.estimate_delay(res.alice, res.bob).delay_ps
    assert threading.enumerate() == before
    assert delay == 5000
    tags.match_coincidences(res.alice, res.bob, 64, delay)
    assert threading.enumerate() == before
    assert len(split) > 3 and all(split)


def test_public_functions_run_on_their_callers_thread(split, monkeypatch,
                                                      tmp_path):
    # a paper session run from a thread of its own: every traced function
    # runs on that thread, none on a worker
    seen = {}
    for owner, name in ((kernels, "dead_time_filter"),
                        (kernels, "diff_histogram"),
                        (kernels, "match_nearest"),
                        (tags, "estimate_delay"),
                        (tags, "match_coincidences")):
        def recorded(*args, _fn=getattr(owner, name), _name=name, **kwargs):
            seen.setdefault(_name, set()).add(threading.current_thread())
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, recorded)

    cfg = harness.parse_config(harness.preset_path("paper").read_text()
                               + "\nduration_s = 0.2\nblock_s = 0.1\n")
    failures = []

    def run():
        try:
            harness.run_scenario(cfg, out_dir=tmp_path)
        except BaseException as exc:  # noqa: BLE001 - reported below
            failures.append(exc)

    caller = threading.Thread(target=run, name="caller")
    caller.start()
    caller.join(timeout=300)
    assert not caller.is_alive() and not failures
    assert sorted(seen) == ["dead_time_filter", "diff_histogram",
                            "estimate_delay", "match_coincidences",
                            "match_nearest"]
    assert all(threads == {caller} for threads in seen.values())
    assert any(split)


def test_concurrent_callers_with_frequent_switches(split):
    # four callers, each splitting its searches over a worker, on two
    # CPUs with the interpreter switching threads every microsecond
    rng = np.random.default_rng(18)
    cases = []
    for _ in range(4):
        a = np.sort(rng.integers(0, 10**7, 20_000))
        b = np.sort(rng.integers(0, 10**7, 20_000))
        count = np.searchsorted(b, a + 100) - np.searchsorted(b, a - 100)
        cases.append((a, b, count))
    results = [[] for _ in cases]

    def run(i):
        a, b, _ = cases[i]
        for _ in range(20):
            results[i].append(kernels._window_ranges(a, b, -100, 100))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=run, args=(i,))
                   for i in range(len(cases))]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    for (_, _, count), found in zip(cases, results):
        assert len(found) == 20
        for listed, _, got in found:
            np.testing.assert_array_equal(listed, np.flatnonzero(count))
            np.testing.assert_array_equal(got, count[listed])
    assert all(split)
