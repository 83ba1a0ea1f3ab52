"""Traced runs: timing wrappers installed on the program's public functions.

The tracer replaces module attributes with wrappers that open a span
around each call, so the program itself is unchanged.  Attributes are
patched where the caller looks them up: ``harness`` imports
``simulate_session`` and ``run_session`` by name, so those are wrapped on
``harness``; ``tags`` and ``optics`` call ``kernels.*`` through the module,
so the kernels are wrapped on ``kernels``.  ``quantum`` runs in
microseconds per block and gets no span; its time lands in
``protocol.self_s``.

Each span records its name, start, end, parent, thread and run id.  Spans
are kept in memory and written out when the run ends.  A span's self time
is its duration minus the part of it that its child spans cover.

Protocol waiting and wire traffic are counters, not spans: receive time on
each party's in-process transport and frame bytes per message type.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
import weakref
from contextlib import contextmanager
from dataclasses import asdict, dataclass

MESSAGES = ("hello", "tag_announce", "basis_reveal", "sample_request",
            "sample_reveal", "report")
WINDOWS = (64, 128, 800)
FRAME_OVERHEAD = 13  # length prefix, message type and sequence number

# every per-layer metric a traced run reports, with its unit
LAYER_METRICS = {
    "harness.run_scenario_s": "s",
    "harness.analyze_streams_s": "s",
    "harness.self_s": "s",
    "harness.output_bytes": "bytes",
    "optics.simulate_session_s": "s",
    "optics.self_s": "s",
    "optics.tags_alice": "count",
    "optics.tags_bob": "count",
    "optics.rss_after_simulate_mb": "MB",
    "optics.dump_tagstream_s": "s",
    "optics.load_tagstream_s": "s",
    "optics.dump_bytes": "bytes",
    "kernels.match_nearest_s": "s",
    "kernels.match_calls": "count",
    "kernels.match_ns_per_tag": "ns",
    "kernels.diff_histogram_coarse_s": "s",
    "kernels.diff_histogram_fine_s": "s",
    "kernels.diff_pairs_coarse": "count",
    "kernels.diff_pairs_fine": "count",
    "kernels.dead_time_filter_s": "s",
    "kernels.dead_time_dropped": "count",
    "tags.estimate_delay_s": "s",
    "tags.match_coincidences_s": "s",
    "tags.build_matrix_s": "s",
    "tags.window_sweep_s": "s",
    "tags.self_s": "s",
    **{f"tags.pairs.w{w}": "count" for w in WINDOWS},
    "tags.delay_ps": "ps",
    "protocol.run_session_s": "s",
    "protocol.sessions": "count",
    "protocol.self_s": "s",
    **{f"protocol.wire_bytes.{m}": "bytes" for m in MESSAGES},
    "protocol.frames": "count",
    "protocol.alice_wait_s": "s",
    "protocol.bob_wait_s": "s",
    "protocol.bob_max_wait_s": "s",
    "process.cpu_s": "s",
    "trace_overhead_s": "s",
}

# counts that must repeat exactly across runs of one seed on one commit
REPEAT_KEYS = (
    "optics.tags_alice", "optics.tags_bob",
    *(f"tags.pairs.w{w}" for w in WINDOWS), "tags.delay_ps",
    *(f"protocol.wire_bytes.{m}" for m in MESSAGES), "protocol.frames",
    "kernels.diff_pairs_coarse", "kernels.diff_pairs_fine",
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: str
    run_id: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def _rss_mb() -> float:
    with open("/proc/self/statm") as f:
        pages = int(f.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


class Tracer:
    """Spans and counters for one operation at a time."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches = []
        self._party = weakref.WeakKeyDictionary()
        self.all_spans = []
        self.begin(0)

    # -- recording --------------------------------------------------------

    def begin(self, run_id: int):
        """Start a new operation: spans and counters restart.  Counters
        add up; gauges hold a peak or the latest value."""
        self.run_id = run_id
        self.spans = []
        self.counters = {}
        self.gauges = {}
        self.histogram_pairs = {}

    def count(self, name, amount):
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def peak(self, name, value):
        with self._lock:
            self.gauges[name] = max(self.gauges.get(name, value), value)

    @contextmanager
    def span(self, name):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            span = Span(id=len(self.all_spans), name=name,
                        start=time.perf_counter(), end=0.0,
                        parent=stack[-1].id if stack else None,
                        thread=threading.current_thread().name,
                        run_id=self.run_id)
            self.all_spans.append(span)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    # -- installing wrappers ----------------------------------------------

    def _patch(self, owner, attr, make):
        original = getattr(owner, attr)
        setattr(owner, attr, functools.wraps(original)(make(original)))
        self._patches.append((owner, attr, original))

    def _wrap(self, owner, attr, name, after=None):
        def make(original):
            def traced(*args, **kwargs):
                with self.span(name) as span:
                    result = original(*args, **kwargs)
                if after is not None:
                    after(span, result, *args, **kwargs)
                return result
            return traced
        self._patch(owner, attr, make)

    def install(self, program):
        """Wrap the public functions of every layer of ``program``."""
        harness, optics, kernels = (program.harness, program.optics,
                                    program.kernels)
        tags, protocol = program.tags, program.protocol

        def files_written(span, result, *args, **kwargs):
            files = (result.files if hasattr(result, "files")
                     else result["files"])
            self.count("harness.output_bytes",
                       sum(os.path.getsize(f) for f in files))

        def simulated(span, result, *args, **kwargs):
            self.count("optics.tags_alice", len(result.alice))
            self.count("optics.tags_bob", len(result.bob))
            self.peak("optics.rss_after_simulate_mb", _rss_mb())

        def dumped(span, result, stream, path, *args, **kwargs):
            self.count("optics.dump_bytes", os.path.getsize(path))

        def matched(span, result, a, b, half_window, *args, **kwargs):
            self.count("kernels.match_calls", 1)
            self.count("kernels.match_tags", len(a) + len(b))

        def histogram(span, result, *args, **kwargs):
            self.histogram_pairs[span.id] = int(result.sum())

        def filtered(span, result, times, *args, **kwargs):
            self.count("kernels.dead_time_dropped",
                       int(result.size - result.sum()))

        def paired(span, result, a, b, window_ps, *args, **kwargs):
            self.count(f"tags.pairs.w{window_ps}", len(result[0]))

        def delayed(span, result, *args, **kwargs):
            self.gauges["tags.delay_ps"] = result.delay_ps

        self._wrap(harness, "run_scenario", "harness.run_scenario",
                   files_written)
        self._wrap(harness, "analyze_streams", "harness.analyze_streams",
                   files_written)
        self._wrap(harness, "simulate_session", "optics.simulate_session",
                   simulated)
        self._wrap(harness, "run_session", "protocol.run_session")
        self._wrap(optics, "dump_tagstream", "optics.dump_tagstream", dumped)
        self._wrap(optics, "load_tagstream", "optics.load_tagstream")
        self._wrap(kernels, "match_nearest", "kernels.match_nearest", matched)
        self._wrap(kernels, "diff_histogram", "kernels.diff_histogram",
                   histogram)
        self._wrap(kernels, "dead_time_filter", "kernels.dead_time_filter",
                   filtered)
        self._wrap(tags, "estimate_delay", "tags.estimate_delay", delayed)
        self._wrap(tags, "match_coincidences", "tags.match_coincidences",
                   paired)
        self._wrap(tags, "build_matrix", "tags.build_matrix")
        self._wrap(tags, "window_sweep", "tags.window_sweep")
        self._install_protocol(protocol)

    def _install_protocol(self, protocol):
        names = protocol._MESSAGE_NAMES

        def make_pair(original):
            def traced_pair(*args, **kwargs):
                alice, bob = original(*args, **kwargs)
                self._party[alice] = "alice"
                self._party[bob] = "bob"
                return alice, bob
            return traced_pair

        def make_recv(original):
            def traced_recv(transport, *args, **kwargs):
                start = time.perf_counter()
                try:
                    return original(transport, *args, **kwargs)
                finally:
                    waited = time.perf_counter() - start
                    party = self._party.get(transport, "unknown")
                    self.count(f"protocol.{party}_wait_s", waited)
                    self.peak(f"protocol.{party}_max_wait_s", waited)
            return traced_recv

        def make_send(original):
            def traced_send(channel, msg_type, payload=b""):
                self.count("protocol.frames", 1)
                self.count(f"protocol.wire_bytes.{names[msg_type]}",
                           FRAME_OVERHEAD + len(payload))
                return original(channel, msg_type, payload)
            return traced_send

        self._patch(protocol, "transport_pair", make_pair)
        self._patch(protocol.InProcessTransport, "recv", make_recv)
        self._patch(protocol.MessageChannel, "send", make_send)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- per-operation metrics --------------------------------------------

    def self_times(self):
        """Self time of every span of the current operation, by span id."""
        children = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        return {span.id: span.duration - _covered(
                    (max(c.start, span.start), min(c.end, span.end))
                    for c in children.get(span.id, ()))
                for span in self.spans}

    def layer_metrics(self):
        """The per-layer metrics of the current operation, all but
        ``trace_overhead_s`` and ``process.cpu_s``.  A metric named
        ``<span>_s`` is the total duration of the spans named ``<span>``;
        ``<layer>.self_s`` is the total self time of the layer's spans."""
        self_time = self.self_times()
        total = {}
        for span in self.spans:
            layer = span.name.split(".", 1)[0]
            for key, value in ((span.name, span.duration),
                               (f"{layer}.self", self_time[span.id])):
                total[key] = total.get(key, 0.0) + value

        # inside each delay search the last histogram is the fine stage;
        # any earlier one is the coarse stage
        pairs = {"coarse": 0, "fine": 0}
        groups = {}
        for span in self.spans:
            if span.name == "kernels.diff_histogram":
                groups.setdefault(span.parent, []).append(span)
        for group in groups.values():
            group.sort(key=lambda s: s.start)
            for span in group:
                stage = "fine" if span is group[-1] else "coarse"
                key = f"kernels.diff_histogram_{stage}"
                total[key] = total.get(key, 0.0) + span.duration
                pairs[stage] += self.histogram_pairs[span.id]

        metrics = {name: 0 for name in LAYER_METRICS
                   if name not in ("process.cpu_s", "trace_overhead_s")}
        for name in metrics:
            if name.endswith("_s") and name[:-2] in total:
                metrics[name] = total[name[:-2]]
        metrics.update((name, value) for name, value in
                       (*self.counters.items(), *self.gauges.items())
                       if name in metrics)
        match_tags = self.counters.get("kernels.match_tags", 0)
        if match_tags:
            metrics["kernels.match_ns_per_tag"] = \
                total["kernels.match_nearest"] * 1e9 / match_tags
        metrics["kernels.diff_pairs_coarse"] = pairs["coarse"]
        metrics["kernels.diff_pairs_fine"] = pairs["fine"]
        metrics["protocol.sessions"] = sum(
            span.name == "protocol.run_session" for span in self.spans)
        return metrics

    def unaccounted_s(self):
        """Traced run time not covered by the layer calls the harness
        makes, the harness's own self time and the output checks.  The
        root span is the benchmark's ``run``."""
        self_time = self.self_times()
        roots = [s for s in self.spans if s.parent is None]
        if len(roots) != 1:
            return float("nan")
        root = roots[0]
        harness_ids = {s.id for s in self.spans if s.parent == root.id
                       and s.name.startswith("harness.")}
        layers = sum(s.duration for s in self.spans if s.parent in harness_ids)
        own = sum(self_time[i] for i in harness_ids)
        checks = sum(s.duration for s in self.spans
                     if s.parent == root.id and s.name == "check")
        return root.duration - layers - own - checks

    def dump(self, path):
        """Write every span recorded in this process as JSON lines."""
        with open(path, "w") as f:
            for s in self.all_spans:
                f.write(json.dumps(asdict(s)) + "\n")
