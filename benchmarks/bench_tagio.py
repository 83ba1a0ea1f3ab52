"""Timing of the tag-file writer, the reader and the offline analysis,
with JSON output.

    python3 benchmarks/bench_tagio.py \
        [--preset paper] [--seconds 1] [--repeat 3] [--seed N] \
        [--window 64] [--dir DIR]

The package is imported from this checkout's ``src/``.

Simulates a bundled preset once, shortened to ``--seconds``, then
``--repeat`` times: writes both streams with ``optics.dump_tagstream``,
reads both files back with ``optics.load_tagstream`` (checking that
they round-trip) and runs ``harness.analyze_streams`` on the two files
at ``--window`` ps.  The files go to a temporary directory, or to
``--dir``, and are removed at the end.  After the timed repeats, one
more load of Alice's file and one more dump of her stream run under
``tracemalloc``: ``load_peak_b_per_tag`` is the load's traced peak per
tag, ``dump_peak_mb`` the dump's.  Prints one JSON object with the tag
counts, the file sizes, the median over the repeats of each step, and
the analysis' delay, S and QBER.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hybridqkd import harness, optics  # noqa: E402


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def run(preset, seconds, repeat, seed, window_ps, directory):
    cfg = harness.load_config(harness.preset_path(preset))
    seed = cfg["seed"] if seed is None else seed
    streams = harness._simulate(cfg, seed, duration_s=seconds)
    parties = {"alice": streams.alice, "bob": streams.bob}
    paths = {party: directory / f"{party}.tags" for party in parties}
    samples = {name: [] for name in ("dump_alice", "dump_bob", "load_alice",
                                     "load_bob", "analyze")}
    try:
        for _ in range(repeat):
            for party, stream in parties.items():
                _, elapsed = _timed(optics.dump_tagstream, stream,
                                    str(paths[party]))
                samples[f"dump_{party}"].append(elapsed)
            for party, stream in parties.items():
                loaded, elapsed = _timed(optics.load_tagstream,
                                         str(paths[party]))
                samples[f"load_{party}"].append(elapsed)
                if not (np.array_equal(loaded.times, stream.times)
                        and np.array_equal(loaded.channels,
                                           stream.channels)):
                    raise SystemExit(f"{party}'s stream did not round-trip")
                del loaded
            analysis, elapsed = _timed(harness.analyze_streams,
                                       paths["alice"], paths["bob"],
                                       window_ps)
            samples["analyze"].append(elapsed)
        sizes = {party: path.stat().st_size for party, path in paths.items()}
        load_peak = _traced_peak(optics.load_tagstream, str(paths["alice"]))
        dump_peak = _traced_peak(optics.dump_tagstream, streams.alice,
                                 str(paths["alice"]))
    finally:
        for path in paths.values():
            path.unlink(missing_ok=True)
    return {
        "preset": preset, "seconds": seconds, "seed": seed,
        "repeat": repeat, "window_ps": window_ps,
        "tags_alice": len(streams.alice), "tags_bob": len(streams.bob),
        "bytes_alice": sizes["alice"], "bytes_bob": sizes["bob"],
        "median_s": {name: round(statistics.median(values), 4)
                     for name, values in samples.items()},
        "load_peak_b_per_tag": round(load_peak / max(len(streams.alice), 1),
                                     2),
        "dump_peak_mb": round(dump_peak / 2**20, 2),
        "delay_ps": analysis["delay_ps"], "s": round(analysis["s"], 4),
        "qber": round(analysis["qber"], 4),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", default="paper")
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--window", type=int, default=64, metavar="PS")
    parser.add_argument("--dir", default=None,
                        help="directory for the dumps (default: a "
                             "temporary one)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    if args.dir is not None:
        print(json.dumps(run(args.preset, args.seconds, args.repeat,
                             args.seed, args.window, Path(args.dir))))
        return
    with tempfile.TemporaryDirectory() as directory:
        print(json.dumps(run(args.preset, args.seconds, args.repeat,
                             args.seed, args.window, Path(directory))))


if __name__ == "__main__":
    main()
