"""Per-step timing of the session simulator, with JSON output.

    PYTHONPATH=src python3 benchmarks/bench_simulate.py \
        [--preset paper] [--seconds 1] [--repeat 5] [--seed N]

Runs ``harness._simulate`` for a bundled preset, shortened to
``--seconds``, ``--repeat`` times.  The simulator's helpers are wrapped
from outside, on the ``optics`` module where ``simulate_session`` looks
them up, so the program itself is unchanged.  Prints one JSON object:
the median over the repeats of the whole call and of each step's total
time per call, summed over threads.  A step's time includes the wrapped
steps it calls: ``_dead_time_keep`` runs inside ``_finalize_party``, and
``_poisson_stream_ps`` both in ``simulate_session`` (the coincidences'
stream) and inside ``_emit_singles``.  On streams above
``kernels._SPLIT_TAGS`` tags, Bob's ``_sort_clicks`` runs on a worker
thread while Alice's runs on the calling thread; ``worker`` is the time
of the steps on the worker, and it overlaps the caller's.  ``draws`` is
what ``simulate_session`` spends on its own thread outside every
wrapped step (its random draws, outcome tables and masks, and any wait
for the worker).
"""

from __future__ import annotations

import argparse
import functools
import json
import statistics
import threading
import time

from hybridqkd import harness, optics

STEPS = ("_poisson_stream_ps", "_emit_clicks", "_emit_singles",
         "_sort_clicks", "_finalize_party", "_dead_time_keep")
# time in the outermost wrapped calls on the calling thread (the ones
# simulate_session makes) and on any other thread
DIRECT, WORKER = "direct", "worker"


def _timed(fn, totals, name, depth):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        depth.value = getattr(depth, "value", 0) + 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            totals[name] += elapsed
            depth.value -= 1
            if depth.value == 0:
                outer = (DIRECT if threading.current_thread()
                         is threading.main_thread() else WORKER)
                totals[outer] += elapsed
    return wrapper


def run(preset, seconds, repeat, seed=None):
    cfg = harness.load_config(harness.preset_path(preset))
    seed = cfg["seed"] if seed is None else seed
    totals = dict.fromkeys((*STEPS, DIRECT, WORKER), 0.0)
    depth = threading.local()  # nesting of wrapped calls, per thread
    samples = {name: [] for name in ("simulate", *STEPS, WORKER, "draws")}
    originals = {name: getattr(optics, name) for name in STEPS}
    try:
        for name, fn in originals.items():
            setattr(optics, name, _timed(fn, totals, name, depth))
        for _ in range(repeat):
            totals.update(dict.fromkeys(totals, 0.0))
            start = time.perf_counter()
            result = harness._simulate(cfg, seed, duration_s=seconds)
            elapsed = time.perf_counter() - start
            samples["simulate"].append(elapsed)
            for name in (*STEPS, WORKER):
                samples[name].append(totals[name])
            samples["draws"].append(elapsed - totals[DIRECT])
    finally:
        for name, fn in originals.items():
            setattr(optics, name, fn)
    return {
        "preset": preset, "seconds": seconds, "seed": seed,
        "repeat": repeat, "tags_alice": len(result.alice),
        "tags_bob": len(result.bob),
        "median_s": {name: round(statistics.median(values), 4)
                     for name, values in samples.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", default="paper")
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    print(json.dumps(run(args.preset, args.seconds, args.repeat, args.seed)))


if __name__ == "__main__":
    main()
