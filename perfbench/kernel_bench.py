"""Kernel micro-benchmark with JSON output.

    python3 perfbench/kernel_bench.py [--repeat N] [--scale X]

Times every kernel on the synthetic streams of
``benchmarks/bench_kernels.py`` and prints one JSON object: the machine,
the active kernel build, and per kernel its best time, its computed
operation count and the bytes it moves.  Each kernel is timed in the
numpy build; the numba build is timed, checked against it and given a
speedup only when numba is present.  Without numba the speedup is null,
not a comparison of the numpy build with itself.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from host import ROOT, cpu_ticks, import_program, machine_facts


def _window_edges(a, b, lo, hi):
    """Pairs (i, j) with lo <= b[j] - a[i] <= hi."""
    return int((np.searchsorted(b, a + hi, side="right") -
                np.searchsorted(b, a + lo, side="left")).sum())


def cases(a, b, dense):
    """(name, input label, call, operation count, bytes moved) per kernel.

    Counts follow the reference loops: the dead-time filter compares each
    tag once; matching visits each event once and scans every candidate
    within the window from both sides; the difference histogram touches
    every pair in its range."""
    shifted = b - 350_000
    ha, hb = a[:2**18], b[:2**18]
    lo, hi, width = -2**28, 2**28, 4096
    edges = _window_edges(a, shifted, -32, 32)
    pairs = _window_edges(ha, hb, lo, hi - 1)
    nbins = (hi - lo) // width
    return [
        ("dead_time_filter", f"{dense.size} tags, 50 ns dead time",
         lambda fn: fn(dense, np.int64(50_000)),
         dense.size, dense.size * 9),
        ("match_nearest", f"{a.size} x {b.size} tags, w/2 = 32 ps",
         lambda fn: fn(a, shifted, np.int64(32)),
         a.size + b.size + 2 * edges, (a.size + b.size + 2 * edges) * 9),
        ("diff_histogram", f"{ha.size} x {hb.size} tags, 2^28 ps span, "
         f"4 ns bins",
         lambda fn: fn(ha, hb, np.int64(lo), np.int64(hi), np.int64(width)),
         pairs, ha.size * 16 + pairs * 8 + nbins * 8),
    ]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3,
                        help="timed repetitions per kernel (best is kept)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply all input sizes by this factor")
    args = parser.parse_args(argv)

    load_before, ticks_before = os.getloadavg()[0], cpu_ticks()
    program = import_program()
    sys.path.insert(0, str(ROOT / "benchmarks"))
    from bench_kernels import best_of, check_equal, make_streams

    rng = np.random.default_rng(2718)
    a, b = make_streams(2e5, 10.0 * args.scale, 170.0, 0.5, rng)
    dense = np.sort(rng.integers(0, int(1e12 * args.scale),
                                 size=int(3e6 * args.scale)))
    builds = program.kernels.implementations()
    results = []
    for name, label, call, ops, moved in cases(a, b, dense):
        seconds, reference = best_of(lambda: call(builds["numpy"][name]),
                                     args.repeat)
        entry = {"kernel": name, "input": label, "numpy_s": seconds,
                 "numba_s": None, "speedup": None, "operations": ops,
                 "bytes_moved": moved,
                 "numpy_ns_per_operation": seconds * 1e9 / max(ops, 1)}
        if builds["numba"] is not None:
            fast = builds["numba"][name]
            call(fast)  # compile outside the timing
            entry["numba_s"], out = best_of(lambda: call(fast), args.repeat)
            check_equal(name, out, reference)
            entry["speedup"] = seconds / entry["numba_s"]
        results.append(entry)
    print(json.dumps({
        "machine": machine_facts(builds["active"], load_before,
                                 ticks_before),
        "active_build": builds["active"],
        "repeat": args.repeat,
        "scale": args.scale,
        "kernels": results,
    }, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
