"""Input and timing helpers for the kernel benchmark.

``perfbench/kernel_bench.py`` times the kernels on realistically sized
inputs (tag counts of a busy 10 s accumulation block) and imports these
helpers from here:

    python3 perfbench/kernel_bench.py [--repeat N] [--scale X]
"""

import sys
import time
from pathlib import Path

import numpy as np

# import the package from this checkout's src/, as perfbench/host.py does
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

# perfbench/kernel_bench.py imports only the package, then this module,
# and reads the kernels as its ``kernels`` attribute, which this sets
import hybridqkd.kernels  # noqa: E402,F401


def make_streams(rate_hz, duration_s, jitter_sigma_ps, extra_fraction, rng):
    """Two sorted tag streams sharing correlated events, plus singles."""
    span = int(duration_s * 1e12)
    n = rng.poisson(rate_hz * duration_s)
    true_times = rng.integers(0, span, size=n)
    a = np.concatenate([true_times,
                        rng.integers(0, span,
                                     size=int(n * extra_fraction))])
    b = np.concatenate([true_times +
                        rng.normal(0, jitter_sigma_ps, size=n).astype(
                            np.int64) + 350_000,
                        rng.integers(0, span,
                                     size=int(n * extra_fraction))])
    return np.sort(a), np.sort(b)


def best_of(fn, repeat):
    timings = []
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        timings.append(time.perf_counter() - start)
    return min(timings), result


def check_equal(name, got, want):
    got = got if isinstance(got, tuple) else (got,)
    want = want if isinstance(want, tuple) else (want,)
    for g, w in zip(got, want):
        if not np.array_equal(g, w):
            raise AssertionError(f"{name}: builds disagree")
