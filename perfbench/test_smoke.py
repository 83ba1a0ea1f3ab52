"""Smoke test of the benchmark: every workload of ``workloads.py`` at a
tiny size, traced and untraced, must print every metric BENCHMARK.json
names, with its unit.

    python -m pytest perfbench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
from spans import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    machine = json.loads(lines[-2])["machine"]
    return json.loads(lines[-1]), machine, proc.stderr


def test_spec_lists_every_layer_metric():
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == LAYER_METRICS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_emits_every_metric(workload, trace):
    result, machine, log = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], log
    assert result["attempted"] >= 1 + trace
    assert result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
    assert {"nproc", "python", "numpy", "numba_present", "kernel_build",
            "commit", "load_before", "load_after", "steal_share"} \
        <= set(machine)
