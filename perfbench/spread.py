"""Run-to-run spread of the end-to-end metrics, as the acceptance rule
for the benchmark computes it.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] \
        [--workloads paper_session,stability] [--out FILE]

Runs ``run.py`` once per seed on each workload, one run at a time, with
the ``run_seconds`` of BENCHMARK.json.  For every end-to-end metric it
reports the median and the quartiles of ``statistics.quantiles(values,
n=4)``, and the spread: the distance between the quartiles as a share of
the median.  A spread passes when it is below a third of the metric's
bound (``setup_s`` is exempt, as in the acceptance rule).  ``--out``
appends the set of runs, with their statistics and machine facts, to a
JSON file; ``perfbench/baseline.json`` holds two such sets.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def one_run(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["machine"]


def spread_of(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    report = {"run_seconds": SPEC["run_seconds"], "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, machine = one_run(workload, seed)
            runs.append({"seed": seed, "result": result, "machine": machine})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']} "
                  f"steal={machine['steal_share']:.3f} " +
                  " ".join(f"{k}={v['value']:.5g}"
                           for k, v in result["metrics"].items()),
                  file=sys.stderr, flush=True)
        stats = {}
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            stats[name] = spread_of([r["result"]["metrics"][name]["value"]
                                     for r in runs])
            ok = (name == "setup_s" or
                  stats[name]["spread"] < metric["bound"] / 3)
            steady &= ok
            print(f"{workload:<14} {name:<12} median "
                  f"{stats[name]['median']:.5g} {metric['unit']}, "
                  f"spread {stats[name]['spread']:.4f} (bound "
                  f"{metric['bound']}) {'ok' if ok else 'WIDE'}")
        failed = sum(r["result"]["failed"] for r in runs)
        attempted = sum(r["result"]["attempted"] for r in runs)
        steady &= failed == 0 and all(r["result"]["correct"] for r in runs)
        print(f"{workload:<14} failed {failed} of {attempted} operations")
        report["workloads"][workload] = {"stats": stats, "runs": runs,
                                         "failed_share": failed / attempted}
    if args.out is not None:
        sets = (json.loads(args.out.read_text())["sets"]
                if args.out.exists() else [])
        args.out.write_text(json.dumps({"sets": sets + [report]}, indent=1)
                            + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
