"""End-to-end and per-layer benchmark of hybridqkd scenario runs.

    python3 perfbench/run.py --workload paper_session --seed 11 \
        --seconds 50 --trace 0

Each invocation is one run: a fresh interpreter that generates the
workload's config from its preset and the seed, then drives the harness
in a closed loop, one operation at a time.  A run makes at least as many
operations as fit in ``--seconds`` at the workload's nominal operation
time (at least one; two with ``--trace 1``), then more while the next is
expected to end within ``--seconds``.  The floor keeps the number of
operations, and with it the weight of the cold first operation in the
median, from following the host's speed: on the shared 2-vCPU Xeon
virtual machine the benchmark was built on, a fixed Python loop ran up
to 40% slower in phases of ten to thirty seconds.  Every operation's
outputs are checked (see ``workloads.py``); a failed operation records
party, stage and exception text and counts in ``failed``.

``--trace 0`` reports the end-to-end metrics: ``run_s``, the median wall
time of one operation (harness calls and checks); ``peak_rss_mb``, the
run process's high-water RSS over all its operations (after the first
operation it still varies by 10% between runs, as the allocator happens
to place the large arrays; a few operations on, it has settled); and
``setup_s``, the median over fresh interpreters, started before and
after the operations, of the time to import ``hybridqkd.cli`` and parse
the workload config.  ``--trace 1`` alternates untraced and traced
operations and reports the per-layer metrics of ``spans.py`` from the
traced ones.

Exact-repeat checks: within a run, and across runs of one seed on one
source tree and config (remembered under ``.perfbench/repeat``), the
output CSV bytes (untraced) and the tag, pair, wire-byte and
pair-difference counts (traced) must be equal.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the machine.  A summary goes to standard error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from host import ROOT, SRC, WORK, cpu_ticks, import_program, machine_facts
from spans import LAYER_METRICS, REPEAT_KEYS, Tracer
from workloads import WORKLOADS, check, output_digest

# setup samples taken before and after the operations, so that they
# straddle the host's slow and fast phases
SETUP_SAMPLES = (4, 3)
MAX_OPERATIONS = 1000
# a traced operation's layer calls, harness self time and checks must
# cover its run time to within this share (plus 10 ms of glue)
ACCOUNTING_TOLERANCE = 0.01

END_TO_END_UNITS = {"run_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

SETUP_SNIPPET = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import hybridqkd.cli
from hybridqkd import harness
harness.load_config(sys.argv[2])
print(time.perf_counter() - start)
"""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the preset's own)")
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="time budget for the measured operations")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for smoke tests")
    return parser.parse_args(argv)


def setup_seconds(cfg_path: Path, count: int):
    """Fresh-interpreter import of ``hybridqkd.cli`` plus config parse."""
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(cfg_path)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
            check=True)
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def describe_failure(exc):
    """Party, stage and text of an exception raised by an operation.  The
    stage is the innermost program function on the traceback; the party
    is the protocol endpoint it passed through, if any."""
    party, stage = "-", "check"
    for error in (exc, exc.__cause__):
        tb = error.__traceback__ if error is not None else None
        while tb is not None:
            frame = tb.tb_frame
            owner = type(frame.f_locals.get("self")).__name__
            if party == "-" and owner in ("AliceSession", "BobSession"):
                party = owner[:-len("Session")].lower()
            path = Path(frame.f_code.co_filename)
            if SRC in path.parents:
                name = getattr(frame.f_code, "co_qualname",
                               frame.f_code.co_name)
                stage = f"{path.stem}.{name}"
            tb = tb.tb_next
    return {"party": party, "stage": stage,
            "error": f"{type(exc).__name__}: {exc}"}


def source_hash() -> str:
    """Hash of the program source tree, naming the commit under test."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def repeat_problems(ops, key_path: Path):
    """Compare every operation's fingerprint with the first, and with the
    one an earlier run of the same seed on the same source recorded."""
    problems = []
    for traced in (False, True):
        prints = [op["fingerprint"] for op in ops
                  if op["traced"] == traced and op["failure"] is None]
        if not prints:
            continue
        if any(p != prints[0] for p in prints[1:]):
            problems.append(f"{'traced' if traced else 'untraced'} "
                            f"operations of one run differ: {prints}")
        path = key_path.with_name(key_path.name +
                                  ("-traced" if traced else "") + ".json")
        if path.is_file():
            earlier = json.loads(path.read_text())
            if earlier != prints[0]:
                problems.append(f"differs from an earlier run of the same "
                                f"seed: {earlier} != {prints[0]}")
        else:
            path.parent.mkdir(parents=True, exist_ok=True)
            scratch = path.with_suffix(f".{os.getpid()}.tmp")
            scratch.write_text(json.dumps(prints[0]))
            os.replace(scratch, path)
    return problems


class Run:
    """One benchmark run: config, loop of operations, metrics."""

    def __init__(self, args):
        self.args = args
        self.workload = WORKLOADS[args.workload]
        self.program = import_program()
        import hybridqkd.cli  # noqa: F401  (imports every layer)

        self.harness = self.program.harness
        self.work = WORK / f"run-{os.getpid()}"
        self.tracer = Tracer()
        self.sessions = []
        self.problems = []

    def configure(self):
        self.work.mkdir(parents=True, exist_ok=True)
        preset = self.harness.preset_path(self.workload.preset).read_text()
        text = self.workload.config_text(preset, self.args.seed,
                                         self.args.size == "tiny")
        self.cfg_path = self.work / "workload.cfg"
        self.cfg_path.write_text(text)
        self.cfg = self.harness.load_config(self.cfg_path)
        self._capture_sessions()

    def _capture_sessions(self):
        """Keep both parties' outcomes so the checks can compare them."""
        run_session = self.harness.run_session

        def capturing(*args, **kwargs):
            outcomes = run_session(*args, **kwargs)
            self.sessions.append(outcomes)
            return outcomes
        self.harness.run_session = capturing

    def operation(self, index: int, traced: bool):
        out = self.work / f"op{index}"
        self.sessions.clear()
        self.tracer.begin(index)
        if traced:
            self.tracer.install(self.program)
        span = self.tracer.span if traced else (lambda name: nullcontext())
        failure = None
        cpu_start = sum(os.times()[:2])
        start = time.perf_counter()
        try:
            with span("run"):
                result, analysis = self.workload.execute(self.harness,
                                                         self.cfg, out)
                with span("check"):
                    check(self.workload, self.cfg, out, result, analysis,
                          self.sessions)
        except Exception as exc:  # noqa: BLE001 - recorded, run continues
            failure = describe_failure(exc)
        finally:
            seconds = time.perf_counter() - start
            cpu = sum(os.times()[:2]) - cpu_start
            self.sessions.clear()
            if traced:
                self.tracer.uninstall()
        op = {"traced": traced, "seconds": seconds, "failure": failure,
              "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              / 1024}
        if failure is None and traced:
            layers = self.tracer.layer_metrics()
            layers["process.cpu_s"] = cpu
            op["layers"] = layers
            op["fingerprint"] = {k: layers[k] for k in REPEAT_KEYS}
            gap = self.tracer.unaccounted_s()
            if not abs(gap) <= ACCOUNTING_TOLERANCE * seconds + 0.01:
                self.problems.append(f"operation {index}: {gap:.4f} s of the "
                                     f"traced run is not accounted for")
        elif failure is None:
            op["fingerprint"] = output_digest(out)
        shutil.rmtree(out, ignore_errors=True)
        return op

    def loop(self):
        ops = []
        least = max(2 if self.args.trace else 1,
                    int(self.args.seconds // self.workload.nominal_s))
        start = time.perf_counter()
        while len(ops) < MAX_OPERATIONS:
            if len(ops) >= least:
                typical = statistics.median(op["seconds"] for op in ops)
                if time.perf_counter() - start + typical > self.args.seconds:
                    break
            traced = bool(self.args.trace) and len(ops) % 2 == 1
            ops.append(self.operation(len(ops), traced))
        return ops

    def repeat_key(self) -> Path:
        """Names the source tree and the generated config, so that a
        changed workload size or override starts a new record."""
        config = hashlib.sha256(self.cfg_path.read_bytes()).hexdigest()
        return (WORK / "repeat" / source_hash() /
                f"{self.workload.name}-seed{self.cfg['seed']}-"
                f"{config[:16]}")


def _median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


def metrics_for(run: Run, ops, setup):
    good = [op for op in ops if op["failure"] is None]
    untraced = [op["seconds"] for op in good if not op["traced"]]
    if not run.args.trace:
        values = {
            "run_s": _median(untraced or [op["seconds"] for op in ops]),
            "peak_rss_mb": max(op["rss_mb"] for op in ops),
            "setup_s": _median(setup),
        }
        units = END_TO_END_UNITS
    else:
        traced = [op for op in good if op["traced"]]
        values = {name: _median(op["layers"][name] for op in traced)
                  for name in LAYER_METRICS if name != "trace_overhead_s"}
        values["trace_overhead_s"] = (
            _median(op["seconds"] for op in traced) - _median(untraced)
            if traced and untraced else 0.0)
        units = LAYER_METRICS
    return {name: {"value": values[name], "unit": units[name]}
            for name in units}


def summary(run: Run, ops, metrics, setup):
    lines = [f"workload {run.workload.name}, seed {run.cfg['seed']}, "
             f"{len(ops)} operations, {run.args.size} size"]
    for kind in (False, True):
        times = [op["seconds"] for op in ops if op["traced"] == kind]
        if times:
            lines.append(f"  {'traced' if kind else 'untraced'} operation "
                         f"s: median {_median(times):.4f}, n = {len(times)}:"
                         f" {', '.join(f'{t:.4f}' for t in times)}")
    if setup:
        lines.append(f"  setup s: {', '.join(f'{s:.4f}' for s in setup)}")
    for name, metric in metrics.items():
        lines.append(f"  {name:<36} {metric['value']:>16.6g} "
                     f"{metric['unit']}")
    for op in ops:
        if op["failure"] is not None:
            lines.append(f"  FAILED operation: {json.dumps(op['failure'])}")
    for problem in run.problems:
        lines.append(f"  PROBLEM: {problem}")
    return "\n".join(lines)


def main(argv=None):
    args = parse_args(argv)
    load_before, ticks_before = os.getloadavg()[0], cpu_ticks()
    run = Run(args)
    try:
        run.configure()
        before, after = (0, 0) if args.trace else SETUP_SAMPLES
        setup = setup_seconds(run.cfg_path, before)
        ops = run.loop()
        setup += setup_seconds(run.cfg_path, after)
        run.problems.extend(repeat_problems(ops, run.repeat_key()))
        if args.trace:
            run.tracer.dump(WORK / f"spans-{run.workload.name}-"
                                   f"seed{run.cfg['seed']}.jsonl")
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    facts = machine_facts(run.program.kernels.implementations()["active"],
                          load_before, ticks_before)
    metrics = metrics_for(run, ops, setup)
    failed = sum(op["failure"] is not None for op in ops)
    print(summary(run, ops, metrics, setup), file=sys.stderr)
    print(json.dumps({"machine": facts}))
    print(json.dumps({"correct": failed == 0 and not run.problems,
                      "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
