"""Locating the program under test and describing the machine it runs on.

The benchmark always imports ``hybridqkd`` from the ``src/`` tree of the
checkout it sits in, never from an installed copy, so that the numbers
belong to the source next to them.
"""

from __future__ import annotations

import importlib.util
import os
import platform
import sys
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"


def import_program():
    """Import ``hybridqkd`` from ``ROOT/src``; exit with an error if the
    checkout has no program source."""
    package = SRC / "hybridqkd"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {package}")
    sys.path.insert(0, str(SRC))
    import hybridqkd

    if Path(hybridqkd.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported hybridqkd from "
                         f"{hybridqkd.__file__}, not from {package}")
    return hybridqkd


def git_commit():
    """The checked-out commit, read from ``.git`` without running git;
    None outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def cpu_ticks():
    """(steal, total) CPU ticks of the whole machine since boot; steal is
    time a virtual machine's CPUs waited for the hypervisor."""
    with open("/proc/stat") as f:
        ticks = [int(t) for t in f.readline().split()[1:]]
    return ticks[7], sum(ticks)


def machine_facts(active_build, load_before, ticks_before):
    """Facts recorded with every result set.  ``load_before`` is the
    1-minute load average and ``ticks_before`` the ``cpu_ticks()`` taken
    before the measured work started."""
    steal, total = (now - then for now, then in
                    zip(cpu_ticks(), ticks_before))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "kernel_build": active_build,
        "commit": git_commit(),
        "load_before": load_before,
        "load_after": os.getloadavg()[0],
        "steal_share": steal / total if total else 0.0,
    }
