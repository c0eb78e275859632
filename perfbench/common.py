"""Checkout paths, workload definitions, cold-start and set-up probing.

The benchmark only ever reads and writes inside the checkout it runs
from: the simulator comes from ``<root>/src`` and scratch state (service
directories, span dumps) lives under ``<root>/.perfbench_work``.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
WORKLOADS_FILE = os.path.join(HERE, "workloads.json")

#: Per-layer service metrics (name, unit).  They read 0 on the simulator
#: workloads, which run no service.
SERVICE_LAYERS = [
    ("service.submit_ms", "ms"),
    ("service.queue_wait_ms", "ms"),
    ("service.cell_ms", "ms"),
    ("service.results_ms", "ms"),
    ("store.get_ms", "ms"),
    ("store.put_ms", "ms"),
    ("store.hit_ratio", "ratio"),
    ("dedup.inflight_ratio", "ratio"),
    ("service.rejected_submits", "count"),
]

#: Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_PROBES = 5


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, bad workload)."""


def import_repro():
    """Import the simulator from this checkout's ``src`` and nowhere else."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise BenchError(f"no simulator sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro

    where = os.path.dirname(os.path.abspath(repro.__file__))
    if os.path.commonpath([where, SRC]) != SRC:
        raise BenchError(f"imported repro from {where}, not from {SRC}")
    return repro


def load_workloads() -> Dict[str, Dict]:
    with open(WORKLOADS_FILE, encoding="utf-8") as fh:
        return {w["name"]: w for w in json.load(fh)["workloads"]}


def cold_start() -> None:
    """Empty the process-wide build cache and machine pool."""
    from repro.sim.pool import global_pool
    from repro.workloads.buildcache import shared_builds

    shared_builds().clear()
    global_pool().clear()


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def work_dir(*parts: str) -> str:
    path = os.path.join(WORK, *parts)
    os.makedirs(path, exist_ok=True)
    return path


def measure_setup(workload: str, probes: int = SETUP_PROBES) -> List[float]:
    """Nominal-host seconds from spawning a fresh interpreter to "ready".

    Each probe runs ``setup_probe.py``, which imports the simulator and
    prepares the workload the way a user's first run would, then prints
    ``ready``.  Interpreter start and imports are part of the cost.
    Reference slices just before and after each probe correct it for
    the host's speed (see hostspeed).
    """
    from hostspeed import SpeedProbe  # not needed by the probe itself

    times = []
    probe = os.path.join(HERE, "setup_probe.py")
    for i in range(probes):
        speed = SpeedProbe()
        speed.sample(2)
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, probe, workload, str(i)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=60)
        finally:
            proc.stdout.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or code != 0:
            raise BenchError(f"set-up probe for {workload} failed ({code})")
        speed.sample(2)
        times.append((ready - t0) * speed.factor)
    return times
