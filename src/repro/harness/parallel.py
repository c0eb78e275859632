"""The one cell-execution path of the harness.

Every cell of an experiment grid is an isolated, deterministic
simulation — a pure function of its :class:`CellTask` — so every
harness entry point (``Sweep.run``, ``multi_seed_runs``,
``ExperimentContext``, the resilient campaigns and the telemetry
re-runs) funnels through this module: :func:`run_cells` looks each cell
up in the run cache, executes the misses and stores what it ran.

Executed cells can fan out to worker processes without changing a
single bit of output: workers return ``(index, RunStats)`` pairs, the
parent slots each result at its index, and the merged list is identical
(same order, same stats) to what the serial loop produces.  Determinism
needs no cross-process coordination because no RNG state is shared:
each run seeds its own generators from the cell's seed.

``jobs`` semantics (shared by every harness entry point):

* ``None``  → ``$REPRO_JOBS`` if set, else serial;
* ``0``     → one worker per CPU (``os.cpu_count()``);
* ``1``     → serial, in-process (no pool, no pickling);
* ``N > 1`` → a ``ProcessPoolExecutor`` with ``N`` workers.

Worker dispatch uses plain picklable dataclasses (``SystemSpec`` and
``SystemParams`` are frozen dataclasses; workloads travel by registry
name), so the pool works under both fork and spawn start methods.
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.params import SystemParams
from repro.common.stats import RunStats
from repro.core.policies import SystemSpec
from repro.harness.runcache import RunCache, cell_key, coerce_cache


@dataclass(frozen=True)
class CellTask:
    """One simulation cell, fully resolved and picklable."""

    index: int
    workload: str
    spec: SystemSpec
    threads: int
    scale: float
    seed: int
    params: SystemParams

    def key(self) -> str:
        """The cell's run-cache key (see :func:`runcache.cell_key`)."""
        return cell_key(
            self.workload,
            self.spec,
            self.params,
            self.threads,
            self.scale,
            self.seed,
        )


def resolve_jobs(jobs: Optional[int]) -> int:
    """Apply the shared ``jobs`` convention; returns a worker count >= 1."""
    if jobs is None:
        env = os.environ.get("REPRO_JOBS")
        if env:
            try:
                jobs = int(env)
            except ValueError:
                raise ValueError(
                    f"invalid REPRO_JOBS={env!r}: expected an integer "
                    "(0 = one worker per CPU, 1 = serial, N > 1 = "
                    "N worker processes)"
                ) from None
        else:
            jobs = 1
    if jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs


def simulate(task: CellTask, **config) -> RunStats:
    """Run one cell in-process.  ``config`` adds the run-only
    :class:`~repro.sim.runner.RunConfig` fields (``telemetry``,
    ``fault_plan``, ``watchdog``) that are not part of the cell."""
    from repro.sim.runner import RunConfig, run_workload
    from repro.workloads.registry import get_workload

    return run_workload(
        get_workload(task.workload),
        RunConfig(
            spec=task.spec,
            threads=task.threads,
            scale=task.scale,
            seed=task.seed,
            params=task.params,
            **config,
        ),
    )


def execute_cell(task: CellTask) -> Tuple[int, RunStats]:
    """Run one cell (worker entry point; also the serial path).

    Cells share the process-wide build cache and machine pool (the
    RunConfig defaults): both are bit-identical plumbing (pinned by the
    equivalence suites), and per worker process, so no state ever
    crosses process boundaries.
    """
    return task.index, simulate(task)


def store(rc: RunCache, task: CellTask, stats: RunStats) -> None:
    """Record ``stats`` as ``task``'s result in the run cache."""
    rc.put_cell(
        task.workload,
        task.spec,
        task.params,
        task.threads,
        task.scale,
        task.seed,
        stats,
    )


def run_cells(
    tasks: Sequence[CellTask],
    jobs: Optional[int] = None,
    on_done: Optional[Callable[[CellTask, RunStats], None]] = None,
    cache=None,
) -> List[Optional[RunStats]]:
    """Execute ``tasks``; returns stats positioned by each task's index.

    ``cache`` (``True``, a directory path or a
    :class:`~repro.harness.runcache.RunCache`) is consulted before
    anything runs; hits are served from it and every executed cell is
    stored in it.  The output list spans ``max(index) + 1`` slots; slots
    without a task stay ``None``.  With ``jobs > 1`` the misses run in a
    process pool and complete in nondeterministic order, but the
    returned list is always in index order — parallel output is
    bit-identical to serial.  ``on_done`` fires once per task, cache
    hits first, then executed cells in completion order (use only for
    progress).
    """
    if not tasks:
        return []
    workers = resolve_jobs(jobs)
    rc = coerce_cache(cache)
    out: List[Optional[RunStats]] = [None] * (max(t.index for t in tasks) + 1)
    missing: List[CellTask] = []
    for task in tasks:
        hit = rc.get(task.key()) if rc is not None else None
        if hit is None:
            missing.append(task)
            continue
        out[task.index] = hit
        if on_done is not None:
            on_done(task, hit)

    def finish(task: CellTask, stats: RunStats) -> None:
        out[task.index] = stats
        if rc is not None:
            store(rc, task, stats)
        if on_done is not None:
            on_done(task, stats)

    workers = min(workers, len(missing))
    if workers <= 1:
        for task in missing:
            finish(task, execute_cell(task)[1])
        return out
    with ProcessPoolExecutor(max_workers=workers) as pool:
        pending = {pool.submit(execute_cell, t): t for t in missing}
        while pending:
            done, _ = wait(pending, return_when=FIRST_COMPLETED)
            for fut in done:
                finish(pending.pop(fut), fut.result()[1])
    return out


def trace_cell(
    task: CellTask, cache, telemetry, run_label: str
) -> Dict[str, str]:
    """Re-run one cell under telemetry; dump artifacts beside its
    run-cache entry.

    Runs are pure functions of the cell key, so the re-run reproduces
    the cached result bit-for-bit while capturing the *why*.  The result
    is stored (``cache=None`` means the default cache directory;
    ``telemetry=None`` a fresh ``Telemetry`` session), then
    ``<key>.metrics.json`` and — when the session keeps a timeline —
    ``<key>.trace.json`` are written atomically next to ``<key>.json``.
    Returns ``{"result": path, "metrics": path[, "trace": path]}``.
    """
    from repro.telemetry import Telemetry
    from repro.telemetry.sinks import artifact_path

    rc = coerce_cache(True if cache is None else cache)
    if rc is None:
        raise ValueError("a telemetry re-run needs a run cache")
    tel = telemetry if telemetry is not None else Telemetry()
    stats = simulate(task, telemetry=tel)
    store(rc, task, stats)
    key = task.key()
    out = {
        "result": rc.path_for(key),
        "metrics": tel.write_metrics(artifact_path(rc, key, "metrics")),
    }
    if tel.timeline is not None:
        out["trace"] = tel.write_trace(
            artifact_path(rc, key, "trace"), run_label=run_label
        )
    return out
