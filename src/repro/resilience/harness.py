"""Crash-tolerant experiment harness: timeouts, retries, quarantine.

Long sweeps and multi-seed campaigns die in the worst way: hours in, one
cell hangs or crashes and everything already computed is lost.  This
module wraps the harness drivers with

* a per-run **wall-clock timeout** (``SIGALRM``-based, main thread only;
  a no-op elsewhere) raising
  :class:`~repro.common.errors.RunTimeoutError`,
* a bounded **retry policy** per cell,
* a **quarantine** list — cells that still fail after retries are
  recorded with their full replay coordinates instead of aborting the
  campaign, and
* an atomic **JSON checkpoint** so an interrupted campaign resumes from
  the last completed cell (serialized through
  :mod:`repro.harness.export`).

Entry points: :func:`run_sweep_resilient` (also reachable as
``Sweep.run_resilient``) and :func:`resilient_seed_runs` (also
``repro.harness.multiseed.multi_seed_runs_resilient``).  Both only build
their cells and hand them to one serial loop, :func:`_run_resilient`.
"""

from __future__ import annotations

import functools
import json
import os
import signal
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigError, RunTimeoutError
from repro.common.stats import RunStats
from repro.harness.export import (
    SCHEMA_VERSION,
    run_stats_from_dict,
    run_stats_to_dict,
)
from repro.harness.parallel import CellTask, simulate, store
from repro.harness.runcache import coerce_cache


def call_with_timeout(fn: Callable[[], object], timeout_s: Optional[float]):
    """Run ``fn`` under a wall-clock budget; raise RunTimeoutError late.

    Uses ``signal.setitimer`` and therefore only enforces the budget on
    the main thread of the main interpreter; elsewhere (or with no
    budget) it degrades to a plain call.
    """
    if not timeout_s or timeout_s <= 0:
        return fn()
    if threading.current_thread() is not threading.main_thread():
        return fn()  # SIGALRM cannot be delivered to worker threads

    def _on_alarm(signum, frame):
        raise RunTimeoutError(f"run exceeded {timeout_s}s wall clock")

    old_handler = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old_handler)


@dataclass(frozen=True)
class RetryPolicy:
    """How hard to try one cell before quarantining it."""

    max_attempts: int = 2
    #: Wall-clock seconds per attempt; None disables the timeout.
    timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError("max_attempts must be >= 1")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ConfigError("timeout_s must be positive (or None)")


@dataclass
class QuarantineRecord:
    """A cell that failed every attempt, with its replay coordinates."""

    label: str
    replay: Dict[str, object]
    error_type: str
    error: str
    attempts: int

    def render(self) -> str:
        return (
            f"{self.label}: {self.error_type} after {self.attempts} "
            f"attempt(s) — {self.error} | replay: {self.replay}"
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "label": self.label,
            "replay": dict(self.replay),
            "error_type": self.error_type,
            "error": self.error,
            "attempts": self.attempts,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "QuarantineRecord":
        return cls(
            label=data["label"],
            replay=dict(data["replay"]),
            error_type=data["error_type"],
            error=data["error"],
            attempts=data["attempts"],
        )


class SweepCheckpoint:
    """Atomic JSON checkpoint of completed campaign cells.

    Completed cells are keyed by their run-cache key (plus the fault-plan
    name under a plan; see :func:`_run_resilient`) and store the full
    serialized :class:`~repro.common.stats.RunStats`; quarantined cells
    are kept for reporting but are *retried* on resume (a transient
    failure deserves a fresh chance).  Writes go through a temp file +
    ``os.replace`` so a crash mid-save never corrupts the checkpoint.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._done: Dict[str, Dict] = {}
        self._quarantined: List[Dict] = []

    @classmethod
    def load(cls, path: str) -> "SweepCheckpoint":
        ckpt = cls(path)
        if os.path.exists(path) and os.path.getsize(path) > 0:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            if data.get("schema") != SCHEMA_VERSION:
                raise ConfigError(
                    f"checkpoint schema {data.get('schema')!r} unsupported"
                )
            ckpt._done = dict(data.get("done", {}))
            ckpt._quarantined = list(data.get("quarantined", []))
        return ckpt

    def __len__(self) -> int:
        return len(self._done)

    def has(self, label: str) -> bool:
        return label in self._done

    def get(self, label: str) -> RunStats:
        return run_stats_from_dict(self._done[label])

    def put(
        self, label: str, stats: RunStats, meta: Optional[Dict] = None
    ) -> None:
        self._done[label] = run_stats_to_dict(stats, meta)

    def quarantine(self, record: QuarantineRecord) -> None:
        self._quarantined.append(record.to_dict())

    @property
    def quarantined(self) -> List[QuarantineRecord]:
        return [QuarantineRecord.from_dict(d) for d in self._quarantined]

    def save(self) -> None:
        payload = {
            "schema": SCHEMA_VERSION,
            "done": self._done,
            "quarantined": self._quarantined,
        }
        tmp = f"{self.path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True)
        os.replace(tmp, self.path)


def _attempt_cell(
    label: str,
    replay: Dict[str, object],
    run: Callable[[], RunStats],
    retry: RetryPolicy,
) -> "tuple[Optional[RunStats], Optional[QuarantineRecord]]":
    """Run one cell under the retry policy; (stats, None) on success."""
    last_exc: Optional[BaseException] = None
    for attempt in range(retry.max_attempts):
        try:
            return call_with_timeout(run, retry.timeout_s), None
        except KeyboardInterrupt:
            raise
        except Exception as exc:  # noqa: BLE001 - quarantine, don't abort
            last_exc = exc
    return None, QuarantineRecord(
        label=label,
        replay=replay,
        error_type=type(last_exc).__name__,
        error=str(last_exc),
        attempts=retry.max_attempts,
    )


@dataclass
class ResilientSweepReport:
    """Outcome of a crash-tolerant campaign."""

    results: "object"  # SweepResults (typed loosely: no harness import)
    quarantined: List[QuarantineRecord] = field(default_factory=list)
    #: Cells served from the checkpoint instead of being re-run.
    resumed: int = 0
    executed: int = 0

    @property
    def ok(self) -> bool:
        return not self.quarantined

    def render(self) -> str:
        lines = [
            f"resilient sweep: {len(self.results)} cell(s) complete "
            f"({self.resumed} resumed, {self.executed} executed), "
            f"{len(self.quarantined)} quarantined"
        ]
        lines.extend(f"  {q.render()}" for q in self.quarantined[:10])
        return "\n".join(lines)


def _run_resilient(
    cells: Sequence[Tuple[str, Dict[str, object], Callable[[], CellTask]]],
    checkpoint_path: Optional[str],
    retry: Optional[RetryPolicy],
    fault_plan,
    watchdog,
    cache,
    on_cell: Optional[Callable[[int], None]] = None,
) -> "tuple[List[Optional[RunStats]], ResilientSweepReport]":
    """The one crash-tolerant cell loop behind both public entry points.

    ``cells`` are ``(label, replay, make_task)`` triples; ``make_task``
    resolves the cell's spec under the retry policy, so a resolver error
    quarantines only its own cell.  A cell is served from the checkpoint
    (keyed by its run-cache key, plus the fault-plan name when a plan is
    set), then from the run cache (bypassed under a fault plan: a chaos
    run is not the cell's true result), and otherwise executed under the
    retry policy; results are journaled as they complete.  Returns the
    per-cell stats (``None`` for quarantined cells) and a report whose
    ``results`` the caller fills in.  ``on_cell(i)`` fires after cell
    ``i`` settles.
    """
    retry = retry or RetryPolicy()
    ckpt = (
        SweepCheckpoint.load(checkpoint_path) if checkpoint_path else None
    )
    rc = coerce_cache(cache) if fault_plan is None else None
    plan_name = fault_plan.name if fault_plan is not None else None
    report = ResilientSweepReport(results=None)
    out: List[Optional[RunStats]] = []
    for i, (label, replay, make_task) in enumerate(cells):
        replay = {**replay, "fault_plan": plan_name}
        stats = None
        task, record = _attempt_cell(label, replay, make_task, retry)
        if task is not None:
            key = task.key() + (f"+{plan_name}" if plan_name else "")
            journaled = ckpt is not None and ckpt.has(key)
            if journaled:
                stats = ckpt.get(key)
            elif rc is not None:
                stats = rc.get(task.key())
            if stats is not None:
                report.resumed += 1
            else:
                run = functools.partial(
                    simulate, task, fault_plan=fault_plan, watchdog=watchdog
                )
                stats, record = _attempt_cell(label, replay, run, retry)
                if stats is not None and rc is not None:
                    store(rc, task, stats)
            if stats is not None and ckpt is not None and not journaled:
                ckpt.put(key, stats, meta=replay)
                ckpt.save()
        if stats is None:
            report.quarantined.append(record)
            if ckpt is not None:
                ckpt.quarantine(record)
                ckpt.save()
        out.append(stats)
        if on_cell is not None:
            on_cell(i)
    report.executed = len(out) - report.resumed
    return out, report


def run_sweep_resilient(
    sweep,
    checkpoint_path: Optional[str] = None,
    retry: Optional[RetryPolicy] = None,
    progress: Optional[Callable] = None,
    fault_plan=None,
    watchdog=None,
    cache=None,
) -> ResilientSweepReport:
    """Crash-tolerant version of :meth:`repro.harness.sweeps.Sweep.run`.

    Every cell runs under the retry policy; failures are quarantined
    with full replay coordinates instead of killing the campaign, and —
    with ``checkpoint_path`` — completed cells are persisted after each
    run so an interrupted campaign resumes where it stopped.  ``cache``
    additionally consults/fills the global run cache
    (:mod:`repro.harness.runcache`); it composes with the checkpoint —
    the checkpoint is this campaign's resume journal, the cache a memo
    shared across campaigns.  Fault-injected cells bypass the cache
    entirely: a chaos run is not the cell's true result.
    """
    from repro.harness.sweeps import SweepRecord, SweepResults

    points = list(sweep.points())
    cells = [
        (
            point.label(),
            {
                "workload": point.workload,
                "system": point.system,
                "threads": point.threads,
                "seed": point.seed,
                "params_tag": point.params_tag,
                "scale": sweep.scale,
            },
            functools.partial(sweep._task, i, point),
        )
        for i, point in enumerate(points)
    ]
    on_cell = None
    if progress is not None:
        def on_cell(i: int) -> None:
            progress(points[i], i + 1, len(points))

    stats, report = _run_resilient(
        cells, checkpoint_path, retry, fault_plan, watchdog, cache, on_cell
    )
    report.results = SweepResults(
        [SweepRecord(p, s) for p, s in zip(points, stats) if s is not None]
    )
    return report


def resilient_seed_runs(
    workload: str,
    system: str,
    threads: int,
    seeds: Sequence[int],
    scale: float = 0.25,
    params=None,
    retry: Optional[RetryPolicy] = None,
    checkpoint_path: Optional[str] = None,
    fault_plan=None,
    watchdog=None,
    cache=None,
) -> "tuple[List[RunStats], List[QuarantineRecord]]":
    """Crash-tolerant multi-seed runs (cf. ``multiseed.multi_seed_runs``).

    Returns the completed runs (in seed order, failed seeds omitted)
    and the quarantine list.  With ``checkpoint_path``, completed seeds
    persist across interruptions.  ``cache`` consults/fills the global
    run cache; fault-injected runs bypass it.
    """
    from repro.common.params import typical_params
    from repro.harness.systems import get_system

    run_params = params or typical_params()

    def make_task(index: int, seed: int) -> CellTask:
        return CellTask(
            index,
            workload,
            get_system(system),
            threads,
            scale,
            seed,
            run_params,
        )

    cells = [
        (
            f"{workload}/{system}/t{threads}/s{seed}",
            {
                "workload": workload,
                "system": system,
                "threads": threads,
                "seed": seed,
                "scale": scale,
            },
            functools.partial(make_task, i, seed),
        )
        for i, seed in enumerate(seeds)
    ]
    stats, report = _run_resilient(
        cells, checkpoint_path, retry, fault_plan, watchdog, cache
    )
    return [s for s in stats if s is not None], report.quarantined
