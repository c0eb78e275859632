"""The two simulator workloads: ``paper-grid`` and ``low-contention``.

A *pass* is one cold regeneration of the workload's grid: the build
cache and machine pool are emptied, then ``Sweep.run(jobs=1)`` executes
every (kernel, system) cell at 32 threads with ``run_workload``'s sanity
checks on and no run cache.  The seed only permutes the kernel and
system axes, so every run simulates the same cells and must produce the
same per-cell digest; the pass order is the same within a run, so each
cell pays the same share of cold builds in every pass.

Per-cell wall times come from ``Sweep.run``'s progress callback, which
also runs one host-speed reference slice after each cell (outside the
cell's time) to give the pass its correction factor (see hostspeed).
A per-cell census reads each machine's engine-event and NoC counters
when the pool takes it back, one attribute read per cell.  ``wall_s``
is the median over the run's passes of the corrected pass time.
"""

from __future__ import annotations

import contextlib
import random
import time
import traceback
from typing import Dict, Iterator, List, Optional, Tuple

import helpers
from common import SERVICE_LAYERS, cold_start, peak_rss_mb
from hostspeed import SpeedProbe
from tracing import Tracer

class Census:
    """Per-cell counters read off each machine as the pool takes it back."""

    FIELDS = ("events", "noc_messages", "noc_flits", "signature_spills")

    def __init__(self) -> None:
        self.rows: List[Tuple[int, int, int, int]] = []

    @contextlib.contextmanager
    def attached(self, pool) -> Iterator[None]:
        original = pool.release

        def release(machine):
            self.rows.append((
                machine.engine.events_processed,
                machine.network.messages_sent,
                machine.network.flits_sent,
                machine.memsys.signature_spills,
            ))
            original(machine)

        pool.release = release
        try:
            yield
        finally:
            del pool.release

    def totals(self) -> Dict[str, int]:
        return {
            name: sum(row[i] for row in self.rows)
            for i, name in enumerate(self.FIELDS)
        }


class PassResult:
    def __init__(self, cell_s: Dict[str, float], records, census: Census,
                 pool_counts: Tuple[int, int], factor: float) -> None:
        #: Raw seconds per cell label, reference slices excluded.
        self.cell_s = cell_s
        self.wall = sum(cell_s.values())
        self.records = records
        self.census = census
        #: (machines built, machines reused) by the pool in this pass.
        self.pool_counts = pool_counts
        #: Raw seconds -> nominal-host seconds (see hostspeed).
        self.factor = factor

    def digest(self) -> str:
        return helpers.cell_digest(
            (r.point.label(), r.stats.execution_cycles, r.stats.commits,
             r.stats.total_aborts)
            for r in self.records
        )


def run_pass(spec: Dict, order: Tuple[List[str], List[str]]) -> PassResult:
    from repro.harness.sweeps import Sweep
    from repro.sim.pool import global_pool

    workloads, systems = order
    sweep = Sweep(
        workloads=workloads, systems=systems, threads=(spec["threads"],),
        seeds=(spec["sim_seed"],), scale=spec["scale"],
    )
    cold_start()
    pool = global_pool()
    builds, reuses = pool.builds, pool.reuses
    census = Census()
    probe = SpeedProbe()
    cell_s: Dict[str, float] = {}
    last = [0.0]

    def progress(point, _done, _total):
        # One reference slice after every cell, outside the cell's time.
        cell_s[point.label()] = time.perf_counter() - last[0]
        probe.sample()
        last[0] = time.perf_counter()

    with census.attached(pool):
        last[0] = time.perf_counter()
        results = sweep.run(progress=progress, jobs=1)
    return PassResult(cell_s, results.records, census,
                      (pool.builds - builds, pool.reuses - reuses),
                      probe.factor)


def traced_pass(spec, order, tracer: Tracer) -> PassResult:
    with tracer.installed(sim_targets()):
        return run_pass(spec, order)


def sim_targets():
    """Public layer functions wrapped in the traced pass."""
    import repro.harness.parallel as parallel
    from repro.coherence.memsys import MemorySystem
    from repro.core.conflict import ConflictManager
    from repro.interconnect.network import NetworkModel
    from repro.sim.engine import SimEngine
    from repro.sim.pool import MachinePool
    from repro.workloads.base import Workload, WorkloadBuild

    return [
        (parallel, "execute_cell", "harness.cell"),
        (Workload, "build", "workloads.build"),
        (MachinePool, "acquire", "pool.acquire"),
        (SimEngine, "run", "engine.run"),
        (MemorySystem, "access", "memsys.access"),
        (ConflictManager, "resolve", "conflict.resolve"),
        (NetworkModel, "latency", "noc.price"),
        (NetworkModel, "control_latency", "noc.price"),
        (NetworkModel, "data_latency", "noc.price"),
        (WorkloadBuild, "verify", "runner.check"),
        (MemorySystem, "check_quiescent", "runner.check"),
    ]


def layer_metrics(spans, records, census: Census,
                  pool_counts: Tuple[int, int]
                  ) -> Dict[str, Tuple[float, str]]:
    """Per-layer numbers from one traced pass (or traced cell set)."""
    total = helpers.total_times(spans)
    own = helpers.self_times(spans)
    counts: Dict[str, int] = {}
    for name, _s, _e, _p in spans:
        counts[name] = counts.get(name, 0) + 1
    c = census.totals()
    merged = [r.stats.merged() for r in records]
    attempts = sum(m.tx_attempts for m in merged)
    commits = sum(m.commits for m in merged)
    l1_hits = sum(m.l1_hits for m in merged)
    l1_misses = sum(m.l1_misses for m in merged)
    accesses = counts.get("memsys.access", 0)
    resolves = counts.get("conflict.resolve", 0)
    cells_ms = [d * 1e3 for d in helpers.durations(spans, "harness.cell")]
    builds, reuses = pool_counts
    return {
        "engine.events": (c["events"], "count"),
        "engine.self_s": (own.get("engine.run", 0.0), "s"),
        "memsys.accesses": (accesses, "count"),
        "memsys.access_s": (total.get("memsys.access", 0.0), "s"),
        "memsys.self_s": (own.get("memsys.access", 0.0), "s"),
        "memsys.l1_hit_ratio": (
            l1_hits / (l1_hits + l1_misses) if l1_hits + l1_misses else 0.0,
            "ratio"),
        "conflict.resolves": (resolves, "count"),
        "conflict.resolve_s": (total.get("conflict.resolve", 0.0), "s"),
        "conflict.resolves_per_access": (
            resolves / accesses if accesses else 0.0, "ratio"),
        "htm.commit_rate": (commits / attempts if attempts else 0.0,
                            "ratio"),
        "htm.aborts": (sum(m.total_aborts for m in merged), "count"),
        "htm.nacks": (sum(m.rejects_received for m in merged), "count"),
        "htm.wakeups": (sum(m.wakeups_sent for m in merged), "count"),
        "htm.fallback_entries": (sum(m.fallback_entries for m in merged),
                                 "count"),
        "htm.switch_successes": (sum(m.switch_successes for m in merged),
                                 "count"),
        "htm.signature_spills": (c["signature_spills"], "count"),
        "noc.messages": (c["noc_messages"], "count"),
        "noc.flits": (c["noc_flits"], "count"),
        "noc.price_calls": (counts.get("noc.price", 0), "count"),
        "noc.price_s": (total.get("noc.price", 0.0), "s"),
        "workloads.build_s": (total.get("workloads.build", 0.0), "s"),
        "pool.acquire_s": (total.get("pool.acquire", 0.0), "s"),
        "pool.reuse_ratio": (
            reuses / (builds + reuses) if builds + reuses else 0.0, "ratio"),
        "runner.check_s": (total.get("runner.check", 0.0), "s"),
        "harness.cell_p50_ms": (
            helpers.percentile(cells_ms, 50) if cells_ms else 0.0, "ms"),
        "harness.cell_max_ms": (max(cells_ms) if cells_ms else 0.0, "ms"),
    }


def run(spec: Dict, seed: int, seconds: float, trace: bool,
        setup_times: List[float]) -> Tuple[bool, int, int, Dict, Dict]:
    """Run one simulator workload; returns (correct, attempted, failed,
    metrics, detail)."""
    from repro import system_names

    rng = random.Random(seed)
    workloads = list(spec["kernels"])
    systems = list(system_names())  # the nine Table-II systems
    rng.shuffle(workloads)
    rng.shuffle(systems)
    order = (workloads, systems)
    cells = len(workloads) * len(systems)

    passes: List[PassResult] = []
    attempted = failed = 0
    problems: List[str] = []
    start = time.perf_counter()
    min_passes = 1 if trace else spec["min_passes"]

    def one(fn, *args) -> Optional[PassResult]:
        nonlocal attempted, failed
        attempted += cells
        try:
            result = fn(*args)
        except Exception as exc:  # noqa: BLE001 - reported as failed cells
            traceback.print_exc()
            failed += cells
            problems.append(f"{type(exc).__name__}: {exc}")
            return None
        digest = result.digest()
        if digest != spec["expected_digest"]:
            problems.append(
                f"digest {digest} != expected {spec['expected_digest']}"
            )
        return result

    last_pass_s = 0.0
    while len(passes) < min_passes or (
        not trace and time.perf_counter() - start + last_pass_s <= seconds
    ):
        t0 = time.perf_counter()
        result = one(run_pass, spec, order)
        if result is None:
            break
        passes.append(result)
        last_pass_s = time.perf_counter() - t0

    detail: Dict = {"raw_pass_s": [round(p.wall, 4) for p in passes],
                    "host_factors": [round(p.factor, 4) for p in passes],
                    "problems": problems}
    if not passes:
        return False, attempted, failed, {}, detail
    detail["digest"] = passes[0].digest()
    events = passes[0].census.totals()["events"]
    if any(p.census.totals()["events"] != events for p in passes):
        problems.append("engine event counts differ between passes")

    if trace:
        tracer = Tracer()
        traced = one(traced_pass, spec, order, tracer)
        if traced is None:
            return False, attempted, failed, {}, detail
        metrics = layer_metrics(tracer.spans(), traced.records,
                                traced.census, traced.pool_counts)
        # No service runs here: its layers do no work.
        metrics.update((name, (0.0, unit)) for name, unit in SERVICE_LAYERS)
        metrics["trace.overhead_s"] = (traced.wall - passes[0].wall, "s")
        detail["spans"] = len(tracer)
        detail["tracer"] = tracer
        detail["raw_traced_pass_s"] = round(traced.wall, 4)
    else:
        wall = helpers.median([p.wall * p.factor for p in passes])
        samples_ms = [p.cell_s[label] * p.factor * 1e3
                      for p in passes for label in p.cell_s]
        check_tail(samples_ms, detail, problems)
        vs_base, vs_losa = helpers.speedups(
            {(r.point.workload, r.point.system): r.stats.execution_cycles
             for r in passes[0].records},
            "LockillerTM", ("Baseline", "LosaTM-SAFU"),
        )
        metrics = {
            "wall_s": (wall, "s"),
            "us_per_event": (wall / events * 1e6, "us"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "speedup_vs_baseline": (vs_base, "x"),
            "speedup_vs_losatm": (vs_losa, "x"),
            "op_p50_ms": (helpers.percentile(samples_ms, 50), "ms"),
            "op_p90_ms": (helpers.percentile(samples_ms, 90), "ms"),
            "ops_per_s": (cells / wall, "1/s"),
            "setup_s": (helpers.median(setup_times), "s"),
        }
    return not problems, attempted, failed, metrics, detail


def check_tail(samples: List[float], detail: Dict,
               problems: List[str]) -> None:
    """op_p90_ms needs at least MIN_BEYOND samples beyond it."""
    tail = helpers.tail_percentile(len(samples))
    detail["op_samples"] = len(samples)
    detail["op_tail_percentile"] = tail
    if tail is None or tail < 90:
        problems.append(f"{len(samples)} op samples leave fewer than "
                        f"{helpers.MIN_BEYOND} beyond p90")
