"""The ``service-campaigns`` workload: a closed loop against the service.

One load process runs ``clients`` threads, one tenant each.  Every
thread submits its share of a seeded stream of small sweep campaigns to
an in-process :class:`ServiceThread`, follows the job's NDJSON feed with
``ServiceClient.stream(follow=True)`` and timestamps each event as it
arrives, then fetches the results and submits its next campaign.  The
campaigns draw their cells from a bounded universe that every round
asks for twice, so half the cell lookups are served without executing:
as store hits, or by joining a cell already in flight.

A *round* replays the whole stream against a fresh service state and
store directory; ``wall_s`` is the median round wall time, corrected
for host speed by reference slices taken just before and after the
round (see hostspeed).  After the rounds, every cell of the universe is
run directly through ``execute_cell`` and each served fingerprint must
equal the direct one.
"""

from __future__ import annotations

import contextlib
import os
import random
import shutil
import threading
import time
import traceback
from typing import Dict, List, Optional, Tuple

import helpers
from common import BenchError, cold_start, peak_rss_mb, work_dir
from hostspeed import SpeedProbe
from sim_workloads import Census, check_tail, layer_metrics, sim_targets
from tracing import Tracer

#: A campaign normally completes in tens of milliseconds; a request
#: stuck this long fails its round instead of stalling the run.
CLIENT_TIMEOUT_S = 30.0

#: Host-speed reference slices taken before and after each round.
REF_SLICES = 5

#: Fixed seed of the campaign order template (see campaign_stream).
TEMPLATE_SEED = 0


def campaign_stream(spec: Dict, seed: int) -> List[Dict]:
    """The campaigns one round submits, in order.

    Each campaign pairs two neighbouring kernels (cyclically) on one
    system and one simulation seed, so every universe cell is asked for
    by exactly two campaigns: half the cell lookups can be served
    without executing.  The order is a fixed shuffle, so which campaign
    positions share a cell (a store hit, or a join of a cell in flight)
    is the same for every seed; the seed relabels the kernels, systems
    and simulation seeds that fill the positions.  Every seed therefore
    runs the same cells with the same sharing pattern.
    """
    rng = random.Random(seed)
    kernels, systems, sim_seeds = (
        rng.sample(spec[axis], len(spec[axis]))
        for axis in ("kernels", "systems", "sim_seeds")
    )
    out = [
        {
            "kind": "sweep",
            "workloads": sorted({kernels[i],
                                 kernels[(i + 1) % len(kernels)]}),
            "systems": [system],
            "threads": [spec["threads"]],
            "seeds": [sim_seed],
            "scale": spec["scale"],
        }
        for sim_seed in sim_seeds
        for system in systems
        for i in range(len(kernels))
    ]
    random.Random(TEMPLATE_SEED).shuffle(out)
    return out


class Campaign:
    """What one client observed for one campaign."""

    __slots__ = ("latency_s", "queue_wait_s", "cell_s", "state", "cells",
                 "deduped", "fingerprints")

    def __init__(self) -> None:
        self.latency_s = 0.0
        self.queue_wait_s: Optional[float] = None
        self.cell_s: List[float] = []
        self.state = "rejected"
        self.cells = 0
        self.deduped = 0
        self.fingerprints: Dict[str, str] = {}


def run_campaign(client, tenant: str, campaign: Dict) -> Campaign:
    from repro.service.client import ServiceError

    seen = Campaign()
    t0 = time.perf_counter()
    try:
        job = client.submit(campaign, tenant=tenant)
    except ServiceError as exc:
        if exc.is_backpressure:
            return seen
        raise
    acked = time.perf_counter()
    scheduled: Dict[int, float] = {}
    # Stop at the terminal event instead of waiting for the server to
    # close the feed: the service forks its pool workers on the first
    # executed cell, and they inherit every socket open at that moment,
    # so a feed connection open then is never closed while they live.
    with contextlib.closing(client.stream(job["job_id"], follow=True)) \
            as events:
        for event in events:
            now = time.perf_counter()
            kind = event["event"]
            if kind.startswith("cell_"):
                if seen.queue_wait_s is None:
                    seen.queue_wait_s = now - acked
                if kind == "cell_scheduled":
                    scheduled[event["index"]] = now
                elif kind == "cell_deduped":
                    seen.deduped += 1
                elif kind == "cell_done" and event["source"] == "executed":
                    seen.cell_s.append(now - scheduled[event["index"]])
            elif kind.startswith("job_"):
                seen.latency_s = now - t0
                seen.state = kind[len("job_"):]
                break
    results = client.results(job["job_id"], lite=True)
    seen.cells = len(results["cells"])
    seen.fingerprints = {
        cell["key"]: cell.get("fingerprint", "") for cell in results["cells"]
    }
    return seen


class Round:
    def __init__(self, wall: float, campaigns: List[Campaign],
                 stats: Dict, factor: float) -> None:
        #: Raw seconds from the first submit to the last campaign's end.
        self.wall = wall
        self.campaigns = campaigns
        self.stats = stats
        #: Raw seconds -> nominal-host seconds (see hostspeed).
        self.factor = factor


def run_round(spec: Dict, stream: List[Dict], index: int) -> Round:
    """Replay ``stream`` against a fresh service; clients split it."""
    from repro.service.client import ServiceClient
    from repro.service.server import ServiceConfig, ServiceThread

    state = os.path.join(work_dir("service"), f"{os.getpid()}-{index}")
    shutil.rmtree(state, ignore_errors=True)
    speed = SpeedProbe()
    speed.sample(REF_SLICES)
    clients = spec["clients"]
    observed: List[List[Campaign]] = [[] for _ in range(clients)]
    errors: List[BaseException] = []
    try:
        with ServiceThread(ServiceConfig(state_dir=state,
                                         jobs=spec["workers"])) as svc:
            client = ServiceClient(svc.host, svc.port,
                                   timeout=CLIENT_TIMEOUT_S)

            def load(i: int) -> None:
                try:
                    for campaign in stream[i::clients]:
                        observed[i].append(
                            run_campaign(client, f"tenant-{i}", campaign)
                        )
                except BaseException as exc:  # noqa: BLE001 - re-raised
                    errors.append(exc)

            threads = [threading.Thread(target=load, args=(i,), daemon=True)
                       for i in range(clients)]
            t0 = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=150)
            wall = time.perf_counter() - t0
            if any(t.is_alive() for t in threads):
                raise BenchError("service clients did not finish in time")
            stats = client.stats()
    finally:
        shutil.rmtree(state, ignore_errors=True)
    if errors:
        raise errors[0]
    speed.sample(REF_SLICES)
    return Round(wall, [c for obs in observed for c in obs], stats,
                 speed.factor)


def service_targets():
    from repro.service.client import ServiceClient
    from repro.service.server import ReproService
    from repro.service.store import ShardedStore

    return [
        (ReproService, "submit", "service.submit"),
        (ShardedStore, "get", "store.get"),
        (ShardedStore, "put", "store.put"),
        (ServiceClient, "results", "service.results"),
    ]


def universe(spec: Dict) -> List[Tuple[str, str, int]]:
    return [(wl, system, seed) for wl in spec["kernels"]
            for system in spec["systems"] for seed in spec["sim_seeds"]]


def direct_universe(spec: Dict):
    """Run every universe cell through ``execute_cell`` in-process.

    Returns ({cell key: (fingerprint, events)}, records, census,
    (machines built, machines reused)).
    """
    from repro import get_system, typical_params
    from repro.harness.export import fingerprint
    from repro.harness.parallel import CellTask, execute_cell
    from repro.harness.runcache import cell_key
    from repro.harness.sweeps import SweepPoint, SweepRecord
    from repro.sim.pool import global_pool

    cold_start()
    pool = global_pool()
    builds, reuses = pool.builds, pool.reuses
    params = typical_params()
    census = Census()
    out: Dict[str, Tuple[str, int]] = {}
    records = []
    with census.attached(pool):
        for i, (wl, system, seed) in enumerate(universe(spec)):
            sys_spec = get_system(system)
            _, stats = execute_cell(CellTask(
                i, wl, sys_spec, spec["threads"], spec["scale"], seed, params
            ))
            key = cell_key(wl, sys_spec, params, spec["threads"],
                           spec["scale"], seed)
            out[key] = (fingerprint(stats), census.rows[-1][0])
            records.append(SweepRecord(
                SweepPoint(wl, system, spec["threads"], seed), stats
            ))
    return out, records, census, (pool.builds - builds,
                                  pool.reuses - reuses)


def run(spec: Dict, seed: int, seconds: float, trace: bool,
        setup_times: List[float]):
    stream = campaign_stream(spec, seed)
    start = time.perf_counter()
    plain: List[Round] = []
    traced: List[Round] = []
    tracer = Tracer() if trace else None
    attempted = failed = 0
    problems: List[str] = []

    def one(index: int, with_tracer: bool) -> Optional[Round]:
        nonlocal attempted, failed
        attempted += len(stream)
        try:
            if with_tracer:
                with tracer.installed(service_targets()):
                    rnd = run_round(spec, stream, index)
            else:
                rnd = run_round(spec, stream, index)
        except Exception as exc:  # noqa: BLE001 - reported as failures
            traceback.print_exc()
            failed += len(stream)
            problems.append(f"{type(exc).__name__}: {exc}")
            return None
        bad = [c for c in rnd.campaigns if c.state != "done"]
        failed += len(bad) + len(stream) - len(rnd.campaigns)
        return rnd

    index = 0
    while True:
        with_tracer = trace and index % 2 == 1
        rnd = one(index, with_tracer)
        index += 1
        if rnd is None:
            break
        (traced if with_tracer else plain).append(rnd)
        elapsed = time.perf_counter() - start
        enough = len(plain) >= spec["min_rounds"] and (
            not trace or len(traced) >= spec["min_rounds"])
        if enough and elapsed + rnd.wall > seconds:
            break
        if elapsed > 3 * seconds:
            break
    rounds = plain + traced

    # Output checks: one fingerprint per key across every campaign, and
    # each equal to a direct execute_cell of that cell.
    served: Dict[str, str] = {}
    for rnd in rounds:
        for c in rnd.campaigns:
            for key, fp in c.fingerprints.items():
                if served.setdefault(key, fp) != fp:
                    problems.append(f"cell {key[:12]} served two results")
    if trace:
        with tracer.installed(sim_targets()):
            direct, records, census, pool_counts = direct_universe(spec)
    else:
        direct, records, census, pool_counts = direct_universe(spec)
    for key, fp in served.items():
        if key not in direct:
            problems.append(f"served cell {key[:12]} is outside the universe")
        elif direct[key][0] != fp:
            problems.append(f"cell {key[:12]} differs from execute_cell")
    digest = helpers.cell_digest(
        (r.point.label(), r.stats.execution_cycles, r.stats.commits,
         r.stats.total_aborts) for r in records
    )
    if digest != spec["expected_digest"]:
        problems.append(f"digest {digest} != expected "
                        f"{spec['expected_digest']}")

    campaigns = [c for rnd in rounds for c in rnd.campaigns]
    lookups = sum(c.cells for c in campaigns)
    cache_hits = sum(rnd.stats["store"]["hits"] for rnd in rounds)
    store_lookups = cache_hits + sum(rnd.stats["store"]["misses"]
                                     for rnd in rounds)
    executed = sum(rnd.stats["cells_executed"] for rnd in rounds)
    detail: Dict = {
        "digest": digest,
        "raw_round_s": [round(r.wall, 4) for r in plain],
        "host_factors": [round(r.factor, 4) for r in plain],
        "raw_traced_round_s": [round(r.wall, 4) for r in traced],
        "campaigns": len(campaigns),
        "cell_lookups": lookups,
        "served_without_execution": round(1 - executed / lookups, 4)
        if lookups else 0.0,
        "problems": problems,
    }
    if not plain:
        return False, attempted, failed, {}, detail

    if trace:
        spans = tracer.spans()
        ms = {name: [d * 1e3 for d in helpers.durations(spans, name)]
              for name in ("service.submit", "store.get", "store.put",
                           "service.results")}
        seen = [c for rnd in traced for c in rnd.campaigns]
        waits = [c.queue_wait_s * 1e3 for c in seen
                 if c.queue_wait_s is not None]
        cells_ms = [s * 1e3 for c in seen for s in c.cell_s]
        t_hits = sum(r.stats["store"]["hits"] for r in traced)
        t_lookups = t_hits + sum(r.stats["store"]["misses"] for r in traced)
        t_cells = sum(c.cells for c in seen)
        metrics = layer_metrics(spans, records, census, pool_counts)
        metrics.update({
            "service.submit_ms": (_med(ms["service.submit"]), "ms"),
            "service.queue_wait_ms": (_med(waits), "ms"),
            "service.cell_ms": (_med(cells_ms), "ms"),
            "service.results_ms": (_med(ms["service.results"]), "ms"),
            "store.get_ms": (_med(ms["store.get"]), "ms"),
            "store.put_ms": (_med(ms["store.put"]), "ms"),
            "store.hit_ratio": (t_hits / t_lookups if t_lookups else 0.0,
                                "ratio"),
            "dedup.inflight_ratio": (
                sum(c.deduped for c in seen) / t_cells if t_cells else 0.0,
                "ratio"),
            "service.rejected_submits": (
                sum(1 for c in seen if c.state == "rejected"), "count"),
            "trace.overhead_s": (
                helpers.median([r.wall for r in traced])
                - helpers.median([r.wall for r in plain]), "s"),
        })
        detail["tracer"] = tracer
        detail["spans"] = len(tracer)
        return not problems, attempted, failed, metrics, detail

    latencies = [c.latency_s * r.factor * 1e3 for r in plain
                 for c in r.campaigns if c.state == "done"]
    check_tail(latencies, detail, problems)
    wall = helpers.median([r.wall * r.factor for r in plain])
    events = sum(direct[key][1] for key in served if key in direct)
    vs_base, vs_losa = helpers.speedups(
        {((r.point.workload, r.point.seed), r.point.system):
         r.stats.execution_cycles for r in records},
        "LockillerTM", ("Baseline", "LosaTM-SAFU"),
    )
    detail["store_hit_ratio"] = round(cache_hits / store_lookups, 4) \
        if store_lookups else 0.0
    metrics = {
        "wall_s": (wall, "s"),
        "us_per_event": (wall / events * 1e6, "us"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "speedup_vs_baseline": (vs_base, "x"),
        "speedup_vs_losatm": (vs_losa, "x"),
        "op_p50_ms": (helpers.percentile(latencies, 50), "ms"),
        "op_p90_ms": (helpers.percentile(latencies, 90), "ms"),
        "ops_per_s": (len(stream) / wall, "1/s"),
        "setup_s": (helpers.median(setup_times), "s"),
    }
    return not problems, attempted, failed, metrics, detail


def _med(values: List[float]) -> float:
    return helpers.median(values) if values else 0.0
