"""Coalesced vs per-op stepping must be *bit-identical*.

Compute-burst coalescing (repro.htm.isa.coalesce_ops + the burst paths
in repro.sim.cpu) is a pure scheduling optimization: it folds chains of
per-op continuations into single engine events while preserving every
architecturally visible boundary — instruction retirement (the
insts-based priority input), abort/replay points, and same-cycle event
ordering via virtual allocation times.  These tests run the same cells
with ``coalesce`` on and off and require *identical* cycle counts and
per-core statistics, including the abort/replay billing that exercises
the mid-burst external-abort checkpoint machinery.
"""

import pytest

from repro.harness.systems import get_system
from repro.sim.runner import RunConfig, run_workload
from repro.workloads.registry import get_workload


def _stats_fingerprint(stats):
    """Everything architecturally visible, per core, as one structure."""
    cores = []
    for cs in stats.cores:
        cores.append(
            (
                {c.name: v for c, v in cs.time.items()},
                {r.name: v for r, v in cs.aborts.items()},
                cs.commits_htm,
                cs.commits_lock,
                cs.commits_switched,
                cs.tx_attempts,
                cs.fallback_entries,
                cs.switch_attempts,
                cs.switch_successes,
                cs.rejects_received,
                cs.rejects_issued,
                cs.wakeups_sent,
                cs.wakeup_timeouts,
                cs.loads,
                cs.stores,
                cs.l1_hits,
                cs.l1_misses,
                cs.l2_hits,
                (
                    dict(cs.commit_latency_hist.buckets),
                    cs.commit_latency_hist.count,
                    cs.commit_latency_hist.total,
                ),
            )
        )
    return stats.execution_cycles, cores


def _run(workload, system, threads, scale, seed, coalesce):
    return run_workload(
        get_workload(workload),
        RunConfig(
            spec=get_system(system),
            threads=threads,
            scale=scale,
            seed=seed,
            coalesce=coalesce,
        ),
    )


# High-contention cells abort and replay constantly, which is exactly
# where mid-burst external aborts and replay billing can diverge.
CELLS = [
    ("intruder", "LockillerTM", 4, 0.05, 3),
    ("intruder", "Baseline", 4, 0.05, 3),
    ("vacation+", "LockillerTM-RWIL", 4, 0.05, 1),
    ("kmeans+", "CGL", 2, 0.05, 2),
    ("yada", "LosaTM-SAFU", 4, 0.05, 5),
    # 32 threads: a mid-cycle abort checkpoint schedules a zero-delay
    # event whose vtime precedes same-cycle events already queued.
    ("yada", "LockillerTM-RWI", 32, 0.05, 3),
]


@pytest.mark.parametrize(
    "workload,system,threads,scale,seed",
    CELLS,
    ids=[f"{w}-{s}" for w, s, *_ in CELLS],
)
def test_coalesced_matches_per_op(workload, system, threads, scale, seed):
    a = _run(workload, system, threads, scale, seed, coalesce=True)
    b = _run(workload, system, threads, scale, seed, coalesce=False)
    assert _stats_fingerprint(a) == _stats_fingerprint(b)


def test_equivalence_cells_actually_abort():
    """Guard the guard: the contended cells must really abort/replay.

    If a parameter change ever made these cells conflict-free, the
    equivalence suite would silently stop covering the mid-burst abort
    checkpoint path; fail loudly instead.
    """
    stats = _run("intruder", "LockillerTM", 4, 0.05, 3, coalesce=True)
    total_aborts = sum(
        v for cs in stats.cores for v in cs.aborts.values()
    )
    assert total_aborts > 0

