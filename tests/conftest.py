"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.common.params import (
    CacheParams,
    SystemParams,
    small_cache_params,
    typical_params,
)
from repro.common.stats import RunStats
from repro.core.policies import PriorityKind, RequesterPolicy, SystemSpec
from repro.harness.systems import get_system
from repro.htm.isa import Plain, Txn, compute, load, store
from repro.sim.machine import Machine
from repro.workloads.registry import get_workload


@pytest.fixture
def params() -> SystemParams:
    return typical_params()


@pytest.fixture
def small_params() -> SystemParams:
    return small_cache_params()


@pytest.fixture
def tiny_l1() -> CacheParams:
    """A 4-set, 2-way toy L1 for deterministic replacement tests."""
    return CacheParams(size_bytes=8 * 64, assoc=2, hit_latency=2)


def make_machine(
    programs,
    system: str = "Baseline",
    params: SystemParams = None,
    seed: int = 0,
) -> Machine:
    return Machine(
        params or typical_params(), get_system(system), programs, seed=seed
    )


def idle_machine(n_cores: int = 4, system: str = "Baseline", **kw) -> Machine:
    """A machine whose cores have empty programs (for direct memsys use)."""
    return make_machine([[] for _ in range(n_cores)], system=system, **kw)


def line_addr(line: int) -> int:
    return line << 6


def spec_with(**kw) -> SystemSpec:
    base = dict(
        name="test",
        use_htm=True,
        recovery=True,
        requester_policy=RequesterPolicy.WAIT_WAKEUP,
        priority_kind=PriorityKind.INSTS,
    )
    base.update(kw)
    return SystemSpec(**base)


def simple_txn(lines_read, lines_written, tag="t") -> Txn:
    ops = [compute(3)]
    ops += [load(line_addr(ln)) for ln in lines_read]
    ops += [store(line_addr(ln), 1) for ln in lines_written]
    return Txn(ops, tag=tag)


def plain_compute(cycles: int = 10) -> Plain:
    return Plain([compute(cycles)])


def run_cell(cell: str, fault_plan=None):
    """Run one ``workload/system/threads/scale/seed`` cell on a fresh
    machine; return ``(RunStats, machine)``."""
    wl, system, threads, scale, seed = cell.split("/")
    build = get_workload(wl).build(int(threads), float(scale), int(seed))
    machine = Machine(
        typical_params(), get_system(system), build.programs,
        seed=int(seed), fault_plan=fault_plan,
    )
    stats = RunStats(execution_cycles=machine.run(), cores=machine.core_stats)
    assert not build.verify(machine.memsys.memory)
    assert not machine.memsys.check_quiescent()
    return stats, machine


def mechanism_counters(stats, machine):
    merged = stats.merged()
    return {
        "nacks": merged.rejects_received,
        "wakeups": merged.wakeups_sent,
        "fallback_entries": merged.fallback_entries,
        "signature_spills": machine.memsys.signature_spills,
        "signature_rejects": machine.memsys.signature_rejects,
        "stl_grants": machine.hl_arbiter.stl_grants,
        "grants": machine.manager.grants,
        "rejects": machine.manager.rejects,
        "events": machine.engine.events_processed,
    }

