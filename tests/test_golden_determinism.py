"""Golden determinism pins + parallel/serial bit-identity.

Two guarantees are load-bearing for the whole harness:

1. A run is a pure function of ``(workload, system, threads, scale,
   seed, params)`` — so the exact cycle counts and behaviour
   fingerprints below must reproduce forever.  Any intentional timing
   change to the simulator must update these pins (and bump
   ``CACHE_SCHEMA_VERSION`` in :mod:`repro.harness.runcache`).
2. Executing a sweep through worker processes (``jobs > 1``) and
   through the run cache must be *bit-identical* to the plain serial
   loop — parallelism and caching are pure plumbing.

The pinned cell (intruder, 4 threads, scale 0.05, seed 3) is chosen
because it distinguishes all nine Table-II systems: enough contention
that every recovery policy takes a different path.
"""

import hashlib
import json

import pytest

from repro.harness.export import fingerprint
from repro.harness.sweeps import Sweep
from repro.harness.systems import TABLE_ORDER, get_system
from repro.sim.runner import RunConfig, run_workload
from repro.workloads.registry import get_workload

#: system -> (execution_cycles, fingerprint, commits, total_aborts)
#: for intruder / 4 threads / scale 0.05 / seed 3.
GOLD = {
    "CGL": (27031, "2d70294118c81403", 40, 0),
    "Baseline": (14349, "d759f437ab096f37", 40, 45),
    "LosaTM-SAFU": (9735, "18fecf3ee72f6b8b", 40, 5),
    "LockillerTM-RAI": (10180, "644ba7a56a14df50", 40, 20),
    "LockillerTM-RRI": (9835, "6addeff532bfa9c9", 40, 2),
    "LockillerTM-RWI": (9755, "1877f557f4e76393", 40, 5),
    "LockillerTM-RWL": (9722, "f30a29c49ce5a63b", 40, 6),
    "LockillerTM-RWIL": (9755, "1877f557f4e76393", 40, 5),
    "LockillerTM": (9755, "1877f557f4e76393", 40, 5),
}

#: (sha256 of GOLD, CACHE_SCHEMA_VERSION).  A golden moves only when the
#: simulator's timing changes, and then every cached result is stale:
#: bump CACHE_SCHEMA_VERSION in repro.harness.runcache together with
#: the goldens, and re-pin both halves here.
GOLD_VERSION_PIN = (
    "05f02c4318ad98c025bb81136fca85774909891ca79a376c996452b6ede5efd5",
    1,
)


def _run(system: str):
    return run_workload(
        get_workload("intruder"),
        RunConfig(spec=get_system(system), threads=4, scale=0.05, seed=3),
    )


class TestGoldenPins:
    def test_gold_covers_table2(self):
        assert set(GOLD) == set(TABLE_ORDER)

    @pytest.mark.parametrize("system", sorted(GOLD))
    def test_pinned_cell(self, system):
        cycles, fp, commits, aborts = GOLD[system]
        stats = _run(system)
        merged = stats.merged()
        assert stats.execution_cycles == cycles
        assert fingerprint(stats) == fp
        assert merged.commits == commits
        assert merged.total_aborts == aborts

    def test_goldens_pinned_to_cache_version(self):
        from repro.harness.runcache import CACHE_SCHEMA_VERSION

        digest = hashlib.sha256(
            json.dumps(GOLD, sort_keys=True).encode("utf-8")
        ).hexdigest()
        assert (digest, CACHE_SCHEMA_VERSION) == GOLD_VERSION_PIN, (
            "GOLD changed: bump CACHE_SCHEMA_VERSION so no cache serves "
            "results from the old model, then re-pin GOLD_VERSION_PIN"
        )

    def test_back_to_back_runs_identical(self):
        a, b = _run("LockillerTM"), _run("LockillerTM")
        assert fingerprint(a) == fingerprint(b)


@pytest.fixture(scope="module")
def grid():
    """A 16-cell grid with real contention variety."""
    return Sweep(
        workloads=("kmeans+", "ssca2"),
        systems=("CGL", "Baseline", "LockillerTM-RWI", "LockillerTM"),
        threads=(2, 4),
        seeds=(1,),
        scale=0.05,
    )


def _prints(results):
    return [
        (r.point.label(), r.cycles, fingerprint(r.stats))
        for r in results.records
    ]


class TestParallelBitIdentity:
    def test_parallel_matches_serial(self, grid):
        assert grid.size() == 16
        serial = grid.run(jobs=1)
        parallel = grid.run(jobs=4)
        assert _prints(parallel) == _prints(serial)

    def test_cached_matches_serial_and_warm_cache_skips(self, grid, tmp_path):
        from repro.harness.runcache import RunCache

        serial = grid.run(jobs=1)
        cache = RunCache(str(tmp_path / "rc"))
        cold = grid.run(jobs=4, cache=cache)
        assert cache.stores == grid.size()
        assert _prints(cold) == _prints(serial)

        warm_cache = RunCache(str(tmp_path / "rc"))
        warm = grid.run(jobs=4, cache=warm_cache)
        assert warm_cache.hits == grid.size()
        assert warm_cache.misses == 0
        assert warm_cache.stores == 0
        assert _prints(warm) == _prints(serial)


class TestOneExecutionPath:
    """Every harness entry point runs a cell the same way and shares one
    run cache: identical fingerprints, and a warm re-run executes
    nothing."""

    WORKLOAD, SYSTEMS, THREADS, SEED, SCALE = (
        "ssca2", ("CGL", "LockillerTM"), 2, 1, 0.05,
    )

    def _entry_points(self, cache):
        """Fingerprints per system from each of the five entry points."""
        from repro.harness.experiments import ExperimentContext
        from repro.harness.multiseed import (
            multi_seed_runs,
            multi_seed_runs_resilient,
        )

        sweep = Sweep(
            workloads=(self.WORKLOAD,),
            systems=self.SYSTEMS,
            threads=(self.THREADS,),
            seeds=(self.SEED,),
            scale=self.SCALE,
        )
        out = {"Sweep.run": [
            fingerprint(r.stats) for r in sweep.run(cache=cache).records
        ]}
        report = sweep.run_resilient(cache=cache)
        assert report.ok
        out["run_resilient"] = [
            fingerprint(r.stats) for r in report.results.records
        ]
        ctx = ExperimentContext(
            scale=self.SCALE,
            seed=self.SEED,
            threads=(self.THREADS,),
            workloads=(self.WORKLOAD,),
            disk_cache=cache,
        )
        ctx.prewarm(
            (self.WORKLOAD, system, self.THREADS) for system in self.SYSTEMS
        )
        out["ExperimentContext.prewarm"] = [
            fingerprint(ctx.run(self.WORKLOAD, system, self.THREADS))
            for system in self.SYSTEMS
        ]
        out["multi_seed_runs"] = []
        out["multi_seed_runs_resilient"] = []
        for system in self.SYSTEMS:
            args = (self.WORKLOAD, system, self.THREADS, (self.SEED,))
            (stats,) = multi_seed_runs(*args, scale=self.SCALE, cache=cache)
            out["multi_seed_runs"].append(fingerprint(stats))
            (stats,), quarantined = multi_seed_runs_resilient(
                *args, scale=self.SCALE, cache=cache
            )
            assert not quarantined
            out["multi_seed_runs_resilient"].append(fingerprint(stats))
        return out

    def test_entry_points_agree_and_warm_rerun_executes_nothing(
        self, tmp_path
    ):
        from repro.harness.runcache import RunCache

        root = str(tmp_path / "rc")
        cold_cache = RunCache(root)
        cold = self._entry_points(cold_cache)
        assert cold_cache.stores == len(self.SYSTEMS)
        expected = cold["Sweep.run"]
        for name, prints in cold.items():
            assert prints == expected, name

        warm_cache = RunCache(root)
        warm = self._entry_points(warm_cache)
        assert warm == cold
        assert warm_cache.misses == 0
        assert warm_cache.stores == 0
