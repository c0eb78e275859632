"""Tests for the MESI-Three-Level-HTM mode (private middle cache)."""

import pytest

from repro.common.params import (
    CacheParams,
    SystemParams,
    three_level_params,
    typical_params,
)
from repro.common.stats import AbortReason
from repro.coherence.states import MESI
from repro.harness.systems import get_system
from repro.htm.txstate import TxMode
from repro.sim.machine import Machine
from repro.sim.runner import RunConfig, run_workload
from repro.workloads.registry import get_workload
from conftest import line_addr


def tiny_three_level(num_cores=4):
    return SystemParams(
        num_cores=num_cores,
        l1=CacheParams(2 * 64, 2, 2),          # 1 set x 2 ways
        l2private=CacheParams(8 * 64, 2, 8),   # 4 sets x 2 ways
        llc=CacheParams(4096 * 64, 16, 12),
    )


def idle3(num_cores=4, system="Baseline", params=None):
    m = Machine(
        params or tiny_three_level(num_cores),
        get_system(system),
        [[] for _ in range(num_cores)],
    )
    return m


class TestParams:
    def test_three_level_params(self):
        p = three_level_params()
        assert p.l2private is not None
        assert p.l2private.size_bytes == 128 * 1024
        assert typical_params().l2private is None

    def test_middle_cache_must_cover_l1(self):
        with pytest.raises(ValueError):
            SystemParams(
                l1=CacheParams(32 * 1024, 4, 2),
                l2private=CacheParams(16 * 1024, 4, 8),
            )


class TestHierarchy:
    def test_fill_populates_both_levels(self):
        m = idle3()
        ms = m.memsys
        ms.access(0, line_addr(5), False, 0)
        assert ms.l1s[0].probe(5) == MESI.E
        assert ms.l2s[0].probe(5) == MESI.E

    def test_l2_hit_after_l1_eviction(self):
        m = idle3()
        ms = m.memsys
        # L1 has 1 set x 2 ways: three lines overflow it, but all land
        # in the 4-set middle cache (lines 5, 6, 7 map to distinct sets).
        for ln in (5, 6, 7):
            ms.access(0, line_addr(ln), False, 0)
        st_l1 = [ms.l1s[0].probe(ln) for ln in (5, 6, 7)]
        assert st_l1.count(MESI.I) == 1  # one evicted from L1
        evicted = (5, 6, 7)[st_l1.index(MESI.I)]
        misses = m.core_stats[0].l1_misses
        res = ms.access(0, line_addr(evicted), False, 10)
        assert res == 2 + 8  # L1 + middle-cache latency
        assert m.core_stats[0].l2_hits == 1
        assert m.core_stats[0].l1_misses == misses + 1

    def test_e_to_m_upgrade_syncs_levels(self):
        m = idle3()
        ms = m.memsys
        ms.access(0, line_addr(5), False, 0)
        ms.access(0, line_addr(5), True, 5)  # silent upgrade
        assert ms.l1s[0].probe(5) == MESI.M
        assert ms.l2s[0].probe(5) == MESI.M

    def test_remote_load_flushes_owner_l1(self):
        """The 'odd design' §IV-A criticizes: remote GETS invalidates
        the owner's L1 copy, flushing it to the middle cache."""
        m = idle3()
        ms = m.memsys
        ms.access(0, line_addr(5), True, 0)   # core0 owns M
        ms.access(1, line_addr(5), False, 50)
        assert ms.l1s[0].probe(5) == MESI.I   # flushed out of L1
        assert ms.l2s[0].probe(5) == MESI.S   # kept shared in L2
        assert ms.directory.copies(5) == {0, 1}

    def test_write_invalidates_both_levels(self):
        m = idle3()
        ms = m.memsys
        ms.access(0, line_addr(5), False, 0)
        ms.access(1, line_addr(5), True, 50)
        assert ms.l1s[0].probe(5) == MESI.I
        assert ms.l2s[0].probe(5) == MESI.I
        assert ms.directory.owner_of(5) == 1

    def test_quiescence_checks_inclusion(self):
        m = idle3()
        ms = m.memsys
        ms.access(0, line_addr(5), False, 0)
        assert ms.check_quiescent() == []
        ms.l2s[0].invalidate(5)  # break inclusion by hand
        assert any("inclusion" in p for p in ms.check_quiescent())


class TestTransactionalCapacity:
    def test_tx_capacity_is_middle_cache(self):
        """Transactional data is maintained in the middle cache: a
        footprint beyond the L1 but within the L2 must NOT overflow."""
        m = idle3()
        ms = m.memsys
        tx = m.cpus[0].tx
        tx.begin(TxMode.HTM, 0)
        for ln in range(6):  # 6 lines >> 2-line L1, fits 8-line L2
            res = ms.access(0, line_addr(ln), True, 0)
            assert type(res) is int  # granted
        assert len(tx.write_set) == 6

    def test_overflow_when_middle_cache_full(self):
        m = idle3()
        ms = m.memsys
        tx = m.cpus[0].tx
        tx.begin(TxMode.HTM, 0)
        # Middle cache set 0 holds lines 0,4,8,...: 2 ways -> 3rd line
        # in the same L2 set overflows.
        ms.access(0, line_addr(0), True, 0)
        ms.access(0, line_addr(4), True, 0)
        res = ms.access(0, line_addr(8), True, 0)
        assert res.status == 2  # OVERFLOW

    def test_abort_flash_clears_both_levels(self):
        m = idle3()
        ms = m.memsys
        tx = m.cpus[0].tx
        tx.begin(TxMode.HTM, 0)
        ms.access(0, line_addr(5), True, 0)
        ms.discard_tx(0)
        assert ms.l1s[0].probe(5) == MESI.I
        assert ms.l2s[0].probe(5) == MESI.I


class TestEndToEnd:
    @pytest.mark.parametrize("system", ["CGL", "Baseline", "LockillerTM"])
    def test_workloads_run_correctly(self, system):
        stats = run_workload(
            get_workload("vacation+"),
            RunConfig(
                spec=get_system(system),
                threads=4,
                scale=0.1,
                seed=9,
                params=three_level_params(),
            ),
        )
        assert stats.sanity_failures == []

    def test_middle_cache_absorbs_labyrinth_overflows(self):
        two = run_workload(
            get_workload("labyrinth"),
            RunConfig(spec=get_system("Baseline"), threads=4, scale=0.2,
                      seed=5),
        )
        three = run_workload(
            get_workload("labyrinth"),
            RunConfig(spec=get_system("Baseline"), threads=4, scale=0.2,
                      seed=5, params=three_level_params()),
        )
        assert (
            three.abort_breakdown()[AbortReason.OVERFLOW]
            < two.abort_breakdown()[AbortReason.OVERFLOW]
        )
        assert three.merged().l2_hits > 0

    def test_paranoid_swmr_three_level(self):
        machine = Machine(
            tiny_three_level(),
            get_system("LockillerTM"),
            [
                [  # light contended programs
                    __import__("repro.htm.isa", fromlist=["x"]).Txn(
                        [
                            __import__("repro.htm.isa", fromlist=["x"]).load(
                                line_addr(0)
                            ),
                            __import__("repro.htm.isa", fromlist=["x"]).store(
                                line_addr(0), 1
                            ),
                        ]
                    )
                ]
                for _ in range(3)
            ],
        )
        machine.memsys.paranoid = True
        machine.run()
        assert machine.memsys.memory[line_addr(0)] == 3
