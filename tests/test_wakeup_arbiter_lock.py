"""Unit tests for the wakeup table, HL arbiter, and FIFO lock manager."""

import pytest

from repro.common.errors import SimulationError
from repro.common.params import NetworkParams
from repro.core.hlarbiter import HLArbiter
from repro.core.wakeup import WakeupTable
from repro.htm.fallback import LockManager
from repro.interconnect.network import NetworkModel
from repro.interconnect.topology import MeshTopology
from repro.sim.engine import SimEngine


class TestWakeupTable:
    def test_register_and_drain(self):
        wt = WakeupTable()
        calls = []
        wt.register(1, 2, 10, calls.append)
        wt.register(1, 3, 20, calls.append)
        waiters = wt.drain(1)
        assert [w.core for w in waiters] == [2, 3]
        assert wt.drain(1) == []
        assert wt.registered == 2 and wt.drained == 2

    def test_self_wait_rejected(self):
        with pytest.raises(ValueError):
            WakeupTable().register(1, 1, 0, lambda t: None)

    def test_discard_waiter_everywhere(self):
        wt = WakeupTable()
        wt.register(1, 2, 0, lambda t: None)
        wt.register(3, 2, 0, lambda t: None)
        wt.register(3, 4, 0, lambda t: None)
        wt.discard_waiter(2)
        assert wt.pending_for(1) == 0
        assert [w.core for w in wt.drain(3)] == [4]

    def test_total_pending(self):
        wt = WakeupTable()
        wt.register(1, 2, 0, lambda t: None)
        wt.register(5, 6, 0, lambda t: None)
        assert wt.total_pending == 2

    def test_attempt_seq_recorded(self):
        wt = WakeupTable()
        wt.register(1, 2, 42, lambda t: None)
        assert wt.drain(1)[0].attempt_seq == 42


def _fabric():
    engine = SimEngine()
    params = NetworkParams()
    net = NetworkModel(MeshTopology(params), params)
    return engine, net


class TestHLArbiter:
    def _arbiter(self):
        engine, net = _fabric()
        return engine, HLArbiter(engine, net, lambda c: c, arbiter_tile=0)

    def test_stl_granted_when_free(self):
        engine, arb = self._arbiter()
        results = []
        arb.request_stl(2, lambda t, ok: results.append(ok))
        engine.run()
        assert results == [True]
        assert arb.owner == 2 and arb.owner_is_stl
        assert arb.stl_grants == 1

    def test_stl_denied_when_busy(self):
        engine, arb = self._arbiter()
        results = []
        arb.request_stl(2, lambda t, ok: results.append(("a", ok)))
        arb.request_stl(3, lambda t, ok: results.append(("b", ok)))
        engine.run()
        assert ("a", True) in results and ("b", False) in results
        assert arb.stl_denials == 1

    def test_only_one_htmlock_owner(self):
        """§III-C rule 2: at most one transaction in HTMLock mode."""
        engine, arb = self._arbiter()
        grants = []
        for core in range(5):
            arb.request_stl(core, lambda t, ok, c=core: grants.append((c, ok)))
        engine.run()
        assert sum(ok for _, ok in grants) == 1

    def test_tl_queues_behind_stl(self):
        engine, arb = self._arbiter()
        order = []
        arb.request_stl(2, lambda t, ok: order.append(("stl", ok)))
        arb.request_tl(5, lambda t: order.append(("tl", True)))
        engine.run()
        assert order == [("stl", True)]  # TL still waiting
        arb.release(2)
        engine.run()
        assert ("tl", True) in order
        assert arb.owner == 5 and not arb.owner_is_stl

    def test_tl_granted_when_free(self):
        engine, arb = self._arbiter()
        seen = []
        arb.request_tl(1, seen.append)
        engine.run()
        assert len(seen) == 1 and arb.owner == 1

    def test_release_by_non_owner_raises(self):
        engine, arb = self._arbiter()
        arb.request_tl(1, lambda t: None)
        engine.run()
        with pytest.raises(SimulationError):
            arb.release(2)

    def test_held_cycles_split_by_owner_kind(self):
        engine, arb = self._arbiter()
        arb.request_stl(2, lambda t, ok: None)  # decided at cycle 0
        arb.request_tl(5, lambda t: None)       # queued behind the STL
        engine.schedule(100, lambda t: arb.release(2))
        engine.run()
        assert arb.owner == 5
        assert (arb.tl_held_cycles, arb.stl_held_cycles) == (0, 100)
        engine.schedule(250, lambda t: None)
        engine.run()
        # The live TL owner's tenure counts up to now.
        assert arb.held_cycles() == (150, 100)
        arb.release(5)
        assert (arb.tl_held_cycles, arb.stl_held_cycles) == (150, 100)
        assert arb.held_cycles() == (150, 100)

    def test_latency_depends_on_distance(self):
        engine, arb = self._arbiter()
        times = {}
        arb.request_stl(0, lambda t, ok: times.setdefault(0, t))
        engine.run()
        engine2, arb2 = self._arbiter()
        arb2.request_stl(31, lambda t, ok: times.setdefault(31, t))
        engine2.run()
        assert times[31] > times[0]


class TestLockManager:
    def _lock(self):
        engine, net = _fabric()
        lock = LockManager("L", 1 << 40, 0, engine, net, lambda c: c)
        return engine, lock

    def test_uncontended_acquire(self):
        engine, lock = self._lock()
        grants = []
        lock.acquire(3, 0, grants.append)
        assert lock.held and lock.holder == 3
        engine.run()
        assert len(grants) == 1 and grants[0] > 0

    def test_fifo_handoff_order(self):
        engine, lock = self._lock()
        order = []
        for core in (2, 7, 4):
            lock.acquire(core, 0, lambda t, c=core: order.append(c))
        engine.run()
        assert order == [2]
        lock.release(2, engine.now)
        engine.run()
        lock.release(7, engine.now)
        engine.run()
        assert order == [2, 7, 4]
        assert lock.contended_acquisitions == 2

    def test_release_by_non_holder_raises(self):
        engine, lock = self._lock()
        lock.acquire(1, 0, lambda t: None)
        with pytest.raises(SimulationError):
            lock.release(2, 0)

    def test_reacquire_while_held_raises(self):
        engine, lock = self._lock()
        lock.acquire(1, 0, lambda t: None)
        with pytest.raises(SimulationError):
            lock.acquire(1, 0, lambda t: None)

    def test_double_queue_raises(self):
        engine, lock = self._lock()
        lock.acquire(1, 0, lambda t: None)
        lock.acquire(2, 0, lambda t: None)
        with pytest.raises(SimulationError):
            lock.acquire(2, 0, lambda t: None)

    def test_wait_free_immediate_when_free(self):
        engine, lock = self._lock()
        seen = []
        lock.wait_free(5, seen.append)
        engine.run()
        assert len(seen) == 1

    def test_wait_free_notified_on_release(self):
        engine, lock = self._lock()
        lock.acquire(1, 0, lambda t: None)
        engine.run()
        seen = []
        lock.wait_free(5, seen.append)
        lock.wait_free(6, seen.append)
        engine.run()
        assert seen == []
        lock.release(1, engine.now)
        engine.run()
        assert len(seen) == 2

    def test_wait_free_not_notified_on_handoff(self):
        """A FIFO hand-off keeps the lock held; subscribers stay parked."""
        engine, lock = self._lock()
        lock.acquire(1, 0, lambda t: None)
        lock.acquire(2, 0, lambda t: None)
        seen = []
        lock.wait_free(5, seen.append)
        lock.release(1, 0)
        engine.run()
        assert lock.holder == 2
        assert seen == []

    def test_cancel_wait(self):
        engine, lock = self._lock()
        lock.acquire(1, 0, lambda t: None)
        seen = []
        lock.wait_free(5, seen.append)
        lock.cancel_wait(5)
        lock.release(1, 0)
        engine.run()
        assert seen == []

    def test_queue_depth(self):
        engine, lock = self._lock()
        lock.acquire(1, 0, lambda t: None)
        lock.acquire(2, 0, lambda t: None)
        lock.acquire(3, 0, lambda t: None)
        assert lock.queue_depth == 2
