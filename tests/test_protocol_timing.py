"""Timing-level protocol tests: latency composition and serialization.

These pin the quantitative behaviour of the access path — the NACK
path's extra hops, directory busy-window queueing, LLC-vs-memory fills —
so timing regressions are caught, not just functional ones.
"""

import pytest

from repro.common.stats import AbortReason
from repro.coherence.states import MESI
from repro.htm.txstate import TxMode
from conftest import idle_machine, line_addr


class TestLatencyComposition:
    def test_miss_beats_hit_by_network_plus_llc(self):
        m = idle_machine()
        ms = m.memsys
        miss = ms.access(0, line_addr(100), False, 0)
        hit = ms.access(0, line_addr(100), False, 10_000)
        p = m.params
        assert hit == p.l1.hit_latency
        # Miss must include at least LLC + memory + some network.
        assert miss >= p.llc.hit_latency + p.memory.latency

    def test_nack_path_costs_more_than_plain_fill(self):
        """Fig. 3: the aborting owner adds a forward+NACK round trip."""
        m = idle_machine(system="Baseline")
        ms = m.memsys
        # Warm the line into the LLC so both cases are LLC hits.
        ms.access(3, line_addr(5), False, 0)
        ms.l1s[3].invalidate(5)
        ms.directory.remove_copy(5, 3)
        quiet = ms.access(1, line_addr(5), False, 5_000)  # plain LLC fill
        ms.l1s[1].invalidate(5)
        ms.directory.remove_copy(5, 1)
        # Now an HTM writer owns it; a conflicting read travels the
        # NACK path (owner invalidated itself).
        tx0 = m.cpus[0].tx
        tx0.begin(TxMode.HTM, 0)
        ms.access(0, line_addr(5), True, 10_000)
        nacked = ms.access(2, line_addr(5), False, 20_000)
        assert type(nacked) is int  # granted
        assert tx0.aborted
        assert nacked > quiet

    def test_dirty_forward_prices_owner_hops(self):
        m = idle_machine()
        ms = m.memsys
        ms.access(0, line_addr(5), True, 0)       # owner M at tile 0
        fwd = ms.access(3, line_addr(5), False, 5_000)
        ms.l1s[3].invalidate(5)
        ms.directory.remove_copy(5, 3)
        # After the writeback the line is shared; the next fill comes
        # straight from the LLC (no forward) — it must be cheaper from
        # the same distance.
        direct = ms.access(3, line_addr(5), False, 50_000)
        assert fwd > direct

    def test_busy_window_queues_second_requester(self):
        m = idle_machine()
        ms = m.memsys
        first = ms.access(0, line_addr(5), False, 0)
        busy = ms.directory.entry(5).busy_until
        assert busy > 0
        second = ms.access(1, line_addr(5), False, 1)
        # The second request must wait for the window: its total latency
        # covers at least until the busy horizon.
        assert 1 + second >= busy

    def test_unrelated_lines_do_not_queue(self):
        m = idle_machine()
        ms = m.memsys
        ms.access(0, line_addr(5), False, 0)
        a = ms.access(1, line_addr(6 + 32), False, 1)   # different line+bank
        b = ms.access(2, line_addr(6 + 32), False, 100_000)
        assert a <= b + m.params.memory.latency


class TestVictimInvalidationSemantics:
    def test_aborted_writer_lines_unreadable_speculation(self):
        """After a requester-wins abort, the victim's written lines are
        gone from its L1 and its buffered values never became visible."""
        m = idle_machine(system="Baseline")
        ms = m.memsys
        tx0 = m.cpus[0].tx
        tx0.begin(TxMode.HTM, 0)
        ms.access(0, line_addr(5), True, 0)
        ms.functional_store(0, line_addr(5), 99)
        ms.access(1, line_addr(5), False, 100)  # aborts core 0
        assert ms.functional_load(1, line_addr(5)) == 0
        assert ms.l1s[0].probe(5) == MESI.I

    def test_read_set_flash_clear_removes_warmup(self):
        m = idle_machine(system="Baseline")
        ms = m.memsys
        tx0 = m.cpus[0].tx
        tx0.begin(TxMode.HTM, 0)
        ms.access(0, line_addr(5), False, 0)
        m.abort_externally(0, AbortReason.CONFLICT_HTM, 10)
        tx0.clear()
        # Next access is a full miss again (no L1 warm-up from the
        # aborted attempt).
        misses = ms.core_stats[0].l1_misses
        ms.access(0, line_addr(5), False, 1_000)
        assert ms.core_stats[0].l1_misses == misses + 1
