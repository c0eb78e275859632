"""TelemetryHub event-stream coverage, observed through a plain
``list.append`` subscriber: which callback wraps emit which events, and
how subscribe / unsubscribe install and restore those wraps."""

import pytest

from repro.common.params import CacheParams, SystemParams
from repro.harness.systems import get_system
from repro.htm.isa import Plain, Txn, compute, fault, load, store
from repro.sim.runner import RunConfig, run_workload
from repro.telemetry import Telemetry, TelemetryHub, TimelineBuilder
from repro.telemetry.events import TraceEvent
from repro.workloads.registry import get_workload
from conftest import line_addr, make_machine, simple_txn


def subscribed(m):
    """Subscribe a fresh event list to ``m``'s hub; return the list."""
    events = []
    TelemetryHub.of(m).subscribe(events.append)
    return events


def traced_run(programs, system="Baseline", params=None):
    m = make_machine(programs, system=system, params=params)
    events = subscribed(m)
    m.run()
    return m, events


def counts(events):
    out = {}
    for ev in events:
        out[ev.kind] = out.get(ev.kind, 0) + 1
    return out


def of_kind(events, kind):
    return [ev for ev in events if ev.kind is kind]


def contended_programs(line, txns=6):
    """Four cores hammering one line in transactions (RWI NACKs)."""

    def prog(t):
        return [
            Plain([compute(3 + t)]),
            *[
                Txn([load(line_addr(line)), store(line_addr(line), 1),
                     compute(10)])
                for _ in range(txns)
            ],
        ]

    return [prog(t) for t in range(4)]


class TestRecorder:
    def test_records_tx_lifecycle(self):
        _, events = traced_run([[simple_txn([1], [2])]])
        seen = counts(events)
        assert seen[TraceEvent.TX_BEGIN] == 1
        assert seen[TraceEvent.TX_COMMIT] == 1
        assert TraceEvent.TX_ABORT not in seen

    def test_records_aborts(self):
        prog = [[Txn([fault(persistent=True), store(line_addr(1), 1)])]]
        _, events = traced_run(prog)
        seen = counts(events)
        assert seen[TraceEvent.TX_ABORT] >= 1
        assert seen[TraceEvent.FALLBACK] == 1

    def test_records_rejects_and_wakeups(self):
        _, events = traced_run(contended_programs(0), system="LockillerTM-RWI")
        rejects = of_kind(events, TraceEvent.REJECT)
        assert rejects and of_kind(events, TraceEvent.WAKEUP)
        # A REJECT names the rejecting holder, never the requester.
        assert all(0 <= ev.arg < 4 and ev.arg != ev.core for ev in rejects)

    def test_records_switching(self):
        params = SystemParams(
            num_cores=4,
            l1=CacheParams(2 * 64, 2, 2),
            llc=CacheParams(4096 * 64, 16, 12),
        )
        _, events = traced_run(
            [[simple_txn([1, 2, 3], [4])]],
            system="LockillerTM",
            params=params,
        )
        seen = counts(events)
        assert seen.get(TraceEvent.OVERFLOW, 0) >= 1
        assert seen.get(TraceEvent.SWITCH_OK, 0) == 1
        assert of_kind(events, TraceEvent.SWITCH_OK)[0].arg == "granted"

    def test_stl_deny_path_recorded(self):
        # The denial branch of the _stl_result wrap: drive the wrapped
        # callback directly (a machine-level denial needs a racing STL
        # owner, which is timing-fragile to stage).
        m = make_machine([[simple_txn([1], [2])]], system="LockillerTM")
        events = subscribed(m)
        cpu = m.cpus[0]
        cpu._stl_result(5, False, cpu.tx.attempt_seq)
        last = events[-1]
        assert last.kind is TraceEvent.SWITCH_DENIED
        assert (last.arg, last.time, last.core) == ("denied", 5, 0)

    def test_switch_events_split_stl_applications(self):
        # labyrinth at 4 threads: 14 STL applications, 3 granted.
        tel = Telemetry()
        stats = run_workload(
            get_workload("labyrinth"),
            RunConfig(spec=get_system("LockillerTM"), threads=4, scale=0.1,
                      seed=1, telemetry=tel),
        )
        attempts = sum(cs.switch_attempts for cs in stats.cores)
        successes = sum(cs.switch_successes for cs in stats.cores)
        assert 0 < successes < attempts
        assert tel.registry.value("events.switch_denied") == (
            attempts - successes)
        assert tel.registry.value("events.switch_ok") == successes

    def test_fallback_entry_and_lock_begin_recorded(self):
        prog = [[Txn([fault(persistent=True), store(line_addr(1), 1)])]]
        _, events = traced_run(prog)  # Baseline: classic fallback lock
        seen = counts(events)
        assert seen[TraceEvent.FALLBACK] == 1
        lock_begins = of_kind(events, TraceEvent.LOCK_BEGIN)
        assert [ev.arg for ev in lock_begins] == ["fallback"]

    def test_drain_wrap_reports_waiter_count(self):
        _, events = traced_run(contended_programs(0), system="LockillerTM-RWI")
        wakeups = of_kind(events, TraceEvent.WAKEUP)
        assert wakeups
        assert all(isinstance(ev.arg, int) and ev.arg >= 1 for ev in wakeups)

    def test_capacity_bound(self, monkeypatch):
        # The timeline's memory bound: spans past CAPACITY are counted
        # as dropped, never stored.
        monkeypatch.setattr(TimelineBuilder, "CAPACITY", 3)
        m = make_machine([[simple_txn([i], [i]) for i in range(10)]])
        tel = Telemetry().attach(m)
        m.run()
        assert len(tel.timeline) == 3
        assert tel.timeline.dropped > 0
        assert tel.timeline.summary()["dropped"] == tel.timeline.dropped
        tel.detach()

    def test_attach_same_machine_idempotent(self):
        m = make_machine([[simple_txn([1], [2])]])
        events = []
        hub = TelemetryHub.of(m)
        hub.subscribe(events.append)
        hub.subscribe(events.append)  # no-op, no double delivery
        tel = Telemetry().attach(m)
        tel.attach(m)  # no-op, no double-wrapping
        assert hub.subscriber_count == 2
        m.run()
        # Each lifecycle event delivered exactly once per subscriber.
        assert counts(events)[TraceEvent.TX_COMMIT] == 1
        assert tel.registry.value("events.tx_commit") == 1

    def test_attach_other_machine_rejected(self):
        m1 = make_machine([[]])
        m2 = make_machine([[]])
        tel = Telemetry().attach(m1)
        with pytest.raises(RuntimeError):
            tel.attach(m2)

    def test_detach_restores_callbacks(self):
        m = make_machine([[simple_txn([1], [2])]])
        originals = (
            m.memsys.access,
            m.memsys.abort_core,
            m.drain_wakeups,
            m.cpus[0]._xbegin,
            m.cpus[0]._commit_done,
        )
        hub = TelemetryHub.of(m)
        events = subscribed(m)
        assert hub.wired
        assert m.memsys.access is not originals[0]
        hub.unsubscribe(events.append)
        assert not hub.wired
        assert (
            m.memsys.access,
            m.memsys.abort_core,
            m.drain_wakeups,
            m.cpus[0]._xbegin,
            m.cpus[0]._commit_done,
        ) == originals
        # An unsubscribed list records nothing; the machine still runs.
        m.run()
        assert events == []
        hub.unsubscribe(events.append)  # idempotent when not subscribed

    def test_attach_run_detach_reattach(self):
        m = make_machine([[simple_txn([1], [2]), simple_txn([3], [4])]])
        first = Telemetry().attach(m)
        first.detach()
        second = Telemetry().attach(m)
        m.run()
        assert second.registry.value("events.tx_commit") == 2
        assert len(first.registry) == 0
        assert len(first.timeline) == 0

    def test_two_tracers_share_one_set_of_wraps(self):
        m = make_machine([[simple_txn([1], [2])]])
        a = subscribed(m)
        access_wrapped = m.memsys.access
        b = subscribed(m)
        # Second subscriber must not re-wrap the callbacks.
        assert m.memsys.access is access_wrapped
        m.run()
        assert a and a == b


class TestQueries:
    def test_contention_profile(self):
        # REJECT events carry the contended line, so a per-line counter
        # over them finds the one hot line.
        _, events = traced_run(
            contended_programs(7, txns=5), system="LockillerTM-RWI"
        )
        lines = {ev.line for ev in of_kind(events, TraceEvent.REJECT)}
        assert lines == {7}

    def test_tracing_does_not_change_results(self):
        progs = lambda: [
            [Plain([compute(2 + t)]), simple_txn([0], [0])] for t in range(4)
        ]
        plain = make_machine(progs(), system="LockillerTM")
        cycles_plain = plain.run()
        traced = make_machine(progs(), system="LockillerTM")
        Telemetry().attach(traced)
        cycles_traced = traced.run()
        assert cycles_plain == cycles_traced
        assert plain.memsys.memory == traced.memsys.memory
