"""The telemetry event bus: one wrap of the machine, many consumers.

``TelemetryHub`` monkey-wires the machine's transaction-lifecycle
callbacks exactly once and fans structured :class:`TelemetryEvent`
records out to any number of subscribers — in the library that is the
one handler of :class:`~repro.telemetry.session.Telemetry` (event
counters plus the timeline); a plain callable works too.  Because the
wraps are installed only when the first subscriber arrives and removed
when the last one leaves, an un-instrumented machine carries **zero**
telemetry cost: no wrapper frames, no event objects, no registry calls.
Observation never schedules events or mutates architectural state, so
an instrumented run is cycle-for-cycle identical to a bare one.

The canonical lifecycle-event vocabulary, :class:`TraceEvent`, lives
here.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, List, Tuple


class TraceEvent(str, Enum):
    """Machine-level lifecycle events observable on the bus."""

    TX_BEGIN = "tx_begin"
    TX_COMMIT = "tx_commit"
    TX_ABORT = "tx_abort"
    REJECT = "reject"
    WAKEUP = "wakeup"
    FALLBACK = "fallback"
    #: One STL application's outcome: denied by the arbiter, or granted.
    SWITCH_DENIED = "switch_denied"
    SWITCH_OK = "switch_ok"
    OVERFLOW = "overflow"
    SPILL = "spill"
    #: An irrevocable (TL/FALLBACK) critical section began executing.
    LOCK_BEGIN = "lock_begin"


class TelemetryEvent:
    """One structured lifecycle record delivered to subscribers.

    ``arg`` is event-specific: the abort reason value (``TX_ABORT``),
    commit kind (``TX_COMMIT``), rejecting holder core (``REJECT``),
    pending-waiter count (``WAKEUP``), ``"granted"``/``"denied"``
    (``SWITCH_*``), or the entered mode (``LOCK_BEGIN``).
    """

    __slots__ = ("time", "kind", "core", "line", "arg")

    def __init__(
        self, time: int, kind: TraceEvent, core: int, line: int = -1, arg=None
    ) -> None:
        self.time = time
        self.kind = kind
        self.core = core
        self.line = line
        self.arg = arg

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TelemetryEvent(t={self.time}, {self.kind.value}, "
            f"core={self.core}, line={self.line}, arg={self.arg!r})"
        )


Subscriber = Callable[[TelemetryEvent], None]


class TelemetryHub:
    """Per-machine fan-out of lifecycle events.

    Use :meth:`of` to get the machine's hub (created on first use and
    cached on the machine object).  ``subscribe`` installs the callback
    wraps on first use; ``unsubscribe`` restores every wrapped callback
    once the last subscriber leaves, so attach/detach cycles are safe
    and repeatable.
    """

    def __init__(self, machine) -> None:
        self.machine = machine
        self._subs: List[Subscriber] = []
        self._wired = False
        #: (owner object, attribute name, original callable) per wrap.
        self._restores: List[Tuple[object, str, Callable]] = []

    @classmethod
    def of(cls, machine) -> "TelemetryHub":
        hub = getattr(machine, "_telemetry_hub", None)
        if hub is None:
            hub = cls(machine)
            machine._telemetry_hub = hub
        return hub

    @property
    def wired(self) -> bool:
        return self._wired

    @property
    def subscriber_count(self) -> int:
        return len(self._subs)

    def subscribe(self, sub: Subscriber) -> None:
        """Add ``sub``; idempotent for an already-subscribed callback."""
        if sub in self._subs:
            return
        self._subs.append(sub)
        if not self._wired:
            self._wire()

    def unsubscribe(self, sub: Subscriber) -> None:
        """Remove ``sub``; the last removal unwires the machine."""
        if sub in self._subs:
            self._subs.remove(sub)
        if not self._subs and self._wired:
            self._unwire()

    # ------------------------------------------------------------------

    def _emit(
        self, time: int, kind: TraceEvent, core: int, line: int = -1, arg=None
    ) -> None:
        ev = TelemetryEvent(time, kind, core, line, arg)
        for sub in self._subs:
            sub(ev)

    def _wrap(self, owner, attr: str, wrapper_factory) -> None:
        inner = getattr(owner, attr)
        setattr(owner, attr, wrapper_factory(inner))
        self._restores.append((owner, attr, inner))

    def _unwire(self) -> None:
        for owner, attr, original in reversed(self._restores):
            setattr(owner, attr, original)
        self._restores.clear()
        self._wired = False

    def _wire(self) -> None:
        machine = self.machine
        emit = self._emit
        self._wired = True

        # External victim aborts (every conflict loser goes through here).
        def abort_wrapper(inner):
            def wrapped(core, reason, now):
                cpu = machine.cpus[core]
                if cpu.tx.mode.in_transaction and not cpu.tx.aborted:
                    emit(now, TraceEvent.TX_ABORT, core, arg=str(reason.value))
                inner(core, reason, now)

            return wrapped

        self._wrap(machine.memsys, "abort_core", abort_wrapper)

        # The memory access path: rejects (NACKs) and capacity overflows.
        def access_wrapper(inner):
            from repro.coherence.memsys import OVERFLOW, REJECT

            def wrapped(core, addr, is_write, now):
                res = inner(core, addr, is_write, now)
                if type(res) is int:  # granted
                    return res
                status = res.status
                if status == REJECT:
                    emit(
                        now,
                        TraceEvent.REJECT,
                        core,
                        line=addr >> 6,
                        arg=res.reject_holder,
                    )
                elif status == OVERFLOW:
                    emit(now, TraceEvent.OVERFLOW, core, line=addr >> 6)
                return res

            return wrapped

        self._wrap(machine.memsys, "access", access_wrapper)

        # HTMLock signature spills (Fig. 5 (2)).
        def spill_wrapper(inner):
            def wrapped(core, line):
                emit(machine.engine.now, TraceEvent.SPILL, core, line=line)
                inner(core, line)

            return wrapped

        self._wrap(machine.memsys, "spill_to_signature", spill_wrapper)

        # Wake-up delivery (recovery mechanism, Fig. 2 (7)/(8)).
        def drain_wrapper(inner):
            def wrapped(holder, now):
                pending = machine.wakeups.pending_for(holder)
                if pending:
                    emit(now, TraceEvent.WAKEUP, holder, arg=pending)
                inner(holder, now)

            return wrapped

        self._wrap(machine, "drain_wakeups", drain_wrapper)

        for cpu in machine.cpus:
            self._wire_cpu(cpu)

    def _wire_cpu(self, cpu) -> None:
        emit = self._emit
        core = cpu.core
        htmlock = cpu.spec.htmlock

        def xbegin_wrapper(inner):
            def wrapped(now):
                emit(now, TraceEvent.TX_BEGIN, core)
                inner(now)

            return wrapped

        self._wrap(cpu, "_xbegin", xbegin_wrapper)

        def commit_wrapper(inner):
            def wrapped(now, cat, kind):
                emit(now, TraceEvent.TX_COMMIT, core, arg=kind)
                inner(now, cat, kind)

            return wrapped

        self._wrap(cpu, "_commit_done", commit_wrapper)

        def local_abort_wrapper(inner):
            def wrapped(now, reason):
                if not cpu.tx.aborted:
                    emit(
                        now, TraceEvent.TX_ABORT, core, arg=str(reason.value)
                    )
                inner(now, reason)

            return wrapped

        self._wrap(cpu, "_local_abort", local_abort_wrapper)

        def fallback_wrapper(inner):
            def wrapped(now):
                emit(now, TraceEvent.FALLBACK, core)
                inner(now)

            return wrapped

        self._wrap(cpu, "_go_fallback", fallback_wrapper)

        def stl_wrapper(inner):
            def wrapped(now, granted, attempt_seq, **kwargs):
                emit(
                    now,
                    TraceEvent.SWITCH_OK
                    if granted
                    else TraceEvent.SWITCH_DENIED,
                    core,
                    arg="granted" if granted else "denied",
                )
                inner(now, granted, attempt_seq, **kwargs)

            return wrapped

        self._wrap(cpu, "_stl_result", stl_wrapper)

        if htmlock:
            # HTMLock systems: the lock holder enters TL via hlbegin.
            def tl_wrapper(inner):
                def wrapped(now, wait_t0):
                    emit(now, TraceEvent.LOCK_BEGIN, core, arg="tl")
                    inner(now, wait_t0)

                return wrapped

            self._wrap(cpu, "_enter_tl", tl_wrapper)
        else:
            # Classic fallback: the critical section starts right after
            # the lock write (which killed every subscriber).
            def fb_locked_wrapper(inner):
                def wrapped(now, wait_t0):
                    emit(now, TraceEvent.LOCK_BEGIN, core, arg="fallback")
                    inner(now, wait_t0)

                return wrapped

            self._wrap(cpu, "_fallback_locked", fb_locked_wrapper)
