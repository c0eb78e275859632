"""Minimal deterministic discrete-event engine.

Events are totally ordered by ``(time, vtime, seq)``:

* ``time`` — the cycle the event fires;
* ``vtime`` — the event's *virtual allocation time*: for ordinary
  events the cycle it was scheduled at, equal for every entry a single
  callback schedules, so same-cycle events fire in schedule order and
  runs are bit-reproducible regardless of hash seeds;
* ``seq`` — a monotonically increasing sequence number breaking the
  remaining ties by call order.

``vtime`` exists for **compute-burst coalescing** (repro.sim.cpu): when
a chain of per-op continuations is folded into one event, the surviving
event passes the time its *last elided predecessor* would have been
scheduled at as ``vtime``.  Same-cycle ordering against other cores'
events then matches the uncoalesced event chain exactly, because for
ordinary events sorting by (vtime, seq) *is* sorting by seq (alloc time
is monotone in seq).  Callbacks receive the current time; the vtime of
the event being processed is exposed as :attr:`SimEngine.now_vtime`.

Pending events live in one binary **heap** ordered by that key, so
every schedule is a ``heappush`` and every fire a ``heappop``: the
firing order is exactly the ``(time, vtime, seq)`` contract, including
zero-delay events scheduled while their own cycle is being drained
(an abort checkpoint's earlier ``vtime`` still orders it ahead of
same-cycle events already queued).

The heap holds **slab event records**: recycled 5-slot field arrays
``[time, vtime, seq, token, fn]`` drawn from a freelist, so the
``schedule_after_nocancel`` fast path allocates nothing at steady state
— a fired record goes back on the freelist and the next schedule reuses
it in place.  Records compare elementwise exactly like the tuples they
replace (``seq`` is globally unique, so a comparison never reaches the
token field).

Cancellation uses the standard lazy-invalidate idiom (events carry a
token that can be voided).  Tokens report their cancellation back to
the engine so it can (a) keep an exact count of *live* events — see
:meth:`SimEngine.pending` — and (b) compact the heap when cancellation
storms leave it dominated by dead entries.  A token is consumed when
its event fires, making a late ``cancel()`` a harmless no-op instead of
an accounting leak.  Events that are never cancelled can skip the
per-event token allocation entirely via the ``*_nocancel`` scheduling
variants, which share one immortal token.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional

from repro.common.errors import EventBudgetError, SimulationError

EventFn = Callable[[int], None]

#: Heap compaction policy: rebuild when at least this many cancelled
#: entries are resident *and* they are the majority of the heap.
_COMPACT_MIN = 256


class EventToken:
    """Handle allowing a scheduled event to be cancelled lazily."""

    __slots__ = ("cancelled", "_engine")

    def __init__(self, engine: Optional["SimEngine"] = None) -> None:
        self.cancelled = False
        self._engine = engine

    def cancel(self) -> None:
        # Consumed (already-fired) tokens have cancelled == True, so a
        # late cancel falls through without corrupting the live count.
        if not self.cancelled:
            self.cancelled = True
            eng = self._engine
            if eng is not None:
                eng._note_cancel()


#: Shared token for events that are never cancelled (the no-allocation
#: ``*_nocancel`` fast paths).  Deliberately not connected to any engine
#: and never consumed on fire.
_IMMORTAL = EventToken()

#: Slab record layout: [time, vtime, seq, token, fn].
_TOK = 3
_FN = 4


class SimEngine:
    """Binary-heap event scheduler in whole cycles."""

    __slots__ = (
        "_heap",
        "_free",
        "_seq",
        "now",
        "now_vtime",
        "events_processed",
        "_max_events",
        "_live",
        "_cancelled_resident",
        "heap_compactions",
    )

    def __init__(self, max_events: int = 200_000_000) -> None:
        #: Pending slab records [time, vtime, seq, token, fn].
        self._heap: List[list] = []
        #: Recycled slab records (freelist reuse — no per-event
        #: allocation at steady state).
        self._free: List[list] = []
        self._seq = 0
        self.now = 0
        #: vtime of the event currently being processed.
        self.now_vtime = 0
        self.events_processed = 0
        self._max_events = max_events
        #: Scheduled, not yet fired, not cancelled.
        self._live = 0
        #: Cancelled entries still physically resident.
        self._cancelled_resident = 0
        self.heap_compactions = 0

    def reset(self) -> None:
        """Return to the just-constructed state (machine-pool reuse).

        Everything observable — clock, sequence counter, the heap,
        live/cancelled accounting, telemetry counters — starts over, so
        a run on a reset engine is bit-identical to a run on a fresh
        one.  The slab freelist is deliberately *kept*: recycled records
        carry no observable state (token/fn are cleared on recycle) and
        reusing them across runs is the point of pooling.
        """
        self._heap.clear()
        self._seq = 0
        self.now = 0
        self.now_vtime = 0
        self.events_processed = 0
        self._live = 0
        self._cancelled_resident = 0
        self.heap_compactions = 0

    def trim_slab(self) -> None:
        """Drop the recycled-record freelist (parked-machine slimming)."""
        self._free.clear()

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def _insert(self, when: int, vtime: int, token: EventToken, fn: EventFn) -> None:
        free = self._free
        if free:
            rec = free.pop()
            rec[0] = when
            rec[1] = vtime
            rec[2] = self._seq
            rec[3] = token
            rec[4] = fn
        else:
            rec = [when, vtime, self._seq, token, fn]
        heapq.heappush(self._heap, rec)
        self._seq += 1
        self._live += 1

    def schedule(self, when: int, fn: EventFn) -> EventToken:
        """Schedule ``fn`` to fire at absolute cycle ``when``."""
        if when < self.now:
            raise SimulationError(
                f"scheduling into the past: {when} < now {self.now}"
            )
        token = EventToken(self)
        self._insert(when, self.now, token, fn)
        return token

    def schedule_after(self, delay: int, fn: EventFn) -> EventToken:
        # Hottest cancellable entry point — inlines _insert (a relative
        # delay >= 0 can never land in the past, so no bounds re-check).
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        token = EventToken(self)
        now = self.now
        when = now + delay
        free = self._free
        if free:
            rec = free.pop()
            rec[0] = when
            rec[1] = now
            rec[2] = self._seq
            rec[3] = token
            rec[4] = fn
        else:
            rec = [when, now, self._seq, token, fn]
        heapq.heappush(self._heap, rec)
        self._seq += 1
        self._live += 1
        return token

    def schedule_after_nocancel(self, delay: int, fn: EventFn) -> None:
        """No-allocation ``schedule_after`` for never-cancelled events.

        The entry shares one immortal token and reuses a recycled slab
        record, so nothing is allocated and nothing is returned.  Use
        only when no code path can want to cancel the event; the event
        budget and the ``(time, vtime, seq)`` total order apply exactly
        as for the token path.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        now = self.now
        when = now + delay
        free = self._free
        if free:
            rec = free.pop()
            rec[0] = when
            rec[1] = now
            rec[2] = self._seq
            rec[3] = _IMMORTAL
            rec[4] = fn
        else:
            rec = [when, now, self._seq, _IMMORTAL, fn]
        heapq.heappush(self._heap, rec)
        self._seq += 1
        self._live += 1

    def schedule_after_virtual(
        self, delay: int, fn: EventFn, vdelay: int
    ) -> EventToken:
        """Schedule with an explicit virtual allocation time.

        The event fires at ``now + delay`` but orders against same-cycle
        events as if it had been scheduled at ``now + vdelay`` — the
        burst-coalescing hook (``vdelay`` is the offset of the last
        elided continuation; it may be negative for abort checkpoints
        replaying an already-past allocation point).  ``vdelay`` must
        not exceed ``delay``: an event cannot be allocated after it
        fires.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        if vdelay > delay:
            raise SimulationError(f"vdelay {vdelay} > delay {delay}")
        token = EventToken(self)
        self._insert(self.now + delay, self.now + vdelay, token, fn)
        return token

    def schedule_after_virtual_nocancel(
        self, delay: int, fn: EventFn, vdelay: int
    ) -> None:
        """:meth:`schedule_after_virtual` on the shared immortal token."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        if vdelay > delay:
            raise SimulationError(f"vdelay {vdelay} > delay {delay}")
        self._insert(self.now + delay, self.now + vdelay, _IMMORTAL, fn)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def pending(self) -> int:
        """Number of *live* (not-yet-fired, not-cancelled) events.

        Cancelled-but-resident entries are excluded — cancellation
        storms used to make this overcount until the corpses happened
        to be popped.
        """
        return self._live

    def resident(self) -> int:
        """Entries physically resident in the heap (live or dead)."""
        return len(self._heap)

    # ------------------------------------------------------------------
    # Cancellation accounting & heap compaction
    # ------------------------------------------------------------------

    def _note_cancel(self) -> None:
        self._live -= 1
        self._cancelled_resident += 1
        if (
            self._cancelled_resident >= _COMPACT_MIN
            and self._cancelled_resident * 2 >= len(self._heap)
        ):
            self._compact_heap()

    def _compact_heap(self) -> None:
        """Drop cancelled entries from the heap and re-heapify in place.

        Compaction preserves the (time, vtime, seq) order of live
        events, so it is invisible to the simulation; the heap list
        keeps its identity, so a running :meth:`run` loop's local
        binding stays valid.  Dropped records are recycled onto the
        slab freelist.
        """
        heap = self._heap
        free = self._free
        kept = []
        for rec in heap:
            if rec[_TOK].cancelled:
                rec[_TOK] = None
                rec[_FN] = None
                free.append(rec)
            else:
                kept.append(rec)
        removed = len(heap) - len(kept)
        if removed:
            heap[:] = kept
            heapq.heapify(heap)
            self._cancelled_resident -= removed
            self.heap_compactions += 1

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def run(self, until: Optional[int] = None) -> int:
        """Drain events (optionally stopping after cycle ``until``).

        With ``until``, every event up to and including cycle ``until``
        fires and the clock then *advances to exactly* ``until`` — a
        truncated run ends at the truncation point, not at the time of
        whatever event happened to fire last, so callers report the
        cycle they asked for and a subsequent :meth:`schedule_after` is
        anchored at the cutoff rather than a stale ``now``.  Returns
        ``self.now``.
        """
        # Hot loop: bind heap/freelist and the budget to locals; mirror
        # the processed count back on every exit path (events fired
        # inside a callback raising included).  A record is popped and
        # recycled before its callback runs, so a callback reusing it
        # for a new event cannot alias a pending one, and an exception
        # unwind leaves exactly the unfired events queued.
        heap = self._heap
        free = self._free
        heappop = heapq.heappop
        immortal = _IMMORTAL
        budget = self._max_events
        processed = self.events_processed
        try:
            while heap:
                if until is not None and heap[0][0] > until:
                    break
                rec = heappop(heap)
                token = rec[3]
                free.append(rec)
                if token.cancelled:
                    self._cancelled_resident -= 1
                    continue
                if token is not immortal:
                    token.cancelled = True  # consumed
                t = rec[0]
                self.now = t
                self.now_vtime = rec[1]
                self._live -= 1
                processed += 1
                if processed > budget:
                    raise EventBudgetError(budget, t)
                rec[4](t)
        finally:
            self.events_processed = processed
        if until is not None and until > self.now:
            self.now = until
        return self.now

    def step(self) -> bool:
        """Process exactly one live event; False when none are pending.

        Enforces the same event budget as :meth:`run` — a stepped
        simulation must not be allowed to livelock forever either.
        """
        heap = self._heap
        while heap:
            rec = heapq.heappop(heap)
            token = rec[3]
            self._free.append(rec)
            if token.cancelled:
                self._cancelled_resident -= 1
                continue
            if token is not _IMMORTAL:
                token.cancelled = True  # consumed
            t = rec[0]
            self.now = t
            self.now_vtime = rec[1]
            self._live -= 1
            self.events_processed += 1
            if self.events_processed > self._max_events:
                raise EventBudgetError(self._max_events, t)
            rec[4](t)
            return True
        return False

    # ------------------------------------------------------------------

    def publish_telemetry(self, registry) -> None:
        """Publish scheduler counters under ``sim.*`` (pull-model)."""
        sim = registry.scope("sim")
        sim.set("now", self.now)
        sim.set("events_processed", self.events_processed)
        sim.set("events_pending", self.pending())
        sim.set("events_resident", self.resident())
        sim.set("heap_compactions", self.heap_compactions)
        sim.set("slab_free_records", len(self._free))
