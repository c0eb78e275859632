#!/usr/bin/env python
"""Observe a contended run: metrics, transaction timeline, Perfetto trace.

Runs a small high-contention workload on LockillerTM with a
``repro.telemetry.Telemetry`` session attached, then shows the
debugging loop you would actually use when a workload misbehaves:

* the per-transaction timeline (spans with abort reasons and NACK
  annotations), written to ``trace_inspection.trace.json`` — open it at
  https://ui.perfetto.dev (or ``chrome://tracing``) to see one track
  per core plus live-set / signature-fill counter tracks;
* the hierarchical metrics registry (``core.N.*``, ``htm.nack.*``,
  ``noc.*``, ``lock_tx.*``), including one ``events.<kind>`` counter per
  lifecycle event;
* a hottest-contended-lines table from a three-line subscriber on the
  machine's telemetry event hub — any callable can subscribe, and
  unsubscribing the last one restores the machine's callbacks.

Run:  python examples/trace_inspection.py
"""

from collections import Counter

from repro.common.params import typical_params
from repro.harness.systems import get_system
from repro.sim.machine import Machine
from repro.telemetry import Telemetry, TelemetryHub, TraceEvent
from repro.workloads.registry import get_workload

TRACE_PATH = "trace_inspection.trace.json"


def main() -> None:
    telemetry = Telemetry()

    build = get_workload("intruder").build(threads=6, scale=0.15, seed=42)
    machine = Machine(
        typical_params(), get_system("LockillerTM"), build.programs, seed=42
    )
    rejects_per_line = Counter()

    def count_rejects(ev):
        if ev.kind is TraceEvent.REJECT:
            rejects_per_line[ev.line] += 1

    # The session and the counter share one set of callback wraps on
    # the machine's telemetry hub; attaching twice is a harmless no-op.
    telemetry.attach(machine)
    telemetry.attach(machine)  # idempotent: no double-wrapping, no error
    hub = TelemetryHub.of(machine)
    hub.subscribe(count_rejects)
    cycles = machine.run()
    failures = build.verify(machine.memsys.memory)
    assert not failures, failures
    telemetry.finalize(None, build)

    print(f"run finished in {cycles} cycles\n")

    # -- the transaction timeline ------------------------------------
    timeline = telemetry.timeline
    summary = timeline.summary()
    print(
        f"timeline: {summary['spans']} spans, outcomes {summary['by_outcome']},"
        f" {summary['nacks']} NACKs inside transactions"
    )
    longest = max(timeline.spans, key=lambda s: s.duration)
    print(
        f"longest span: core{longest.core} tx#{longest.index} "
        f"[{longest.start}, {longest.end}] {longest.label()} "
        f"(nacks={longest.nacks}, wakeups={longest.wakeups})"
    )
    telemetry.write_trace(TRACE_PATH, run_label="intruder/LockillerTM")
    print(
        f"\nPerfetto trace written to {TRACE_PATH} — open it at "
        "https://ui.perfetto.dev\n"
    )

    # -- the metrics registry ----------------------------------------
    reg = telemetry.registry
    print(f"metrics registry: {len(reg)} metrics")
    for name in (
        "htm.nack.received.total",
        "htm.wakeup.registered",
        "lock_tx.arbiter.stl_grants",
        "noc.messages_sent",
    ):
        print(f"  {name:32s} {reg.value(name)}")

    print("\nhottest contended lines (by reject events):")
    for line, hits in rejects_per_line.most_common(5):
        print(f"  line {line:#x}: {hits} rejected requests")

    print("\nevent counts:")
    for name, count in reg.query("events").items():
        print(f"  {name[len('events.'):]:15s} {count}")

    print("\nlast 8 transaction spans:")
    for span in timeline.spans[-8:]:
        print(
            f"  [{span.start:>10d}, {span.end:>10d}] core{span.core:<2d} "
            f"{span.label()}"
        )

    # Restore the machine's callbacks (exact originals once the last
    # subscriber leaves).
    hub.unsubscribe(count_rejects)
    telemetry.detach()
    assert not hub.wired

if __name__ == "__main__":
    main()
