"""The telemetry session facade: one object per observed run.

``Telemetry`` is the one object that attaches to a machine.  It
subscribes a single handler to the machine's
:class:`~repro.telemetry.events.TelemetryHub` that counts every event
into ``events.<kind>`` and folds it into a :class:`TimelineBuilder`;
at ``finalize`` time it asks every component to publish its counters
into the registry (pull-model, so the simulator's hot paths carry no
metric calls).  Typical use, via :func:`repro.sim.runner.run_workload`::

    tel = Telemetry()
    stats = run_workload(RunConfig(spec, 4, 0.05, seed=3,
                                   telemetry=tel))
    tel.registry.snapshot()      # flat {name: value}
    tel.trace_dict("intruder")   # Chrome trace-event JSON (Perfetto)

Telemetry off is ``telemetry=None``: the machine is never wrapped,
which is the golden-preserving default path.
"""

from __future__ import annotations

from typing import Dict

from repro.telemetry.chrometrace import chrome_trace, validate_chrome_trace
from repro.telemetry.events import TelemetryEvent, TelemetryHub
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.sinks import write_json_atomic
from repro.telemetry.timeline import TimelineBuilder


class Telemetry:
    """Registry + timeline + one hub subscription for one run."""

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.timeline = TimelineBuilder()
        self._machine = None
        self._finalized = False

    # -- lifecycle -----------------------------------------------------

    def attach(self, machine) -> "Telemetry":
        """Wire this session to ``machine`` (idempotent per machine)."""
        if self._machine is machine:
            return self
        if self._machine is not None:
            raise RuntimeError(
                "telemetry session already attached to another machine"
            )
        self._machine = machine
        self.timeline.machine = machine
        TelemetryHub.of(machine).subscribe(self._on_event)
        return self

    def detach(self) -> None:
        if self._machine is None:
            return
        TelemetryHub.of(self._machine).unsubscribe(self._on_event)
        self.timeline.machine = None
        self._machine = None

    def _on_event(self, ev: TelemetryEvent) -> None:
        self.registry.counter(f"events.{ev.kind.value}").inc()
        self.timeline.handle(ev)

    def finalize(self, stats=None, build=None) -> "Telemetry":
        """Pull component metrics into the registry; close the timeline.

        Call once after the run: ``stats`` is the finished
        :class:`~repro.common.stats.RunStats`, ``build`` the
        :class:`~repro.workloads.base.WorkloadBuild` (both optional —
        whatever is given gets published).  The machine stays attached
        until :meth:`detach`, so artifacts can still be rendered.
        """
        if self._finalized:
            return self
        self._finalized = True
        machine = self._machine
        reg = self.registry
        end_time = None
        if stats is not None:
            end_time = stats.execution_cycles
        elif machine is not None:
            end_time = machine.engine.now
        self.timeline.close(end_time)
        if machine is not None:
            machine.publish_telemetry(reg)
        if stats is not None:
            run = reg.scope("run")
            run.set("execution_cycles", stats.execution_cycles)
            run.set("commits", stats.commits)
            run.set("tx_attempts", stats.tx_attempts)
            run.set("sanity_failures", len(stats.sanity_failures))
        if build is not None:
            wl = reg.scope("workload")
            wl.set("name", build.name)
            wl.set("programs", len(build.programs))
            for key, value in sorted(build.meta.items()):
                if isinstance(value, (bool, int, float, str)):
                    wl.set(f"meta.{key}", value)
        return self

    # -- artifacts -----------------------------------------------------

    def metrics_dict(self) -> Dict[str, object]:
        return self.registry.snapshot()

    def trace_dict(self, run_label: str = "repro") -> Dict[str, object]:
        doc = chrome_trace(self.timeline, run_label=run_label)
        problems = validate_chrome_trace(doc)
        if problems:  # pragma: no cover - renderer bug guard
            raise AssertionError(
                f"generated invalid chrome trace: {problems[:3]}"
            )
        return doc

    def write_metrics(self, path: str) -> str:
        return write_json_atomic(path, self.metrics_dict(), indent=2)

    def write_trace(self, path: str, run_label: str = "repro") -> str:
        return write_json_atomic(path, self.trace_dict(run_label))
