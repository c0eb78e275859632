"""Command-line interface for the experiment harness.

Usage::

    python -m repro table1
    python -m repro table2
    python -m repro fig1  [--scale 0.25] [--threads 2,8,32]
        [--jobs 4] [--run-cache [DIR]]
    python -m repro fig7  [--systems Baseline,LockillerTM]
    python -m repro fig8 | fig9 | fig10 | fig11 | fig12 | fig13
    python -m repro sweep --workloads kmeans+ --systems \
        CGL,LockillerTM [--threads 2,4] [--seeds 1,2] [--jobs 2] \
        [--cache-dir DIR]
    python -m repro run --workload intruder --system LockillerTM \
        --threads 8 [--scale 0.25] [--seed 42] [--cache small|typical|large]
    python -m repro metrics --workload intruder \
        --system lockiller --cores 4 [--prefix core.0] [--json] [--out F]
    python -m repro timeline --workload intruder \
        --system lockiller --cores 4 [--out trace.json]
    python -m repro fuzz  [--cases 25] [--seed 0] [--paranoid]
    python -m repro chaos [--cases 25] [--plans jitter,lossy]
        [--systems ...] [--list-plans]

``run`` executes a single configuration and prints the full statistics
(cycles, breakdown, aborts, commit rate) — the building block the
figures aggregate.

``metrics`` and ``timeline`` re-run one cell under ``repro.telemetry``:
``metrics`` prints the hierarchical registry snapshot, ``timeline``
emits Chrome trace-event JSON on stdout (open it in Perfetto or
``chrome://tracing``).  Both accept ``--cores`` as an alias for
``--threads``.

Every system argument (``--system``, ``--systems``) accepts friendly
names (``lockiller`` → ``LockillerTM``) through ``resolve_system``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.common.params import (
    SystemParams,
    large_cache_params,
    small_cache_params,
    typical_params,
)
from repro.harness.experiments import (
    ExperimentContext,
    print_fig1,
    print_fig7,
    print_fig8,
    print_fig9,
    print_fig10,
    print_fig11,
    print_fig12,
    print_fig13,
    table1_parameters,
    table2_systems,
)
from repro.harness.parallel import CellTask, simulate
from repro.harness.reporting import format_table
from repro.harness.systems import resolve_system

CACHE_CONFIGS = {
    "small": small_cache_params,
    "typical": typical_params,
    "large": large_cache_params,
}

FIGURES = {
    "fig1": print_fig1,
    "fig7": print_fig7,
    "fig8": print_fig8,
    "fig9": print_fig9,
    "fig10": print_fig10,
    "fig11": print_fig11,
    "fig12": print_fig12,
    "fig13": print_fig13,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="LockillerTM reproduction experiment harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="print Table I (system parameters)")
    sub.add_parser("table2", help="print Table II (evaluated systems)")

    for name in FIGURES:
        p = sub.add_parser(name, help=f"regenerate {name} of the paper")
        p.add_argument("--scale", type=float, default=None)
        p.add_argument("--threads", type=str, default=None)
        p.add_argument("--seed", type=int, default=42)
        p.add_argument(
            "--jobs",
            type=int,
            default=None,
            help="worker processes (0=all CPUs; default $REPRO_JOBS/serial)",
        )
        p.add_argument(
            "--run-cache",
            nargs="?",
            const=True,
            default=None,
            metavar="DIR",
            help="reuse/fill the persistent run cache "
            "(optionally rooted at DIR; default $REPRO_RUN_CACHE_DIR)",
        )
        if name == "fig7":
            p.add_argument("--systems", type=str, default=None)

    run_p = sub.add_parser("run", help="run one (workload, system) pair")
    run_p.add_argument("--workload", required=True)
    run_p.add_argument("--system", required=True)
    run_p.add_argument("--threads", type=int, default=8)
    run_p.add_argument("--scale", type=float, default=0.25)
    run_p.add_argument("--seed", type=int, default=42)
    run_p.add_argument(
        "--cache", choices=sorted(CACHE_CONFIGS), default="typical"
    )

    def add_cell_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workload", required=True)
        p.add_argument("--system", required=True,
                       help="Table-II name or alias (e.g. lockiller)")
        p.add_argument("--threads", "--cores", dest="threads",
                       type=int, default=8)
        p.add_argument("--scale", type=float, default=0.25)
        p.add_argument("--seed", type=int, default=42)
        p.add_argument(
            "--cache", choices=sorted(CACHE_CONFIGS), default="typical"
        )
        p.add_argument("--out", type=str, default=None,
                       help="also write the JSON artifact to this path")

    metrics_p = sub.add_parser(
        "metrics",
        help="run one cell under telemetry and print the metrics registry",
    )
    add_cell_args(metrics_p)
    metrics_p.add_argument(
        "--prefix", type=str, default="",
        help="only show metrics under this dotted namespace",
    )
    metrics_p.add_argument(
        "--json", action="store_true",
        help="print the full snapshot as JSON instead of a listing",
    )
    metrics_p.add_argument(
        "--limit", type=int, default=None,
        help="cap the number of rendered lines",
    )

    timeline_p = sub.add_parser(
        "timeline",
        help="run one cell under telemetry and emit Chrome trace-event "
        "JSON (stdout; open in Perfetto)",
    )
    add_cell_args(timeline_p)
    timeline_p.add_argument(
        "--summary", action="store_true",
        help="print a human-readable span digest instead of JSON",
    )

    chart_p = sub.add_parser(
        "chart", help="ASCII stacked-bar breakdown + speedup chart"
    )
    chart_p.add_argument("--workload", required=True)
    chart_p.add_argument("--threads", type=int, default=8)
    chart_p.add_argument("--scale", type=float, default=0.25)
    chart_p.add_argument("--seed", type=int, default=42)
    chart_p.add_argument(
        "--systems",
        type=str,
        default="CGL,Baseline,LosaTM-SAFU,LockillerTM-RWI,LockillerTM",
    )

    fuzz_p = sub.add_parser(
        "fuzz", help="random-program fuzzing of all systems"
    )
    fuzz_p.add_argument("--cases", type=int, default=25)
    fuzz_p.add_argument("--seed", type=int, default=0)
    fuzz_p.add_argument("--paranoid", action="store_true")

    chaos_p = sub.add_parser(
        "chaos",
        help="chaos-mode fuzzing: the functional oracle under fault plans",
    )
    chaos_p.add_argument("--cases", type=int, default=25)
    chaos_p.add_argument("--seed", type=int, default=0)
    chaos_p.add_argument(
        "--plans",
        type=str,
        default=None,
        help="comma-separated fault-plan names (default: the standard "
        "jitter+lossy+chaos-monkey campaign)",
    )
    chaos_p.add_argument(
        "--systems",
        type=str,
        default=None,
        help="comma-separated system names (default: all Table-II systems)",
    )
    chaos_p.add_argument("--paranoid", action="store_true")
    chaos_p.add_argument(
        "--list-plans",
        action="store_true",
        help="print the available fault plans and exit",
    )

    sweep_p = sub.add_parser(
        "sweep", help="run a cartesian sweep and print a cycles pivot"
    )
    sweep_p.add_argument(
        "--workloads", required=True, help="comma-separated workload names"
    )
    sweep_p.add_argument(
        "--systems", required=True,
        help="comma-separated Table-II names or aliases",
    )
    sweep_p.add_argument("--threads", type=str, default="8")
    sweep_p.add_argument("--seeds", type=str, default="42")
    sweep_p.add_argument("--scale", type=float, default=0.25)
    sweep_p.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes (0=all CPUs; default $REPRO_JOBS/serial)",
    )
    sweep_p.add_argument(
        "--cache-dir",
        type=str,
        default=None,
        help="root of the persistent run cache (off when omitted)",
    )
    return parser


def _cell(
    args: argparse.Namespace, system: str, params: SystemParams
) -> CellTask:
    """The single cell named by ``--workload``/``--threads``/``--scale``/
    ``--seed`` on ``system`` (a Table-II name or alias)."""
    return CellTask(
        0,
        args.workload,
        resolve_system(system),
        args.threads,
        args.scale,
        args.seed,
        params,
    )


def _system_names(arg: str) -> List[str]:
    """Canonical Table-II names for a comma-separated ``--systems``."""
    return [resolve_system(s).name for s in arg.split(",") if s]


def _make_ctx(args: argparse.Namespace) -> ExperimentContext:
    kwargs = {}
    if getattr(args, "scale", None) is not None:
        kwargs["scale"] = args.scale
    if getattr(args, "threads", None):
        kwargs["threads"] = tuple(
            int(x) for x in str(args.threads).split(",") if x
        )
    kwargs["seed"] = getattr(args, "seed", 42)
    if getattr(args, "jobs", None) is not None:
        kwargs["jobs"] = args.jobs
    if getattr(args, "run_cache", None) is not None:
        kwargs["disk_cache"] = args.run_cache
    return ExperimentContext(**kwargs)


def _sweep(args: argparse.Namespace) -> str:
    from repro.harness.sweeps import Sweep

    sweep = Sweep(
        workloads=[w for w in args.workloads.split(",") if w],
        systems=[s for s in args.systems.split(",") if s],
        threads=tuple(int(x) for x in args.threads.split(",") if x),
        seeds=tuple(int(x) for x in args.seeds.split(",") if x),
        scale=args.scale,
        spec_resolver=resolve_system,
    )
    results = sweep.run(jobs=args.jobs, cache=args.cache_dir)
    pivot = results.pivot(lambda r: float(r.cycles))
    threads = sorted({r.point.threads for r in results.records})
    rows = [
        (system, *[f"{per_th.get(th, float('nan')):.0f}" for th in threads])
        for system, per_th in pivot.items()
    ]
    return format_table(
        ["system"] + [f"t{th}" for th in threads],
        rows,
        title=(
            f"sweep: {len(results)} cell(s), mean execution cycles "
            f"(scale={args.scale})"
        ),
    )


def _run_single(args: argparse.Namespace) -> str:
    cell = _cell(args, args.system, CACHE_CONFIGS[args.cache]())
    stats = simulate(cell)
    merged = stats.merged()
    rows = [
        ("execution cycles", stats.execution_cycles),
        ("commit rate", f"{stats.commit_rate:.3f}"),
        ("commits (htm/lock/switched)",
         f"{merged.commits_htm}/{merged.commits_lock}/{merged.commits_switched}"),
        ("aborts", merged.total_aborts),
        ("rejects received", merged.rejects_received),
        ("wakeups sent", merged.wakeups_sent),
        ("fallback entries", merged.fallback_entries),
        ("switch attempts/successes",
         f"{merged.switch_attempts}/{merged.switch_successes}"),
        ("L1 hit rate",
         f"{merged.l1_hits / max(1, merged.l1_hits + merged.l1_misses):.3f}"),
    ]
    out = [
        f"{args.workload} on {args.system} "
        f"({args.threads} threads, {args.cache} caches, scale={args.scale})",
        format_table(["metric", "value"], rows),
        "",
        format_table(
            ["time category", "fraction"],
            [
                (cat.value, f"{100 * frac:.1f}%")
                for cat, frac in stats.time_fractions().items()
            ],
        ),
        "",
        format_table(
            ["abort reason", "count"],
            [
                (r.value, n)
                for r, n in stats.abort_breakdown().items()
                if n
            ] or [("(none)", 0)],
        ),
    ]
    return "\n".join(out)


def _telemetry_cell(args: argparse.Namespace):
    """Run the cell described by ``args`` with telemetry attached."""
    from repro.telemetry import Telemetry

    tel = Telemetry()
    cell = _cell(args, args.system, CACHE_CONFIGS[args.cache]())
    return tel, simulate(cell, telemetry=tel)


def _metrics(args: argparse.Namespace) -> str:
    import json

    tel, _ = _telemetry_cell(args)
    if args.out:
        tel.write_metrics(args.out)
        print(f"metrics written to {args.out}", file=sys.stderr)
    if args.json:
        return json.dumps(tel.metrics_dict(), sort_keys=True, indent=2)
    reg = tel.registry
    header = (
        f"{args.workload} on {args.system} ({args.threads} threads, "
        f"scale={args.scale}, seed={args.seed}) — "
        f"{len(reg)} metrics, namespaces: {', '.join(reg.namespaces())}"
    )
    return header + "\n" + reg.render(args.prefix, limit=args.limit)


def _timeline(args: argparse.Namespace) -> str:
    import json

    from repro.telemetry import timeline_summary_lines

    tel, _ = _telemetry_cell(args)
    label = f"{args.workload}/{args.system}/t{args.threads}/s{args.seed}"
    doc = tel.trace_dict(run_label=label)
    if args.out:
        tel.write_trace(args.out, run_label=label)
        print(
            f"trace written to {args.out} — open it at "
            "https://ui.perfetto.dev or chrome://tracing",
            file=sys.stderr,
        )
    if args.summary:
        return "\n".join(timeline_summary_lines(tel.timeline))
    # Pure JSON on stdout: pipeable into a file or a validator.
    return json.dumps(doc, sort_keys=True)


def _chart(args: argparse.Namespace) -> str:
    from repro.harness.charts import breakdown_chart, hbar_chart

    breakdowns = {}
    cycles = {}
    for name in _system_names(args.systems):
        stats = simulate(_cell(args, name, typical_params()))
        breakdowns[name] = {
            c.value: f for c, f in stats.time_fractions().items()
        }
        cycles[name] = stats.execution_cycles
    base = cycles.get("CGL", max(cycles.values()))
    speedups = {name: base / c for name, c in cycles.items()}
    return (
        breakdown_chart(
            breakdowns,
            title=(
                f"{args.workload}, {args.threads} threads — "
                "execution-time breakdown"
            ),
        )
        + "\n\n"
        + hbar_chart(
            speedups, baseline=1.0, title="speedup vs CGL"
        )
    )


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "table1":
        print(table1_parameters())
    elif args.command == "table2":
        print(table2_systems())
    elif args.command == "run":
        print(_run_single(args))
    elif args.command == "sweep":
        print(_sweep(args))
    elif args.command == "metrics":
        print(_metrics(args))
    elif args.command == "timeline":
        print(_timeline(args))
    elif args.command == "chart":
        print(_chart(args))
    elif args.command == "fuzz":
        from repro.sim.fuzz import run_fuzz

        report = run_fuzz(
            cases=args.cases, seed=args.seed, paranoid=args.paranoid
        )
        print(report.render())
        return 0 if report.ok else 1
    elif args.command == "chaos":
        from repro.resilience.faults import get_plan, plan_names
        from repro.sim.fuzz import DEFAULT_SYSTEMS, run_chaos_fuzz

        if args.list_plans:
            for name in plan_names():
                print(f"  {name}: {get_plan(name).describe()}")
            return 0
        plans = (
            [get_plan(n) for n in args.plans.split(",") if n]
            if args.plans
            else None
        )
        systems = (
            tuple(_system_names(args.systems))
            if args.systems
            else DEFAULT_SYSTEMS
        )
        report = run_chaos_fuzz(
            cases=args.cases,
            seed=args.seed,
            systems=systems,
            paranoid=args.paranoid,
            plans=plans,
        )
        print(report.render())
        return 0 if report.ok else 1
    else:
        ctx = _make_ctx(args)
        printer = FIGURES[args.command]
        if args.command == "fig7" and getattr(args, "systems", None):
            print(printer(ctx, systems=_system_names(args.systems)))
        else:
            print(printer(ctx))
    return 0

