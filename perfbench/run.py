r"""Repository benchmark: one workload per invocation, one JSON line out.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 40 \
        --trace 0

Workloads are defined in ``perfbench/workloads.json``.  With
``--trace 0`` the last stdout line carries every end-to-end metric; with
``--trace 1`` it carries every per-layer metric from a traced pass plus
the tracing overhead, and the recorded spans are written to
``.perfbench_work/``.  ``--workload all`` runs every workload untraced
and prints each one's metrics by name with its unit.  The exit code is
non-zero, and no result line is printed, when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import common
import helpers


def run_one(name: str, seed: int, seconds: float, trace: bool):
    specs = common.load_workloads()
    if name not in specs:
        raise common.BenchError(
            f"unknown workload {name!r}; choose from {sorted(specs)}"
        )
    spec = specs[name]
    common.import_repro()
    setup_times = [] if trace else common.measure_setup(name)
    if spec["kind"] == "service":
        import service_workload as impl
    else:
        import sim_workloads as impl
    return impl.run(spec, seed, seconds, trace, setup_times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds)
        correct, attempted, failed, metrics, detail = run_one(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    except common.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    tracer = detail.pop("tracer", None)
    if tracer is not None:
        path = os.path.join(common.work_dir("spans"),
                            f"{args.workload}.json.gz")
        tracer.dump(path)
        detail["span_file"] = os.path.relpath(path, common.ROOT)
    print(json.dumps({"workload": args.workload, "detail": detail},
                     sort_keys=True), file=sys.stderr)
    print(helpers.result_line(correct, attempted, failed, metrics))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced; fails if any output check fails."""
    ok = True
    for name in common.load_workloads():
        t0 = time.perf_counter()
        correct, attempted, failed, metrics, _detail = run_one(
            name, seed, seconds, False
        )
        ok = ok and correct and not failed
        print(f"{name}: correct={correct} attempted={attempted} "
              f"failed={failed} ({time.perf_counter() - t0:.1f} s)")
        for metric, (value, unit) in metrics.items():
            print(f"  {metric:<22} {value:14.6g} {unit}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
