"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload paper-grid --seeds 1-10 --show

Runs ``perfbench/run.py`` once per seed (sequentially, untraced by
default), keeps each run's stderr under ``.perfbench_work/spread/``,
and prints, per metric, the median of the runs and the
quartile spread (Q3 - Q1) / median next to the bound BENCHMARK.json
fixes for it.  Exit status is non-zero when any run is incorrect, fails
an operation, or a metric's spread exceeds its bound (setup_s
excepted, whose bound only limits the median's drift).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import helpers
from common import HERE, ROOT, work_dir


def parse_seeds(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--show", action="store_true",
                        help="also print every run's value")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    ok = True
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        log = os.path.join(work_dir("spread"), f"{args.workload}-{seed}.log")
        with open(log, "w", encoding="utf-8") as fh:
            fh.write(proc.stderr)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and result["correct"] and not result["failed"]
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vals in values.items():
        spread = helpers.quartile_spread(vals) if len(vals) >= 2 else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound:
            ok = False
            flag = "  OVER BOUND"
        shown = "-" if bound is None else f"{bound:.3f}"
        print(f"{name:<30} median {helpers.median(vals):14.6g}  "
              f"spread {spread:7.4f}  bound {shown}{flag}")
        if args.show:
            print("    " + " ".join(f"{v:.6g}" for v in vals))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
