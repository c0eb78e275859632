"""Same-box A/B of two git revisions on the repository benchmark.

Usage (from anywhere inside the repository)::

    python benchmarks/ab.py REV_A REV_B [--workload paper-grid] [--pairs 3]

Each revision is exported with ``git archive`` into its own temporary
directory, so no worktree or checkout state is left behind.  Each pair
then runs ``perfbench/run.py --trace 0`` once in each tree, for the
``run_seconds`` that ``BENCHMARK.json`` declares; the side that runs
first alternates from pair to pair, and both sides of a pair use the
same benchmark seed.  The report gives, per end-to-end metric, each
side's min and median and A's quartile spread.

B passes against A unless one of these holds:

* a run on either side reports ``correct: false``;
* B fails a larger share of its operations than A;
* B's median of an end-to-end metric is worse than A's by more than
  that metric's ``bound`` (a relative change, in the metric's
  ``better`` direction).

The rules (metric names, directions and bounds) come from REV_A's
``BENCHMARK.json``, so a change cannot loosen the gate it is judged by.
Exit status: 0 when B passes, 1 when it does not, 2 when the benchmark
could not run.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from typing import Dict, Iterator, List, Mapping, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from helpers import median, quartile_spread  # noqa: E402

#: One parsed perfbench result line.
Result = Dict


class ABError(Exception):
    """A revision could not be exported or its benchmark did not run."""


def regression(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, relative to ``a``.

    Positive when worse, negative when better; ``inf`` when ``a`` is 0
    and ``b`` moved the wrong way.
    """
    worse_by = b - a if better == "lower" else a - b
    if a == 0:
        return 0.0 if worse_by <= 0 else math.inf
    return worse_by / abs(a)


def failed_share(runs: Sequence[Result]) -> float:
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def compared(a_runs: Sequence[Result], b_runs: Sequence[Result],
             end_to_end: Sequence[Mapping]) -> Iterator[Tuple]:
    """(metric, A's values, B's values, B's median regression) per
    end-to-end metric that both sides report."""
    for metric in end_to_end:
        a_vals, b_vals = (
            [r["metrics"][metric["name"]]["value"] for r in runs
             if metric["name"] in r["metrics"]]
            for runs in (a_runs, b_runs)
        )
        if a_vals and b_vals:
            yield metric, a_vals, b_vals, regression(
                median(a_vals), median(b_vals), metric["better"])


def verdict(a_runs: Sequence[Result], b_runs: Sequence[Result],
            end_to_end: Sequence[Mapping]) -> List[str]:
    """Why B fails against A: one reason per broken rule, empty if none.

    ``a_runs``/``b_runs`` are perfbench result lines; ``end_to_end`` is
    ``BENCHMARK.json``'s list of ``{name, better, bound}``.
    """
    reasons = []
    for side, runs in (("A", a_runs), ("B", b_runs)):
        bad = sum(1 for r in runs if not r["correct"])
        if bad:
            reasons.append(f"{side}: {bad} of {len(runs)} runs "
                           f"report correct: false")
    a_failed, b_failed = failed_share(a_runs), failed_share(b_runs)
    if b_failed > a_failed:
        reasons.append(f"B fails {b_failed:.2%} of operations, "
                       f"A {a_failed:.2%}")
    for metric, _a_vals, _b_vals, worse in compared(a_runs, b_runs,
                                                    end_to_end):
        if worse > metric["bound"]:
            reasons.append(f"{metric['name']}: B's median is {worse:.1%} "
                           f"worse than A's (bound {metric['bound']:.0%})")
    return reasons


def report(a_runs: Sequence[Result], b_runs: Sequence[Result],
           end_to_end: Sequence[Mapping]) -> str:
    head = (f"{'metric':<20} {'unit':<4} {'A min':>11} {'A median':>11} "
            f"{'A spread':>8} {'B min':>11} {'B median':>11} "
            f"{'change':>8} {'bound':>6}")
    lines = [head, "-" * len(head)]
    for metric, a_vals, b_vals, worse in compared(a_runs, b_runs,
                                                  end_to_end):
        spread = (f"{quartile_spread(a_vals):8.1%}" if len(a_vals) > 1
                  else f"{'-':>8}")
        lines.append(
            f"{metric['name']:<20} {metric['unit']:<4} {min(a_vals):11.5g} "
            f"{median(a_vals):11.5g} {spread} {min(b_vals):11.5g} "
            f"{median(b_vals):11.5g} {0.0 - worse:+8.1%} "
            f"{metric['bound']:6.0%}"
        )
    for side, runs in (("A", a_runs), ("B", b_runs)):
        lines.append(
            f"{side}: correct {sum(r['correct'] for r in runs)}/{len(runs)}"
            f", failed {sum(r['failed'] for r in runs)}"
            f"/{sum(r['attempted'] for r in runs)} operations"
        )
    lines.append("(change: + is better, in the metric's direction)")
    return "\n".join(lines)


# -- running -------------------------------------------------------------


def git(*args: str) -> bytes:
    done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True)
    if done.returncode:
        raise ABError(f"git {' '.join(args)}: "
                      f"{done.stderr.decode(errors='replace').strip()}")
    return done.stdout


def export(rev: str, dest: str) -> str:
    """Write ``rev``'s committed files into ``dest``; return its sha."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", sha))) as tar:
        tar.extractall(dest, filter="data")
    return sha


def run_bench(tree: str, workload: str, seed: int, seconds: float) -> Result:
    """One ``perfbench/run.py --trace 0`` in ``tree``; its result line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        raise ABError(f"perfbench in {tree} exited {done.returncode}:\n"
                      f"{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev_a", metavar="REV_A", help="the base revision")
    parser.add_argument("rev_b", metavar="REV_B",
                        help="the revision judged against REV_A")
    parser.add_argument("--workload", default="paper-grid")
    parser.add_argument("--pairs", type=int, default=3)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        trees = {side: os.path.join(tmp, side) for side in "AB"}
        try:
            shas = {side: export(rev, trees[side]) for side, rev
                    in (("A", args.rev_a), ("B", args.rev_b))}
            with open(os.path.join(trees["A"], "BENCHMARK.json"),
                      encoding="utf-8") as fh:
                bench = json.load(fh)
            runs: Dict[str, List[Result]] = {"A": [], "B": []}
            print(f"A = {args.rev_a} ({shas['A'][:12]}), "
                  f"B = {args.rev_b} ({shas['B'][:12]}); "
                  f"{args.workload}, {args.pairs} pairs of "
                  f"{bench['run_seconds']} s runs", flush=True)
            for pair in range(args.pairs):
                order = "AB" if pair % 2 == 0 else "BA"
                for side in order:
                    result = run_bench(trees[side], args.workload,
                                       pair + 1, bench["run_seconds"])
                    runs[side].append(result)
                    wall = result["metrics"].get("wall_s", {}).get("value")
                    print(f"  pair {pair + 1} {side}: correct="
                          f"{result['correct']} wall_s={wall}", flush=True)
        except ABError as exc:
            print(f"ab: {exc}", file=sys.stderr)
            return 2

    end_to_end = bench["end_to_end"]
    print(report(runs["A"], runs["B"], end_to_end))
    reasons = verdict(runs["A"], runs["B"], end_to_end)
    for reason in reasons:
        print(f"FAIL {reason}")
    print("B passes against A" if not reasons else "B fails against A")
    return 1 if reasons else 0


if __name__ == "__main__":
    sys.exit(main())
