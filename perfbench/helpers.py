"""Pure helpers shared by the benchmark workloads (no simulator imports).

Everything here is deterministic and unit-tested in ``test_helpers.py``:
percentile choice, self-time subtraction over recorded spans, the
per-cell result digest, and the small statistics the report uses.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from fractions import Fraction
from typing import (Dict, Hashable, Iterable, List, Mapping, Optional,
                    Sequence, Tuple)

#: Percentiles the report may quote, highest first.
PERCENTILE_LADDER = (99.9, 99.0, 90.0, 50.0)

#: A quoted tail percentile must have at least this many samples beyond it.
MIN_BEYOND = 10


def _rank(n: int, pct: float) -> int:
    """Nearest rank ceil(pct/100 * n), exact for decimal ``pct``."""
    return max(1, math.ceil(Fraction(str(pct)) * n / 100))


def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples lie strictly above the ``pct`` rank."""
    return n - _rank(n, pct)


def tail_percentile(n: int, ladder: Sequence[float] = PERCENTILE_LADDER,
                    beyond: int = MIN_BEYOND) -> Optional[float]:
    """Highest percentile of ``ladder`` with ``beyond`` samples above it.

    ``None`` when even the lowest rung has too few samples beyond it.
    """
    for pct in sorted(ladder, reverse=True):
        if samples_beyond(n, pct) >= beyond:
            return pct
    return None


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (the value at rank ceil(pct/100 * n))."""
    if not values:
        raise ValueError("percentile of no values")
    return sorted(values)[_rank(len(values), pct) - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, the run-to-run spread the bounds are set on."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def geomean(values: Iterable[float]) -> float:
    vals = list(values)
    if not vals or any(v <= 0 for v in vals):
        raise ValueError(f"geomean needs positive values, got {vals}")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def speedups(cycles: Mapping[Tuple[Hashable, str], int], ours: str,
             others: Sequence[str]) -> List[float]:
    """Per other system, the geomean over groups of its cycles over ours.

    ``cycles`` maps (group, system) to execution cycles; a group is a
    kernel, or a (kernel, seed) pair.
    """
    groups = sorted({group for group, _system in cycles})
    return [geomean(cycles[(g, other)] / cycles[(g, ours)] for g in groups)
            for other in others]


# -- spans -------------------------------------------------------------

#: One recorded span: (name, start, end, parent index or -1).
Span = Tuple[str, float, float, int]


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Per-name self time: each span's duration minus its children's.

    A child is any span whose ``parent`` is that span's index.  Children
    of one span come from the same thread's call stack, so they never
    overlap each other; each is clipped to its parent's interval before
    it is subtracted.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            _pname, pstart, pend, _pp = spans[parent]
            covered[parent] += max(0.0, min(end, pend) - max(start, pstart))
    out: Dict[str, float] = {}
    for i, (name, start, end, _parent) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - covered[i]
    return out


def total_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Per-name inclusive time (sum of span durations)."""
    out: Dict[str, float] = {}
    for name, start, end, _parent in spans:
        out[name] = out.get(name, 0.0) + (end - start)
    return out


def durations(spans: Sequence[Span], name: str) -> List[float]:
    return [end - start for n, start, end, _p in spans if n == name]


# -- output checks -----------------------------------------------------


def cell_digest(rows: Iterable[Tuple[str, int, int, int]]) -> str:
    """SHA-256 over per-cell (label, cycles, commits, aborts), order-free.

    Rows are sorted by label first, so the digest does not depend on the
    order the cells ran in; any change to any cell's numbers changes it.
    """
    canon = sorted((str(label), int(cycles), int(commits), int(aborts))
                   for label, cycles, commits, aborts in rows)
    blob = json.dumps(canon, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, Tuple[float, str]]) -> str:
    """The one JSON line the benchmark prints last."""
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }, sort_keys=False)
