"""``benchmarks/ab.py``'s pass/fail rule, checked on hand-written
perfbench result lines against the bounds in ``BENCHMARK.json``."""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location(
        "ab", os.path.join(_ROOT, "benchmarks", "ab.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def end_to_end():
    with open(os.path.join(_ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)["end_to_end"]


def bound_of(end_to_end, name):
    return next(m["bound"] for m in end_to_end if m["name"] == name)


def result(correct=True, attempted=81, failed=0, **metrics):
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": "-"}
                    for name, value in metrics.items()},
    }


def runs(values, **kwargs):
    """One result line per value of ``wall_s``, plus fixed extras."""
    return [result(wall_s=v, **kwargs) for v in values]


class TestVerdict:
    def test_identical_sides_pass(self, ab, end_to_end):
        side = runs([8.0, 8.2, 8.1], ops_per_s=10.0)
        assert ab.verdict(side, side, end_to_end) == []

    def test_lower_is_better_regression_past_bound_fails(self, ab,
                                                         end_to_end):
        bound = bound_of(end_to_end, "wall_s")
        a = runs([8.0, 8.0, 8.0])
        b = runs([8.0 * (1 + bound) * 1.05] * 3)
        (reason,) = ab.verdict(a, b, end_to_end)
        assert reason.startswith("wall_s:")

    def test_lower_is_better_regression_inside_bound_passes(self, ab,
                                                            end_to_end):
        bound = bound_of(end_to_end, "wall_s")
        a = runs([8.0, 8.0, 8.0])
        b = runs([8.0 * (1 + bound * 0.9)] * 3)
        assert ab.verdict(a, b, end_to_end) == []

    def test_judged_on_medians(self, ab, end_to_end):
        # One slow outlier on B does not move its median.
        a = runs([8.0, 8.0, 8.0])
        b = runs([8.0, 8.0, 80.0])
        assert ab.verdict(a, b, end_to_end) == []

    @pytest.mark.parametrize(
        "name", ["ops_per_s", "speedup_vs_baseline", "speedup_vs_losatm"]
    )
    def test_higher_is_better_direction(self, ab, end_to_end, name):
        bound = bound_of(end_to_end, name)
        a = [result(wall_s=8.0, **{name: 2.0})] * 3
        lower = [result(wall_s=8.0, **{name: 2.0 * (1 - 2 * bound)})] * 3
        higher = [result(wall_s=8.0, **{name: 2.0 * (1 + 2 * bound)})] * 3
        (reason,) = ab.verdict(a, lower, end_to_end)
        assert reason.startswith(f"{name}:")
        assert ab.verdict(a, higher, end_to_end) == []

    def test_lower_is_better_improvement_passes(self, ab, end_to_end):
        assert ab.verdict(runs([8.0] * 3), runs([4.0] * 3), end_to_end) == []

    @pytest.mark.parametrize("bad_side", ["A", "B"])
    def test_incorrect_run_on_either_side_fails(self, ab, end_to_end,
                                                bad_side):
        good = runs([8.0] * 3)
        bad = runs([8.0, 8.0]) + runs([8.0], correct=False)
        a, b = (bad, good) if bad_side == "A" else (good, bad)
        (reason,) = ab.verdict(a, b, end_to_end)
        assert reason.startswith(f"{bad_side}:")
        assert "correct: false" in reason

    def test_more_failed_operations_on_b_fails(self, ab, end_to_end):
        a = runs([8.0] * 3, failed=1)
        b = runs([8.0] * 3, failed=2)
        (reason,) = ab.verdict(a, b, end_to_end)
        assert reason.startswith("B fails")
        # Fewer or equal failures on B are not a regression.
        assert ab.verdict(b, a, end_to_end) == []
        assert ab.verdict(a, a, end_to_end) == []

    def test_metric_missing_on_one_side_is_skipped(self, ab, end_to_end):
        a = runs([8.0] * 3, op_p50_ms=100.0)
        b = runs([8.0] * 3)
        assert ab.verdict(a, b, end_to_end) == []

    def test_report_lists_each_shared_metric(self, ab, end_to_end):
        a = runs([8.0, 8.4, 8.2], ops_per_s=10.0)
        b = runs([8.1, 8.3, 8.2], ops_per_s=10.0)
        text = ab.report(a, b, end_to_end)
        assert "wall_s" in text and "ops_per_s" in text
        assert "op_p50_ms" not in text
        assert "A: correct 3/3, failed 0/243 operations" in text
