"""Unit tests for the benchmark's own helpers.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import os
import sys
import threading

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import helpers  # noqa: E402
from tracing import Tracer  # noqa: E402


# -- percentile choice -------------------------------------------------


def test_samples_beyond_counts_strictly_above_the_rank():
    assert helpers.samples_beyond(100, 90) == 10
    assert helpers.samples_beyond(99, 90) == 9
    assert helpers.samples_beyond(1000, 99) == 10
    assert helpers.samples_beyond(10, 50) == 5


@pytest.mark.parametrize("n, expected", [
    (9, None),        # even p50 has only 4 beyond
    (20, 50.0),       # p50 has 10 beyond, p90 only 2
    (99, 50.0),       # p90 has 9 beyond: one short
    (100, 90.0),      # p90 has exactly 10 beyond
    (999, 90.0),      # p99 has 9 beyond
    (1000, 99.0),
    (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert helpers.tail_percentile(n) == expected


def test_tail_percentile_respects_custom_ladder_and_threshold():
    assert helpers.tail_percentile(50, ladder=(80.0, 50.0)) == 80.0
    assert helpers.tail_percentile(50, ladder=(80.0,), beyond=11) is None


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))  # 1..100
    assert helpers.percentile(values, 50) == 50
    assert helpers.percentile(values, 90) == 90
    assert helpers.percentile(list(reversed(values)), 90) == 90
    assert helpers.percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        helpers.percentile([], 50)


def test_quartile_spread_matches_statistics_quantiles():
    vals = [10.0, 11.0, 9.0, 10.5, 9.5, 10.0, 10.2, 9.8, 10.1, 9.9]
    q1, q2, q3 = __import__("statistics").quantiles(vals, n=4)
    assert helpers.quartile_spread(vals) == pytest.approx((q3 - q1) / q2)
    assert helpers.quartile_spread([5.0] * 10) == 0.0


# -- self time ---------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("engine.run", 0.0, 10.0, -1),
        ("memsys.access", 1.0, 4.0, 0),
        ("conflict.resolve", 2.0, 3.0, 1),
        ("noc.price", 5.0, 5.5, 0),
        ("memsys.access", 6.0, 7.0, 0),
    ]
    own = helpers.self_times(spans)
    assert own["engine.run"] == pytest.approx(10.0 - 3.0 - 0.5 - 1.0)
    assert own["memsys.access"] == pytest.approx((3.0 - 1.0) + 1.0)
    assert own["conflict.resolve"] == pytest.approx(1.0)
    assert own["noc.price"] == pytest.approx(0.5)
    total = helpers.total_times(spans)
    assert total["memsys.access"] == pytest.approx(4.0)
    # Self times partition the root span's interval.
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_clips_children_to_the_parent_interval():
    spans = [("outer", 0.0, 2.0, -1), ("inner", 1.0, 3.0, 0)]
    own = helpers.self_times(spans)
    assert own["outer"] == pytest.approx(1.0)
    assert own["inner"] == pytest.approx(2.0)


def test_durations_selects_by_name():
    spans = [("a", 0.0, 1.0, -1), ("b", 1.0, 3.0, -1), ("a", 3.0, 3.5, -1)]
    assert helpers.durations(spans, "a") == [1.0, 0.5]


def test_tracer_records_nesting_and_restores_originals():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 41

    original_outer = Layer.__dict__["outer"]
    tracer = Tracer()
    with tracer.installed([(Layer, "outer", "outer"),
                           (Layer, "inner", "inner")]):
        assert Layer().outer() == 42
    assert Layer.__dict__["outer"] is original_outer
    spans = tracer.spans()
    assert [(s[0], s[3]) for s in spans] == [("outer", -1), ("inner", 0)]
    own = helpers.self_times(spans)
    assert own["outer"] + own["inner"] == pytest.approx(
        spans[0][2] - spans[0][1]
    )


def test_tracer_restores_inherited_methods_by_deleting_the_override():
    class Base:
        def get(self):
            return "base"

    class Child(Base):
        pass

    tracer = Tracer()
    with tracer.installed([(Child, "get", "child.get")]):
        assert "get" in vars(Child)
        assert Child().get() == "base"
    assert "get" not in vars(Child)
    assert len(tracer) == 1


def test_tracer_keeps_one_stack_per_thread():
    tracer = Tracer()
    barrier = threading.Barrier(2)
    inner = tracer.wrap(lambda: None, "inner")

    def body():
        barrier.wait(timeout=10)  # both outer spans are open at once
        inner()

    outer = tracer.wrap(body, "outer")
    threads = [threading.Thread(target=outer) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    spans = tracer.spans()
    for name, _s, _e, parent in spans:
        if name == "inner":
            assert spans[parent][0] == "outer"
    assert sum(1 for s in spans if s[3] == -1) == 2


# -- digest ------------------------------------------------------------

ROWS = [
    ("genome/Baseline/t32/s42/typical", 1000, 50, 3),
    ("genome/LockillerTM/t32/s42/typical", 900, 50, 1),
    ("yada/CGL/t32/s42/typical", 5000, 40, 0),
]


def test_digest_ignores_row_order():
    assert helpers.cell_digest(ROWS) == helpers.cell_digest(ROWS[::-1])


def test_digest_normalises_numeric_types():
    as_floats = [(label, float(c), float(m), float(a))
                 for label, c, m, a in ROWS]
    assert helpers.cell_digest(ROWS) == helpers.cell_digest(as_floats)


def test_digest_is_pinned():
    # A changed digest function would silently invalidate every
    # expected_digest in workloads.json; this pin catches it.
    assert helpers.cell_digest(ROWS) == "9b740f18984f3e2b"


@pytest.mark.parametrize("field", [1, 2, 3])
def test_digest_changes_with_any_cell_number(field):
    changed = [list(r) for r in ROWS]
    changed[1][field] += 1
    assert helpers.cell_digest(ROWS) != helpers.cell_digest(
        [tuple(r) for r in changed]
    )


def test_geomean():
    assert helpers.geomean([2.0, 8.0]) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        helpers.geomean([1.0, 0.0])


def test_result_line_has_exactly_the_contract_keys():
    import json

    line = helpers.result_line(True, 3, 0, {"wall_s": (1.5, "s")})
    doc = json.loads(line)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["metrics"] == {"wall_s": {"value": 1.5, "unit": "s"}}


def test_speedups_are_geomeans_over_groups():
    cycles = {
        ("genome", "LockillerTM"): 100, ("genome", "Baseline"): 200,
        ("genome", "LosaTM-SAFU"): 100,
        ("yada", "LockillerTM"): 100, ("yada", "Baseline"): 800,
        ("yada", "LosaTM-SAFU"): 400,
    }
    vs_base, vs_losa = helpers.speedups(cycles, "LockillerTM",
                                        ("Baseline", "LosaTM-SAFU"))
    assert vs_base == pytest.approx(4.0)
    assert vs_losa == pytest.approx(2.0)


def test_speed_factor_scales_to_the_nominal_slice():
    from hostspeed import NOMINAL_SLICE_S, SpeedProbe, speed_factor

    assert speed_factor([NOMINAL_SLICE_S] * 3) == pytest.approx(1.0)
    # A host twice as slow halves every raw time.
    assert speed_factor([2 * NOMINAL_SLICE_S] * 4) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        speed_factor([])
    probe = SpeedProbe()
    probe.sample(2)
    assert len(probe.slices) == 2 and probe.factor > 0
