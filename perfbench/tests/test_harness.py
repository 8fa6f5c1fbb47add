"""Self-tests of the benchmark's own arithmetic and its metric list.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import json
import math
from pathlib import Path

import pytest

from harness import (
    Tracer,
    beyond,
    covered_length,
    latency_summary,
    ledger,
    percentile,
    self_times,
)
from metrics import END_TO_END, PER_LAYER

ROOT = Path(__file__).resolve().parents[2]


def span(name, start, end, parent):
    return [name, start, end, parent, None]


class TestSelfTime:
    def test_nested_spans_subtract_their_children(self):
        spans = [
            span("root", 0.0, 10.0, -1),
            span("a", 1.0, 4.0, 0),
            span("a.child", 2.0, 3.0, 1),
            span("b", 5.0, 9.0, 0),
        ]
        assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])

    def test_overlapping_children_are_counted_once(self):
        spans = [
            span("root", 0.0, 10.0, -1),
            span("a", 1.0, 4.0, 0),
            span("b", 3.0, 6.0, 0),
        ]
        assert self_times(spans)[0] == pytest.approx(5.0)

    def test_children_are_clipped_to_their_parent(self):
        assert covered_length([(-1.0, 2.0), (8.0, 12.0)], 0.0, 10.0) == 4.0
        assert covered_length([], 0.0, 10.0) == 0.0

    def test_ledger_shares_add_up_to_the_root(self):
        spans = [
            span("root", 0.0, 10.0, -1),
            span("a", 1.0, 4.0, 0),
            span("a.child", 2.0, 3.0, 1),
            span("a", 5.0, 6.0, 0),
            span("stray", 20.0, 21.0, -1),
        ]
        entries = ledger(spans, 0)
        assert entries["a"]["count"] == 2
        assert entries["a"]["self_s"] == pytest.approx(3.0)
        assert entries["root"]["share"] == pytest.approx(0.6)
        assert sum(e["share"] for e in entries.values()) == pytest.approx(1.0)
        assert "stray" not in entries

    def test_tracer_records_parents_and_restores(self):
        class Layer:
            def outer(self):
                return self.inner() + 1

            def inner(self):
                return 1

        tracer = Tracer()
        tracer.wrap(Layer, "outer", "outer", request=lambda a, k: "req-1")
        tracer.wrap(Layer, "inner", "inner")
        with tracer.span("root") as root:
            assert Layer().outer() == 2
        tracer.restore()
        names = [s[0] for s in tracer.spans]
        assert names == ["root", "outer", "inner"]
        assert [s[3] for s in tracer.spans] == [-1, root, 1]
        assert [s[4] for s in tracer.spans] == [None, "req-1", "req-1"]
        assert "outer" not in vars(Layer) or not hasattr(
            Layer.outer, "__perfbench_wrapped__")
        entries = ledger(tracer.spans, root)
        assert sum(e["share"] for e in entries.values()) == pytest.approx(1.0)


class TestPercentiles:
    def test_nearest_rank(self):
        ordered = list(range(1, 101))
        assert percentile(ordered, 0.50) == 50
        assert percentile(ordered, 0.99) == 99
        assert percentile(ordered, 1.0) == 100
        assert percentile([7.0], 0.99) == 7.0

    def test_float_rounding_does_not_shift_the_rank(self):
        # 0.99 * 1000 is 990.0000000000001 in binary floating point.
        assert percentile(list(range(1, 1001)), 0.99) == 990

    def test_p99_needs_ten_samples_beyond_it(self):
        assert beyond(1000, 0.99) == 10
        assert beyond(999, 0.99) == 9
        assert latency_summary([0.001] * 1000)["p99_ms"] == pytest.approx(1.0)
        short = latency_summary([0.001] * 999)
        assert short["p99_ms"] is None
        assert short["n"] == 999

    def test_failed_requests_count_as_misses(self):
        samples = [0.001] * 980 + [math.inf] * 20
        assert latency_summary(samples)["p99_ms"] == math.inf

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile([1.0], 0.0)


class TestBenchmarkFile:
    def test_metrics_match_the_benchmark_file(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
        assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER

    def test_workloads_are_runnable(self):
        from run import WORKLOADS

        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
        assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])
        setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
        assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
