"""The dimensional telemetry layer: histograms, labels, exposition.

Covers the thread-safety contract (exact count/sum conservation under
a 16-thread hammer), the label-cardinality guards, the Prometheus text
exposition invariants (bucket monotonicity, ``+Inf`` equals ``_count``,
gauges rendered from a plain mapping) and the slow-query log's bounded
rotation.
"""

from __future__ import annotations

import threading

import pytest

from repro.obs import reset_all
from repro.obs.slowlog import SlowQueryLog, load_slow_log
from repro.obs.telemetry import (
    DEFAULT_BUCKETS,
    MAX_SERIES_PER_NAME,
    Histogram,
    TelemetryRegistry,
    get_telemetry,
    quantile,
    render_prometheus,
    reset_telemetry,
)


@pytest.fixture(autouse=True)
def _clean_slate():
    reset_all()
    yield
    reset_all()


class TestQuantile:
    def test_empty_is_zero(self):
        assert quantile([], 0.5) == 0.0

    def test_nearest_rank(self):
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert quantile(values, 0.0) == 1.0
        assert quantile(values, 0.5) == 3.0
        assert quantile(values, 1.0) == 5.0


class TestHistogram:
    def test_count_and_sum_are_exact(self):
        histogram = Histogram("h")
        for value in (0.001, 0.002, 0.5):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.sum == pytest.approx(0.503)

    def test_time_context_manager_observes_once(self):
        histogram = Histogram("h")
        with histogram.time():
            pass
        assert histogram.count == 1
        assert histogram.sum >= 0.0

    def test_bad_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", buckets=())
        with pytest.raises(ValueError):
            Histogram("h", buckets=(0.0, 1.0))

    def test_reset_keeps_identity(self):
        histogram = Histogram("h")
        histogram.observe(1.0)
        histogram.reset()
        assert histogram.count == 0
        assert histogram.sum == 0.0
        assert histogram.cumulative()[-1] == 0

    def test_threaded_hammer_conserves_count_and_sum(self):
        """16 threads x 1000 observations: nothing lost, nothing doubled."""
        histogram = Histogram("h")
        threads, per_thread = 16, 1000

        def hammer(seed: int) -> None:
            for i in range(per_thread):
                histogram.observe((seed + i) % 7 * 0.001 + 0.0001)

        workers = [
            threading.Thread(target=hammer, args=(t,))
            for t in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert histogram.count == threads * per_thread
        expected = sum(
            (t + i) % 7 * 0.001 + 0.0001
            for t in range(threads)
            for i in range(per_thread)
        )
        assert histogram.sum == pytest.approx(expected)
        # Bucket counts and the exact count agree.
        assert histogram.cumulative()[-1] == histogram.count


class TestRegistry:
    def test_create_on_first_use_and_identity(self):
        registry = TelemetryRegistry()
        assert registry.histogram("h") is registry.histogram("h")
        assert registry.histogram("g") is registry.histogram("g")
        assert len(registry) == 2

    def test_labeled_series_are_distinct(self):
        registry = TelemetryRegistry()
        plain = registry.histogram("h")
        labeled = registry.histogram("h", {"tenant": "acme"})
        assert plain is not labeled
        assert labeled.labels == (("tenant", "acme"),)

    def test_disallowed_label_rejected(self):
        registry = TelemetryRegistry()
        with pytest.raises(ValueError, match="disallowed"):
            registry.histogram("h", {"user_id": "123"})

    def test_family_cap_folds_into_unlabeled_aggregate(self):
        registry = TelemetryRegistry()
        aggregate = registry.histogram("h")
        for i in range(MAX_SERIES_PER_NAME + 10):
            registry.histogram("h", {"tenant": f"t{i}"}).observe(0.001)
        # Existing labeled series keep working; overflow went to the
        # unlabeled aggregate instead of minting new series.
        total = sum(s.count for s in registry.histograms())
        assert total == MAX_SERIES_PER_NAME + 10
        assert aggregate.count > 0
        families = [s for s in registry.histograms() if s.name == "h"]
        assert len(families) <= MAX_SERIES_PER_NAME

    def test_reset_zeroes_in_place(self):
        registry = TelemetryRegistry()
        histogram = registry.histogram("h")
        histogram.observe(1.0)
        labeled = registry.histogram("h", {"tenant": "acme"})
        labeled.observe(4.0)
        registry.reset()
        assert histogram.count == 0
        assert labeled.count == 0 and labeled.sum == 0.0
        assert len(registry) == 2  # identities survive
        assert registry.histogram("h", {"tenant": "acme"}) is labeled


class TestProcessWideHelpers:
    def test_reset_all_clears_telemetry(self):
        get_telemetry().histogram("h").observe(1.0)
        get_telemetry().histogram("g", {"tenant": "acme"}).observe(2.0)
        reset_all()
        assert get_telemetry().histogram("h").count == 0
        assert get_telemetry().histogram("g", {"tenant": "acme"}).count == 0

    def test_reset_telemetry_alone(self):
        get_telemetry().histogram("h").observe(1.0)
        reset_telemetry()
        assert get_telemetry().histogram("h").count == 0

class TestRenderPrometheus:
    def test_counters_get_total_suffix_and_type(self):
        text = render_prometheus(
            {"lp.solves": 3}, TelemetryRegistry()
        )
        assert "# TYPE repro_lp_solves_total counter" in text
        assert "repro_lp_solves_total 3" in text

    def test_histogram_bucket_monotonicity_and_inf(self):
        registry = TelemetryRegistry()
        histogram = registry.histogram("server.request_seconds")
        for value in (0.0001, 0.004, 0.03, 99999.0):
            histogram.observe(value)
        text = render_prometheus({}, registry)
        bucket_values = []
        inf_value = count_value = None
        for line in text.splitlines():
            if line.startswith("repro_server_request_seconds_bucket"):
                value = int(line.rsplit(" ", 1)[1])
                if 'le="+Inf"' in line:
                    inf_value = value
                else:
                    bucket_values.append(value)
            elif line.startswith("repro_server_request_seconds_count"):
                count_value = int(line.rsplit(" ", 1)[1])
        assert bucket_values == sorted(bucket_values), "cumulative"
        assert len(bucket_values) == len(DEFAULT_BUCKETS)
        assert inf_value == count_value == 4

    def test_labeled_series_render_with_labels(self):
        registry = TelemetryRegistry()
        registry.histogram(
            "server.request_seconds",
            {"tenant": "acme", "endpoint": "/v1/query"},
        ).observe(0.01)
        text = render_prometheus(
            {}, registry, {"server.inflight_requests": 2}
        )
        assert 'endpoint="/v1/query"' in text
        assert 'tenant="acme"' in text
        assert "# TYPE repro_server_inflight_requests gauge" in text
        assert "\nrepro_server_inflight_requests 2\n" in text

    def test_label_values_are_escaped(self):
        registry = TelemetryRegistry()
        registry.histogram("h", {"tenant": 'a"b\\c\nd'}).observe(1.0)
        text = render_prometheus({}, registry)
        assert 'repro_h_count{tenant="a\\"b\\\\c\\nd"} 1' in text
        assert 'repro_h_bucket{tenant="a\\"b\\\\c\\nd",le="+Inf"} 1' \
            in text

    def test_output_is_diff_stable(self):
        registry = TelemetryRegistry()
        registry.histogram("b").observe(0.1)
        registry.histogram("a", {"tenant": "acme"}).observe(0.2)
        gauges = {"y": 1, "x": 0.5}
        text = render_prometheus({"z": 1}, registry, gauges)
        assert text == render_prometheus({"z": 1}, registry, dict(gauges))
        assert text.index("repro_x 0.5") < text.index("repro_y 1")


class TestSlowQueryLog:
    def test_record_and_load_round_trip(self, tmp_path):
        log = SlowQueryLog(tmp_path / "slow.jsonl")
        log.record({"request_id": "req-1", "wall_ms": 300.0})
        log.record({"request_id": "req-2", "wall_ms": 400.0})
        records = load_slow_log(tmp_path / "slow.jsonl")
        assert [r["request_id"] for r in records] == ["req-1", "req-2"]

    def test_limit_keeps_newest(self, tmp_path):
        log = SlowQueryLog(tmp_path / "slow.jsonl")
        for i in range(5):
            log.record({"request_id": f"req-{i}"})
        records = load_slow_log(tmp_path / "slow.jsonl", limit=2)
        assert [r["request_id"] for r in records] == ["req-3", "req-4"]

    def test_rotation_bounds_the_file(self, tmp_path):
        log = SlowQueryLog(tmp_path / "slow.jsonl", max_records=10)
        for i in range(25):
            log.record({"request_id": f"req-{i}"})
        records = load_slow_log(tmp_path / "slow.jsonl")
        assert len(records) <= 10
        # The newest record always survives rotation.
        assert records[-1]["request_id"] == "req-24"

    def test_unparseable_lines_are_skipped(self, tmp_path):
        path = tmp_path / "slow.jsonl"
        log = SlowQueryLog(path)
        log.record({"request_id": "req-1"})
        with open(path, "a") as handle:
            handle.write("{truncated garba\n")
        log.record({"request_id": "req-2"})
        records = load_slow_log(path)
        assert [r["request_id"] for r in records] == ["req-1", "req-2"]

    def test_missing_file_is_empty(self, tmp_path):
        assert load_slow_log(tmp_path / "absent.jsonl") == []


class TestPlanCostTotals:
    def test_sums_self_costs_over_the_tree(self):
        from repro.explain import plan_cost_totals

        plan = {
            "op": "root",
            "cost": {
                "self_wall_ms": 1.5,
                "self_counters": {"lp.solves": 2},
            },
            "children": [
                {
                    "op": "leaf",
                    "cost": {
                        "self_wall_ms": 0.5,
                        "self_counters": {"lp.solves": 3,
                                          "store.hits": 1},
                    },
                    "children": [],
                },
                {"op": "bare", "children": []},  # nodes without cost
            ],
        }
        totals = plan_cost_totals(plan)
        assert totals["self_wall_ms"] == pytest.approx(2.0)
        assert totals["self_counters"] == {"lp.solves": 5, "store.hits": 1}
