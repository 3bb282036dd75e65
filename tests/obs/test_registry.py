"""Metrics registry: typed families, labels, percentiles, thread safety."""

import threading

import pytest

from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    percentile,
    percentile_sorted,
    render_prometheus,
)


class TestPercentile:
    def test_empty_returns_zero(self):
        assert percentile([], 50) == 0.0
        assert percentile_sorted([], 99) == 0.0

    def test_single_sample_is_every_percentile(self):
        for p in (0, 37.5, 50, 99, 100):
            assert percentile([4.2], p) == 4.2

    def test_p0_and_p100_are_min_and_max(self):
        samples = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert percentile(samples, 0) == 1.0
        assert percentile(samples, 100) == 5.0

    def test_unsorted_input_sorted_internally(self):
        assert percentile([3.0, 1.0, 2.0], 50) == 2.0

    def test_linear_interpolation_between_ranks(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == pytest.approx(2.5)
        assert percentile([10.0, 20.0], 75) == pytest.approx(17.5)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], -1)
        with pytest.raises(ValueError):
            percentile([1.0], 100.1)

    def test_percentile_sorted_trusts_its_input(self):
        # The contract: callers sort once, then cut many times cheaply.
        ordered = sorted([0.9, 0.1, 0.5])
        assert percentile_sorted(ordered, 50) == 0.5


class TestFamilies:
    def test_counter_monotonic(self):
        registry = MetricsRegistry()
        c = registry.counter("events", "help")
        c.inc()
        c.inc(3)
        assert c.value == 4
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_histogram_buckets_and_percentiles(self):
        registry = MetricsRegistry()
        h = registry.histogram("lat", buckets=(0.1, 1.0), max_samples=100)
        for v in (0.05, 0.5, 0.5, 5.0):
            h.observe(v)
        default = h._default()
        assert default.count == 4
        assert default.sum == pytest.approx(6.05)
        snap = default.snapshot()
        assert snap["buckets"] == [(0.1, 1), (1.0, 3)]  # cumulative
        assert default.percentile(100) == 5.0

    def test_histogram_reservoir_trims_oldest_half(self):
        registry = MetricsRegistry()
        h = registry.histogram("lat", buckets=(1.0,), max_samples=10)
        for i in range(11):
            h.observe(float(i))
        samples = h._default().samples()
        # One splice dropped the oldest max_samples//2 observations, but
        # count/sum keep the full history.
        assert samples == [float(i) for i in range(5, 11)]
        assert h._default().count == 11

    def test_registration_idempotent_but_typed(self):
        registry = MetricsRegistry()
        first = registry.counter("x", "help")
        assert registry.counter("x") is first
        with pytest.raises(ValueError):
            registry.histogram("x")
        with pytest.raises(ValueError):
            registry.counter("x", labels=("kind",))

    def test_labeled_children_are_distinct_and_cached(self):
        registry = MetricsRegistry()
        family = registry.counter("hits", labels=("route",))
        a = family.labels("a")
        a.inc(2)
        family.labels("b").inc()
        assert family.labels("a") is a
        assert {k: child.value for (k,), child in family.items()} == {"a": 2, "b": 1}

    def test_labeled_family_rejects_bare_recording(self):
        registry = MetricsRegistry()
        family = registry.counter("hits", labels=("route",))
        with pytest.raises(ValueError):
            family.inc()
        with pytest.raises(ValueError):
            family.labels("a", "extra")

    def test_default_latency_buckets_sorted(self):
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)


class TestConcurrency:
    def test_concurrent_recording_is_exact(self):
        """N threads x M observations: totals must be exact, not approximate."""
        registry = MetricsRegistry()
        counter = registry.counter("ops", labels=("worker",))
        hist = registry.histogram("lat", buckets=(0.5,), max_samples=0)
        threads_n, each = 8, 500
        barrier = threading.Barrier(threads_n)

        def work(worker):
            child = counter.labels(f"w{worker % 2}")  # contend on two children
            barrier.wait()
            for _ in range(each):
                child.inc()
                hist.observe(0.25)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        total = sum(child.value for _, child in counter.items())
        assert total == threads_n * each
        assert hist._default().count == threads_n * each

    def test_concurrent_registration_yields_one_family(self):
        registry = MetricsRegistry()
        found = []
        barrier = threading.Barrier(8)

        def register():
            barrier.wait()
            found.append(registry.counter("shared"))

        threads = [threading.Thread(target=register) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(f is found[0] for f in found)
        found[0].inc()
        assert registry.get("shared").value == 1


class TestExposition:
    def test_prometheus_text(self):
        registry = MetricsRegistry()
        registry.counter("jobs", "jobs processed").inc(2)
        registry.add_collector("depth", lambda: 3)
        registry.counter("moves", labels=("from", "to")).labels("a", "b").inc()
        registry.histogram("lat", buckets=(0.1, 1.0)).observe(0.5)
        text = render_prometheus(registry)
        assert "# HELP jobs jobs processed" in text
        assert "# TYPE jobs counter" in text
        assert "jobs_total 2" in text
        assert "# TYPE pneuma_depth gauge" in text
        assert "pneuma_depth 3" in text  # gauges get no _total suffix
        assert 'moves_total{from="a",to="b"} 1' in text
        assert 'lat_bucket{le="0.1"} 0' in text
        assert 'lat_bucket{le="1"} 1' in text
        assert 'lat_bucket{le="+Inf"} 1' in text
        assert "lat_count 1" in text

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c", labels=("msg",)).labels('say "hi"\n').inc()
        text = render_prometheus(registry)
        assert 'msg="say \\"hi\\"\\n"' in text



class TestCollectors:
    def test_reports_flatten_into_prefixed_gauges(self):
        registry = MetricsRegistry()
        registry.add_collector("depth", lambda: 3)
        registry.add_collector("cache", lambda: {"hits": 2, "inner": {"misses": 0.5}})
        assert registry.collected() == {"depth": 3, "cache": {"hits": 2, "inner": {"misses": 0.5}}}
        gauges = {f["name"]: f for f in registry.collect()}
        assert sorted(gauges) == ["pneuma_cache_hits", "pneuma_cache_inner_misses", "pneuma_depth"]
        assert all(f["kind"] == "gauge" for f in gauges.values())
        assert gauges["pneuma_cache_inner_misses"]["series"] == [{"labels": [], "value": 0.5}]
        assert "pneuma_cache_hits 2\n" in render_prometheus(registry)

    def test_collectors_are_read_at_render_time(self):
        registry = MetricsRegistry()
        box = {"n": 1}
        registry.add_collector("box", lambda: dict(box))
        assert "pneuma_box_n 1\n" in render_prometheus(registry)
        box["n"] = 7
        assert "pneuma_box_n 7\n" in render_prometheus(registry)

    def test_bools_are_zero_one_and_non_numeric_leaves_stay_in_the_dict(self):
        registry = MetricsRegistry()
        report = {"frozen": True, "warm": False, "state": "open", "deadline": None, "files": ["a"]}
        registry.add_collector("gate", lambda: report)
        assert registry.collected()["gate"] is report
        text = render_prometheus(registry)
        assert "pneuma_gate_frozen 1\n" in text and "pneuma_gate_warm 0\n" in text
        for key in ("state", "deadline", "files"):
            assert f"pneuma_gate_{key}" not in text

    def test_exposition_is_sorted_across_families_and_collectors(self):
        registry = MetricsRegistry()
        registry.counter("pneuma_zeta").inc()
        registry.add_collector("alpha", lambda: 1)
        assert [f["name"] for f in registry.collect()] == ["pneuma_alpha", "pneuma_zeta"]

    def test_name_collisions_raise_in_both_directions(self):
        registry = MetricsRegistry()
        registry.counter("pneuma_turns_failed")
        registry.add_collector("caches", lambda: {})
        with pytest.raises(ValueError, match="already registered"):
            registry.add_collector("caches", lambda: {})
        with pytest.raises(ValueError, match="already registered"):
            registry.add_collector("turns_failed", lambda: 0)
        with pytest.raises(ValueError, match="already registered"):
            registry.counter("pneuma_caches")
        registry.counter("caches")  # no prefix, no clash: the collector is pneuma_caches
