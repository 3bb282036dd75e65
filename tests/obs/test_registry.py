"""Metrics registry: counters, histograms, collectors, percentiles,
thread safety and the exact Prometheus exposition."""

import sys
import threading

import pytest

from repro.obs import MetricsRegistry, percentile_sorted, render_prometheus
from repro.obs.registry import LATENCY_BUCKETS, RESERVOIR


class TestPercentile:
    def test_empty_returns_zero(self):
        assert percentile_sorted([], 50) == 0.0
        assert percentile_sorted([], 99) == 0.0

    def test_single_sample_is_every_percentile(self):
        for p in (0, 37.5, 50, 99, 100):
            assert percentile_sorted([4.2], p) == 4.2

    def test_p0_and_p100_are_min_and_max(self):
        ordered = sorted([5.0, 1.0, 3.0, 2.0, 4.0])
        assert percentile_sorted(ordered, 0) == 1.0
        assert percentile_sorted(ordered, 100) == 5.0

    def test_median_of_a_sorted_copy(self):
        assert percentile_sorted(sorted([3.0, 1.0, 2.0]), 50) == 2.0

    def test_linear_interpolation_between_ranks(self):
        assert percentile_sorted([1.0, 2.0, 3.0, 4.0], 50) == pytest.approx(2.5)
        assert percentile_sorted([10.0, 20.0], 75) == pytest.approx(17.5)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            percentile_sorted([1.0], -1)
        with pytest.raises(ValueError):
            percentile_sorted([1.0], 100.1)

    def test_percentile_sorted_trusts_its_input(self):
        # The contract: callers sort once, then cut many times cheaply.
        ordered = sorted([0.9, 0.1, 0.5])
        assert percentile_sorted(ordered, 50) == 0.5


class TestMetrics:
    def test_counter_monotonic(self):
        registry = MetricsRegistry()
        c = registry.counter("events", "help")
        assert c.value() == 0  # an unlabeled counter reads 0 before its first inc
        c.inc()
        c.inc(3)
        assert c.value() == 4
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_histogram_buckets_and_percentiles(self):
        registry = MetricsRegistry()
        h = registry.histogram("lat")
        for v in (0.05, 0.5, 0.5, 5.0):
            h.observe(v)
        counts, observed = h.snapshot()
        assert sum(counts) == 4
        assert observed == pytest.approx(6.05)
        # A bound is inclusive (``le``); the last slot is +Inf.
        assert {LATENCY_BUCKETS[i]: n for i, n in enumerate(counts) if n} == {
            0.05: 1,
            0.5: 2,
            5.0: 1,
        }
        assert percentile_sorted(sorted(h.samples()), 100) == 5.0

    def test_histogram_reservoir_trims_oldest_half(self):
        registry = MetricsRegistry()
        h = registry.histogram("lat")
        for i in range(RESERVOIR + 1):
            h.observe(float(i))
        # One splice dropped the oldest RESERVOIR//2 observations, but the
        # bucket counts keep the full history.
        assert h.samples() == [float(i) for i in range(RESERVOIR // 2, RESERVOIR + 1)]
        assert sum(h.snapshot()[0]) == RESERVOIR + 1

    def test_labeled_counts_are_distinct(self):
        registry = MetricsRegistry()
        hits = registry.counter("hits", labels=("route",))
        assert hits.series() == []
        hits.inc(2, labels=("a",))
        hits.inc(labels=("b",))
        assert hits.series() == [(("a",), 2), (("b",), 1)]

    def test_label_count_must_match(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("hits", labels=("route",)).inc(labels=("a", "extra"))
        with pytest.raises(ValueError):
            registry.counter("plain").inc(labels=("a",))

    def test_labeled_counter_rejects_bare_recording(self):
        registry = MetricsRegistry()
        hits = registry.counter("hits", labels=("route",))
        with pytest.raises(ValueError):
            hits.inc()
        assert hits.series() == []

    def test_a_name_registers_once(self):
        registry = MetricsRegistry()
        first = registry.counter("x", "help")
        with pytest.raises(ValueError, match="already registered"):
            registry.counter("x", "help")
        with pytest.raises(ValueError, match="already registered"):
            registry.histogram("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.counter("x", labels=("kind",))
        # A refused registration leaves the first metric in place.
        assert registry.metrics == {"x": first}

    def test_latency_buckets_sorted(self):
        assert list(LATENCY_BUCKETS) == sorted(LATENCY_BUCKETS)


class TestConcurrency:
    def test_concurrent_recording_is_exact(self):
        """N threads x M observations: totals must be exact, not approximate."""
        registry = MetricsRegistry()
        counter = registry.counter("ops", labels=("worker",))
        hist = registry.histogram("lat")
        threads_n, each = 8, 5000
        barrier = threading.Barrier(threads_n)

        def work(worker):
            labels = (f"w{worker % 2}",)  # contend on two label tuples
            barrier.wait()
            for _ in range(each):
                counter.inc(labels=labels)
                hist.observe(0.25)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(threads_n)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads inside every read-modify-write
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)

        half = threads_n * each // 2
        assert counter.series() == [(("w0",), half), (("w1",), half)]
        assert sum(hist.snapshot()[0]) == threads_n * each


#: Every line kind the exposition writes, in order: a labeled counter with
#: escaped values, collector gauges (nested, bool; the string and None
#: leaves left out), an unlabeled counter at 0 and a histogram.
EXPECTED_EXPOSITION = r"""# HELP pneuma_edges Breaker edges.
# TYPE pneuma_edges counter
pneuma_edges_total{dependency="back\\slash",to_state="open"} 1
pneuma_edges_total{dependency="say \"hi\"\n",to_state="open"} 2
# TYPE pneuma_gate_frozen gauge
pneuma_gate_frozen 1
# TYPE pneuma_gate_inner_hits gauge
pneuma_gate_inner_hits 2
# TYPE pneuma_gate_inner_ratio gauge
pneuma_gate_inner_ratio 0.5
# TYPE pneuma_gate_warm gauge
pneuma_gate_warm 0
# HELP pneuma_idle Never incremented.
# TYPE pneuma_idle counter
pneuma_idle_total 0
# HELP pneuma_lat Latency.
# TYPE pneuma_lat histogram
pneuma_lat_bucket{le="0.001"} 0
pneuma_lat_bucket{le="0.0025"} 0
pneuma_lat_bucket{le="0.005"} 0
pneuma_lat_bucket{le="0.01"} 0
pneuma_lat_bucket{le="0.025"} 0
pneuma_lat_bucket{le="0.05"} 0
pneuma_lat_bucket{le="0.1"} 0
pneuma_lat_bucket{le="0.25"} 1
pneuma_lat_bucket{le="0.5"} 2
pneuma_lat_bucket{le="1"} 2
pneuma_lat_bucket{le="2.5"} 2
pneuma_lat_bucket{le="5"} 2
pneuma_lat_bucket{le="10"} 2
pneuma_lat_bucket{le="+Inf"} 3
pneuma_lat_sum 12.75
pneuma_lat_count 3
"""


class TestExposition:
    def test_exposition_bytes(self):
        registry = MetricsRegistry()
        registry.counter("pneuma_idle", "Never incremented.")
        edges = registry.counter(
            "pneuma_edges", "Breaker edges.", labels=("dependency", "to_state")
        )
        edges.inc(2, labels=('say "hi"\n', "open"))
        edges.inc(labels=("back\\slash", "open"))
        latency = registry.histogram("pneuma_lat", "Latency.")
        for v in (0.5, 0.25, 12.0):
            latency.observe(v)
        report = {
            "frozen": True,
            "warm": False,
            "state": "open",
            "deadline": None,
            "inner": {"hits": 2, "ratio": 0.5, "label": "x"},
        }
        registry.add_collector("gate", lambda: report)
        assert render_prometheus(registry) == EXPECTED_EXPOSITION

    def test_prometheus_text(self):
        registry = MetricsRegistry()
        registry.counter("jobs", "jobs processed").inc(2)
        registry.add_collector("depth", lambda: 3)
        registry.counter("moves", labels=("from", "to")).inc(labels=("a", "b"))
        registry.histogram("lat").observe(0.5)
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
        registry.counter("c", labels=("msg",)).inc(labels=('say "hi"\n',))
        text = render_prometheus(registry)
        assert 'msg="say \\"hi\\"\\n"' in text


class TestCollectors:
    def test_reports_flatten_into_prefixed_gauges(self):
        registry = MetricsRegistry()
        registry.add_collector("depth", lambda: 3)
        registry.add_collector("cache", lambda: {"hits": 2, "inner": {"misses": 0.5}})
        assert registry.collected() == {"depth": 3, "cache": {"hits": 2, "inner": {"misses": 0.5}}}
        assert render_prometheus(registry) == (
            "# TYPE pneuma_cache_hits gauge\npneuma_cache_hits 2\n"
            "# TYPE pneuma_cache_inner_misses gauge\npneuma_cache_inner_misses 0.5\n"
            "# TYPE pneuma_depth gauge\npneuma_depth 3\n"
        )

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

    def test_exposition_is_sorted_across_metrics_and_collectors(self):
        registry = MetricsRegistry()
        registry.counter("pneuma_zeta").inc()
        registry.add_collector("alpha", lambda: 1)
        types = [line for line in render_prometheus(registry).splitlines() if "TYPE" in line]
        assert types == ["# TYPE pneuma_alpha gauge", "# TYPE pneuma_zeta counter"]

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
        with pytest.raises(ValueError, match="already registered"):
            registry.histogram("pneuma_turns_failed")
        registry.counter("caches")  # no prefix, no clash: the collector is pneuma_caches
