"""Unit tests for the metrics registry and histogram."""

from repro.obs.metrics import DEFAULT_BOUNDS, Histogram, MetricsRegistry


class TestHistogram:
    def test_observe_buckets_and_stats(self):
        histogram = Histogram(bounds=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            histogram.observe(value)
        assert histogram.buckets == [1, 1, 1]
        assert histogram.count == 3
        assert histogram.min == 0.5 and histogram.max == 50.0
        assert abs(histogram.mean - 55.5 / 3) < 1e-9

    def test_merge_dict_adds(self):
        a = Histogram(bounds=(1.0,))
        b = Histogram(bounds=(1.0,))
        a.observe(0.5)
        b.observe(2.0)
        assert a.merge_dict(b.as_dict())
        assert a.count == 2
        assert a.buckets == [1, 1]
        assert a.max == 2.0

    def test_merge_dict_rejects_mismatched_bounds(self):
        a = Histogram(bounds=(1.0,))
        b = Histogram(bounds=(2.0,))
        assert not a.merge_dict(b.as_dict())
        assert a.count == 0

    def test_percentile_empty_is_none(self):
        assert Histogram().percentile(0.5) is None

    def test_percentile_degenerate_distribution_is_exact(self):
        histogram = Histogram()
        for _ in range(9):
            histogram.observe(0.007)
        for q in (0.0, 0.25, 0.5, 0.99, 1.0):
            assert histogram.percentile(q) == 0.007

    def test_percentile_edges_clamp_to_observed_range(self):
        histogram = Histogram(bounds=(1.0, 10.0, 100.0))
        for value in (2.0, 3.0, 20.0, 30.0):
            histogram.observe(value)
        assert histogram.percentile(-1.0) == 2.0
        assert histogram.percentile(0.0) == 2.0
        assert histogram.percentile(1.0) == 30.0
        assert histogram.percentile(2.0) == 30.0
        for q in (0.1, 0.25, 0.5, 0.75, 0.9):
            assert 2.0 <= histogram.percentile(q) <= 30.0

    def test_percentile_monotonic_in_q(self):
        histogram = Histogram()
        for value in (0.0007, 0.003, 0.02, 0.3, 2.0, 8.0):
            histogram.observe(value)
        values = [histogram.percentile(i / 10.0) for i in range(11)]
        assert values == sorted(values)

    def test_percentile_interpolates_inside_the_right_bucket(self):
        # Four observations below the first bound, one between the bounds:
        # the median must land in the first bucket (clamped to the observed
        # min), the p90 in the second (clamped to the observed max).
        histogram = Histogram(bounds=(1.0, 10.0))
        for value in (0.2, 0.4, 0.6, 0.8, 5.0):
            histogram.observe(value)
        median = histogram.percentile(0.5)
        assert 0.2 <= median <= 1.0
        p90 = histogram.percentile(0.9)
        assert 1.0 <= p90 <= 5.0

    def test_percentile_survives_as_dict_merge(self):
        # The warm-start path: a persisted histogram is merged into a fresh
        # one, whose median then seeds the fence EWMA.
        recorded = Histogram()
        for value in (0.001, 0.004, 0.004, 0.004, 0.2):
            recorded.observe(value)
        fresh = Histogram()
        assert fresh.merge_dict(recorded.as_dict())
        assert fresh.percentile(0.5) == recorded.percentile(0.5)


class TestMetricsRegistry:
    def test_counters_add_gauges_overwrite(self):
        registry = MetricsRegistry()
        registry.inc("c")
        registry.inc("c", 4)
        registry.gauge("g", 1.0)
        registry.gauge("g", 2.0)
        snapshot = registry.collect()
        assert snapshot["counters"]["c"] == 5
        assert snapshot["gauges"]["g"] == 2.0

    def test_register_snapshots_scalars_only(self):
        class Source:
            def as_dict(self):
                return {"n": 3, "flag": True, "nested": {"x": 1}, "name": "s"}

        registry = MetricsRegistry()
        registry.register("src", Source())
        gauges = registry.collect()["gauges"]
        assert gauges == {"src.n": 3}

    def test_register_same_object_same_prefix_is_noop(self):
        class Source:
            def as_dict(self):
                return {"n": 1}

        source = Source()
        registry = MetricsRegistry()
        registry.register("src", source)
        registry.register("src", source)
        assert len(registry._sources) == 1

    def test_default_bounds_are_sorted(self):
        assert list(DEFAULT_BOUNDS) == sorted(DEFAULT_BOUNDS)
