"""Tests for counters, gauges, time series, and the metric registry."""

import pytest

from repro.obs.metrics import Counter, Gauge, MetricRegistry, TimeSeries, render_labels


class TestCounter:
    def test_starts_at_zero(self):
        assert Counter("c").value == 0.0

    def test_increment_default_and_amount(self):
        counter = Counter("c")
        counter.increment()
        counter.increment(2.5)
        assert counter.value == 3.5

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter("c").increment(-1)

    def test_reset(self):
        counter = Counter("c")
        counter.increment(5)
        counter.reset()
        assert counter.value == 0.0


class TestGauge:
    def test_set_and_add(self):
        gauge = Gauge("g")
        gauge.set(10)
        gauge.add(-3)
        assert gauge.value == 7


class TestTimeSeries:
    def test_record_and_len(self):
        series = TimeSeries("s")
        series.record(1.0, 10.0)
        series.record(2.0, 20.0)
        assert len(series) == 2

    def test_out_of_order_rejected(self):
        series = TimeSeries("s")
        series.record(5.0, 1.0)
        with pytest.raises(ValueError):
            series.record(4.0, 1.0)

    def test_window_half_open(self):
        series = TimeSeries("s")
        for t in range(5):
            series.record(float(t), float(t) * 10)
        window = series.window(1.0, 3.0)
        assert [t for t, _ in window] == [1.0, 2.0]

    def test_sum_and_count_in_window(self):
        series = TimeSeries("s")
        for t in range(4):
            series.record(float(t), 2.0)
        assert series.sum_in_window(0.0, 4.0) == 8.0
        assert series.count_in_window(1.0, 3.0) == 2

    def test_bucket_sum(self):
        series = TimeSeries("s")
        series.record(0.5, 1.0)
        series.record(1.5, 2.0)
        series.record(2.5, 3.0)
        buckets = series.bucket(1.0, end_time=3.0, aggregate="sum")
        assert buckets == [1.0, 2.0, 3.0]

    def test_bucket_count(self):
        series = TimeSeries("s")
        series.record(0.1, 5.0)
        series.record(0.2, 5.0)
        series.record(1.7, 5.0)
        buckets = series.bucket(1.0, end_time=2.0, aggregate="count")
        assert buckets == [2.0, 1.0]

    def test_bucket_invalid_aggregate(self):
        series = TimeSeries("s")
        series.record(0.0, 1.0)
        with pytest.raises(ValueError):
            series.bucket(1.0, aggregate="median")

    def test_bucket_invalid_width(self):
        with pytest.raises(ValueError):
            TimeSeries("s").bucket(0.0)

    def test_summary(self):
        series = TimeSeries("s")
        series.record(0.0, 1.0)
        series.record(1.0, 3.0)
        assert series.summary()["mean"] == 2.0


class TestMetricRegistry:
    def test_counter_get_or_create(self):
        registry = MetricRegistry()
        registry.counter("hits").increment()
        registry.counter("hits").increment()
        assert registry.counters()["hits"] == 2.0

    def test_gauge_and_series(self):
        registry = MetricRegistry()
        registry.gauge("mem").set(5)
        registry.series("events").record(1.0, 1.0)
        assert registry.gauges()["mem"] == 5
        assert registry.series_names() == ["events"]
        assert registry.has_series("events")
        assert not registry.has_series("other")

    def test_snapshot(self):
        registry = MetricRegistry()
        registry.counter("a").increment()
        registry.series("s").record(0.0, 1.0)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"a": 1.0}
        assert snapshot["series"] == {"s": 1}


class TestNonFiniteRejection:
    """NaN/inf must be rejected at every record point, not propagated."""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_counter_increment_rejects_non_finite(self, bad):
        counter = Counter("c")
        with pytest.raises(ValueError):
            counter.increment(bad)
        assert counter.value == 0.0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_gauge_set_and_add_reject_non_finite(self, bad):
        gauge = Gauge("g")
        gauge.set(3.0)
        with pytest.raises(ValueError):
            gauge.set(bad)
        with pytest.raises(ValueError):
            gauge.add(bad)
        assert gauge.value == 3.0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_series_record_rejects_non_finite_values_and_times(self, bad):
        series = TimeSeries("s")
        with pytest.raises(ValueError):
            series.record(0.0, bad)
        with pytest.raises(ValueError):
            series.record(bad, 1.0)
        assert len(series) == 0


    def test_rejections_keep_their_messages(self):
        for bad, text in (
            (float("nan"), "counter 'c' increment must be finite, got nan"),
            (float("inf"), "counter 'c' increment must be finite, got inf"),
            (float("-inf"), "counter 'c' increment must be finite, got -inf"),
            (-1, "counter 'c' cannot be incremented by -1.0"),
        ):
            with pytest.raises(ValueError) as raised:
                Counter("c").increment(bad)
            assert str(raised.value) == text
        with pytest.raises(ValueError, match="gauge 'g' value must be finite, got nan"):
            Gauge("g").set(float("nan"))
        with pytest.raises(ValueError, match="time series 's' value must be finite, got inf"):
            TimeSeries("s").record(0.0, float("inf"))

    def test_counter_accepts_ints_and_stays_a_float(self):
        counter = Counter("c")
        counter.increment(2)
        counter.increment(True)
        assert counter.value == 3.0 and type(counter.value) is float


class TestInstrumentsAreCreatedOnFirstUse:
    def test_lookup_creates_once_and_the_bare_name_is_the_key(self):
        registry = MetricRegistry()
        assert registry.snapshot() == {"counters": {}, "gauges": {}, "series": {}}
        counter = registry.counter("hits")
        assert registry.counter("hits") is counter
        assert registry.counter("hits", {}) is counter  # no labels: same instrument
        assert registry.counter("hits", {"tenant": "a"}) is not counter
        assert registry.gauge("hits") is registry.gauge("hits", None)
        assert registry.series("hits") is registry.series("hits")
        assert counter.labels is None
        assert list(registry.counters()) == ["hits", 'hits{tenant="a"}']
        assert list(registry.gauges()) == ["hits"] and registry.series_names() == ["hits"]


class TestWindowBoundaries:
    """Half-open [start, end) windows probed at exact sample timestamps."""

    def _series(self):
        series = TimeSeries("s")
        for t in range(5):
            series.record(float(t), float(t) * 10)
        return series

    def test_start_boundary_is_inclusive(self):
        window = self._series().window(2.0, 10.0)
        assert [t for t, _ in window] == [2.0, 3.0, 4.0]

    def test_end_boundary_is_exclusive(self):
        window = self._series().window(0.0, 2.0)
        assert [t for t, _ in window] == [0.0, 1.0]

    def test_empty_window_at_exact_timestamp(self):
        assert self._series().window(2.0, 2.0) == []

    def test_sum_and_count_at_exact_boundaries(self):
        series = self._series()
        assert series.count_in_window(1.0, 4.0) == 3
        assert series.sum_in_window(1.0, 4.0) == 10.0 + 20.0 + 30.0

    def test_duplicate_timestamps_all_within_boundary(self):
        series = TimeSeries("s")
        series.record(1.0, 1.0)
        series.record(1.0, 2.0)
        series.record(1.0, 3.0)
        assert series.count_in_window(1.0, 1.0 + 1e-9) == 3
        assert series.count_in_window(0.0, 1.0) == 0


class TestLabelledMetrics:
    """Labels partition instruments; the registry keys on name + labels."""

    def test_labelled_counter_is_distinct_from_unlabelled(self):
        registry = MetricRegistry()
        registry.counter("hits").increment()
        registry.counter("hits", labels={"tenant": "a"}).increment(2)
        registry.counter("hits", labels={"tenant": "b"}).increment(3)
        counters = registry.counters()
        assert counters["hits"] == 1.0
        assert counters['hits{tenant="a"}'] == 2.0
        assert counters['hits{tenant="b"}'] == 3.0

    def test_label_order_does_not_matter(self):
        registry = MetricRegistry()
        registry.counter("c", labels={"x": "1", "y": "2"}).increment()
        registry.counter("c", labels={"y": "2", "x": "1"}).increment()
        assert registry.counters()['c{x="1",y="2"}'] == 2.0

    def test_render_labels_is_canonical(self):
        assert render_labels(None) == ""
        assert render_labels({}) == ""
        assert render_labels({"y": 2, "x": "1"}) == '{x="1",y="2"}'
        assert render_labels({"x": "1", "y": 2}) == render_labels({"y": 2, "x": "1"})

    def test_labelled_gauge_and_series(self):
        registry = MetricRegistry()
        registry.gauge("mem", labels={"node": "n1"}).set(5)
        registry.series("lat", labels={"op": "get"}).record(0.0, 1.0)
        assert registry.gauges()['mem{node="n1"}'] == 5
        assert registry.has_series('lat{op="get"}')

    def test_prometheus_exposition(self):
        registry = MetricRegistry()
        registry.counter("requests", labels={"tenant": "a"}).increment(4)
        registry.gauge("pool.size").set(7)
        registry.series("lat").record(0.0, 2.0)
        text = registry.to_prometheus()
        assert '# TYPE requests counter' in text
        assert 'requests{tenant="a"} 4.0' in text
        # Dots are not legal in Prometheus metric names; they are sanitized.
        assert "# TYPE pool_size gauge" in text
        assert "pool_size 7" in text
        assert "lat_count 1" in text
        assert "lat_sum 2.0" in text
        assert text.endswith("\n")
