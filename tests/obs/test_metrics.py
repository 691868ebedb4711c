"""Unit tests for the metrics registry (counters, histograms)."""

from __future__ import annotations

import pytest

from repro.obs import Histogram, MetricsError, MetricsRegistry


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = MetricsRegistry().counter("ops")
        assert counter.value == 0
        counter.inc()
        counter.inc(3)
        assert counter.value == 4

    def test_rejects_negative_increment(self):
        counter = MetricsRegistry().counter("ops")
        with pytest.raises(MetricsError):
            counter.inc(-1)


class TestHistogram:
    def test_summary_of_known_values(self):
        histogram = Histogram("latency")
        for value in (1.0, 2.0, 3.0, 4.0):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == 4
        assert summary["mean"] == pytest.approx(2.5)
        assert summary["min"] == 1.0
        assert summary["max"] == 4.0

    def test_percentiles_are_monotone_and_bounded(self):
        histogram = Histogram("latency")
        for value in range(1, 201):
            histogram.observe(float(value))
        p50, p99 = histogram.p50, histogram.p99
        assert histogram.min <= p50 <= p99 <= histogram.max
        # The interpolated median of 1..200 lands near 100.
        assert p50 == pytest.approx(100.0, rel=0.35)

    def test_overflow_bucket_reports_observed_max(self):
        histogram = Histogram("latency")
        histogram.observe(1e9)  # beyond the largest finite bucket
        assert histogram.p99 == 1e9

    def test_empty_percentile_is_zero(self):
        assert Histogram("latency").p50 == 0.0

    def test_rejects_bad_quantile(self):
        histogram = Histogram("latency")
        histogram.observe(1.0)
        with pytest.raises(MetricsError):
            histogram.percentile(1.5)

    def test_empty_summary_is_all_zeros(self):
        summary = Histogram("latency").summary()
        assert summary == {
            "count": 0,
            "mean": 0.0,
            "min": 0.0,
            "max": 0.0,
            "p50": 0.0,
            "p99": 0.0,
            "p999": 0.0,
        }

    def test_single_sample_every_percentile_is_the_sample(self):
        """Bucket interpolation alone would report a value below the
        lone sample (the bucket's lower half); the [min, max] clamp
        pins every quantile to the only evidence there is."""
        histogram = Histogram("latency")
        histogram.observe(3.0)
        for q in (0.0, 0.5, 0.99, 0.999, 1.0):
            assert histogram.percentile(q) == 3.0

    def test_all_samples_in_one_bucket_stay_within_observed_range(self):
        """Samples clustered at a bucket's top edge: interpolation
        sweeps the bucket, the clamp keeps estimates inside what was
        actually observed."""
        histogram = Histogram("latency")
        for _ in range(100):
            histogram.observe(7.9)  # all in the (4, 8] bucket
        for q in (0.01, 0.5, 0.99, 0.999):
            assert histogram.percentile(q) == 7.9

    def test_p999_orders_into_the_tail(self):
        histogram = Histogram("latency")
        for value in range(1, 1001):
            histogram.observe(float(value))
        assert histogram.p50 <= histogram.p99 <= histogram.p999
        assert histogram.p999 <= histogram.max
        assert histogram.p999 > 900.0


class TestRegistry:
    def test_kind_clash_raises(self):
        registry = MetricsRegistry()
        registry.counter("ops")
        with pytest.raises(MetricsError, match="already registered"):
            registry.histogram("ops")
        registry.histogram("latency")
        with pytest.raises(MetricsError, match="already registered"):
            registry.counter("latency")

    def test_same_name_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("ops") is registry.counter("ops")
