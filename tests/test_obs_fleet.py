"""Metrics registry plumbing: quantile estimation, histogram buckets and
exposition-format label hygiene."""

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    PROMETHEUS_CONTENT_TYPE,
    MetricsRegistry,
    estimate_quantile,
)


class TestLabelHygiene:
    def test_reserved_label_names_rejected(self):
        counter = MetricsRegistry().counter("c")
        with pytest.raises(ValueError, match="reserved"):
            counter.inc(le="0.5")
        with pytest.raises(ValueError, match="reserved"):
            counter.inc(quantile="0.9")

    def test_double_underscore_prefix_rejected(self):
        counter = MetricsRegistry().counter("c")
        with pytest.raises(ValueError, match="reserved"):
            counter.value(__name__="c")

    def test_invalid_chars_normalized(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc(**{"sat-cache": "hit"})
        assert 'sat_cache="hit"' in registry.render()
        assert counter.value(sat_cache="hit") == 1

    def test_leading_digit_normalized(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(**{"9th": "x"})
        assert '_9th="x"' in registry.render()

    def test_invalid_metric_name_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="invalid metric name"):
            registry.counter("bad-name")
        with pytest.raises(ValueError, match="invalid metric name"):
            registry.histogram("0leading")

    def test_label_value_newline_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(path="a\nb")
        assert 'path="a\\nb"' in registry.render()

    def test_content_type_is_canonical(self):
        assert PROMETHEUS_CONTENT_TYPE == "text/plain; version=0.0.4; charset=utf-8"


class TestQuantiles:
    def test_empty_series_is_none(self):
        assert estimate_quantile((0.1, 1.0), [0, 0], 0, 0.5) is None

    def test_interpolates_within_bucket(self):
        # 10 observations, all in the (0.1, 1.0] bucket: p50 lands midway.
        value = estimate_quantile((0.1, 1.0, 10.0), [0, 10, 10], 10, 0.5)
        assert value == pytest.approx(0.1 + (1.0 - 0.1) * 0.5)

    def test_overflow_clamps_to_highest_finite_bound(self):
        # Everything in the +Inf overflow bucket.
        assert estimate_quantile((0.1, 1.0), [0, 0], 5, 0.99) == 1.0

    def test_histogram_quantile_method(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 1.5, 3.0):
            hist.observe(value)
        p50 = hist.quantile(0.5)
        assert p50 is not None and 1.0 <= p50 <= 2.0
        assert hist.quantile(0.5, missing="labels") is None

    def test_render_emits_quantile_gauges(self):
        registry = MetricsRegistry()
        registry.histogram("h", "help").observe(0.25)
        text = registry.render(quantiles=(0.5, 0.99))
        assert "# TYPE h_quantile gauge" in text
        assert 'h_quantile{quantile="0.5"}' in text
        assert 'h_quantile{quantile="0.99"}' in text
        # Plain render stays quantile-free.
        assert "quantile" not in registry.render()


class TestBuckets:
    def test_default_buckets_sorted(self):
        assert tuple(sorted(DEFAULT_BUCKETS)) == DEFAULT_BUCKETS
