"""Metrics registry plumbing: snapshot merging (the watch daemon's
per-cycle fold), quantile estimation, and exposition-format label
hygiene."""

import json

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    PROMETHEUS_CONTENT_TYPE,
    MetricsRegistry,
    estimate_quantile,
)


def snapshot_roundtrip(registry):
    """A snapshot after a JSON round trip."""
    return json.loads(json.dumps(registry.snapshot()))


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


class TestSnapshotMerge:
    def test_json_roundtrip_union_preserves_render(self):
        source = MetricsRegistry()
        source.counter("files_total", "files").inc(status="ok")
        source.counter("files_total").inc(2, status="crash")
        source.gauge("queue_depth").set(7)
        source.histogram("latency", buckets=(0.1, 1.0)).observe(0.05)

        target = MetricsRegistry()
        target.merge_snapshot(snapshot_roundtrip(source))
        assert target.render() == source.render()

    def test_counters_and_histograms_accumulate(self):
        source = MetricsRegistry()
        source.counter("c").inc(5)
        source.histogram("h", buckets=(1.0,)).observe(0.5)
        target = MetricsRegistry()
        target.merge_snapshot(source.snapshot())
        target.merge_snapshot(source.snapshot())
        assert target.counter("c").value() == 10
        assert target.histogram("h", buckets=(1.0,)).count() == 2

    def test_gauge_merge_is_last_write(self):
        source = MetricsRegistry()
        source.gauge("g").set(3)
        target = MetricsRegistry()
        target.merge_snapshot(source.snapshot())
        target.merge_snapshot(source.snapshot())
        assert target.gauge("g").value() == 3

    def test_bucket_boundary_mismatch_rejected(self):
        source = MetricsRegistry()
        source.histogram("h", buckets=(0.5, 5.0)).observe(0.1)
        target = MetricsRegistry()
        target.histogram("h", buckets=(1.0, 10.0)).observe(0.1)
        with pytest.raises(ValueError, match="incompatible bucket boundaries"):
            target.merge_snapshot(source.snapshot())

    def test_default_buckets_sorted(self):
        assert tuple(sorted(DEFAULT_BUCKETS)) == DEFAULT_BUCKETS
