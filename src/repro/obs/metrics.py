"""Metrics registry: counters, gauges, histograms, Prometheus text render.

A tiny, dependency-free subset of the Prometheus client model, enough to
snapshot an audit run::

    registry = MetricsRegistry()
    registry.counter("repro_files_total", "files by outcome").inc(status="ok")
    registry.histogram("repro_file_seconds", "per-file wall time").observe(0.12)
    print(registry.render())

Every metric supports label sets passed as keyword arguments; each
distinct label set keeps its own value.  ``render()`` emits the
Prometheus text exposition format (``# HELP``/``# TYPE`` headers,
``name{label="value"} 1.0`` samples, cumulative histogram buckets with a
``+Inf`` bucket plus ``_sum``/``_count`` series).  All operations are
thread-safe behind one registry lock.
"""

from __future__ import annotations

import math
import re
import threading

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "DEFAULT_QUANTILES",
    "PROMETHEUS_CONTENT_TYPE",
    "estimate_quantile",
]

#: Canonical Prometheus text-exposition content type (format version 0.0.4)
#: served by every ``/metrics`` endpoint in the system.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Seconds-oriented default histogram buckets (audit files span ~1 ms to minutes).
DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0)

#: Quantiles surfaced as ``_quantile`` gauges by ``render(quantiles=...)``.
DEFAULT_QUANTILES = (0.5, 0.9, 0.99)

LabelKey = tuple[tuple[str, str], ...]

_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
#: Label names the exposition format claims for itself: user label sets may
#: never carry them or rendered samples become ambiguous/invalid.
_RESERVED_LABELS = frozenset({"le", "quantile"})
_INVALID_LABEL_CHARS = re.compile(r"[^a-zA-Z0-9_]")

# Normalisation cache: _label_key runs on every inc()/observe() so repeated
# label names must not pay the regex cost twice.
_label_name_cache: dict[str, str] = {}


def _validate_metric_name(name: str) -> str:
    if not _METRIC_NAME_RE.match(name):
        raise ValueError(
            f"invalid metric name {name!r}: must match [a-zA-Z_:][a-zA-Z0-9_:]*"
        )
    return name


def _normalize_label_name(name: str) -> str:
    """Map an arbitrary label name onto valid exposition text, or reject it.

    Names that would render as invalid or ambiguous exposition text are
    either normalised (``sat-cache`` -> ``sat_cache``, ``9th`` -> ``_9th``)
    or rejected outright (``le``/``quantile`` are reserved by the format,
    ``__``-prefixed names are reserved by Prometheus internals).
    """
    cached = _label_name_cache.get(name)
    if cached is not None:
        return cached
    if name in _RESERVED_LABELS:
        raise ValueError(f"label name {name!r} is reserved by the exposition format")
    if name.startswith("__"):
        raise ValueError(f"label name {name!r} is reserved (double underscore prefix)")
    normalized = name
    if not _LABEL_NAME_RE.match(normalized):
        normalized = _INVALID_LABEL_CHARS.sub("_", normalized)
        if not normalized or not _LABEL_NAME_RE.match(normalized):
            normalized = "_" + normalized
    _label_name_cache[name] = normalized
    return normalized


def _label_key(labels: dict) -> LabelKey:
    return tuple(
        sorted((_normalize_label_name(str(k)), str(v)) for k, v in labels.items())
    )


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(key: LabelKey, extra: tuple[tuple[str, str], ...] = ()) -> str:
    items = key + extra
    if not items:
        return ""
    body = ",".join(f'{name}="{_escape(value)}"' for name, value in items)
    return "{" + body + "}"


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def estimate_quantile(
    bounds: tuple[float, ...], cumulative: list, count: int, q: float
) -> float | None:
    """Bucket-interpolated quantile from cumulative histogram counts.

    Same semantics as PromQL ``histogram_quantile``: linear interpolation
    inside the bucket that contains the target rank, with observations in
    the ``+Inf`` overflow bucket clamped to the highest finite bound.  The
    result is an *estimate* bounded by the bucket layout, not an exact
    order statistic.  Returns ``None`` for an empty series.
    """
    if count <= 0:
        return None
    q = min(max(q, 0.0), 1.0)
    rank = q * count
    prev_bound = 0.0
    prev_cum = 0
    for bound, cum in zip(bounds, cumulative):
        if cum >= rank and cum > prev_cum:
            span = cum - prev_cum
            fraction = (rank - prev_cum) / span if span else 1.0
            return prev_bound + (bound - prev_bound) * min(max(fraction, 0.0), 1.0)
        prev_bound, prev_cum = bound, cum
    return bounds[-1]


class _Metric:
    kind = "untyped"

    def __init__(self, name: str, help_text: str, lock: threading.Lock) -> None:
        self.name = _validate_metric_name(name)
        self.help = help_text
        self._lock = lock
        self._values: dict[LabelKey, float] = {}

    def value(self, **labels) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def _samples(self) -> list[str]:
        # Snapshot under the lock: a scrape concurrent with inc()/set()
        # (e.g. the daemon metrics server during an active cycle) must not
        # iterate a dict another thread is growing.
        with self._lock:
            values = dict(self._values)
        lines = []
        for key in sorted(values):
            lines.append(f"{self.name}{_render_labels(key)} {_format_value(values[key])}")
        return lines

class Counter(_Metric):
    """Monotonically increasing value per label set."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount


class Gauge(_Metric):
    """Set-to-current-value metric per label set."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        with self._lock:
            self._values[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount


class Histogram:
    """Cumulative-bucket histogram per label set."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        lock: threading.Lock,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        self.name = _validate_metric_name(name)
        self.help = help_text
        self._lock = lock
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")
        # label key -> (per-bucket counts, sum, count)
        self._series: dict[LabelKey, list] = {}

    def observe(self, value: float, **labels) -> None:
        key = _label_key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = [[0] * len(self.buckets), 0.0, 0]
            counts, total, count = series
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    counts[i] += 1
            series[1] = total + value
            series[2] = count + 1

    def count(self, **labels) -> int:
        series = self._series.get(_label_key(labels))
        return series[2] if series else 0

    def sum(self, **labels) -> float:
        series = self._series.get(_label_key(labels))
        return series[1] if series else 0.0

    def quantile(self, q: float, **labels) -> float | None:
        """Bucket-interpolated quantile estimate for one label set."""
        with self._lock:
            series = self._series.get(_label_key(labels))
            if series is None:
                return None
            counts, _total, count = list(series[0]), series[1], series[2]
        return estimate_quantile(self.buckets, counts, count, q)

    def _snapshot_series(self) -> dict[LabelKey, tuple]:
        # Deep-copy under the lock: bucket count lists mutate in place.
        with self._lock:
            return {
                key: (list(counts), total, count)
                for key, (counts, total, count) in self._series.items()
            }

    def _samples(self) -> list[str]:
        series_snapshot = self._snapshot_series()
        lines = []
        for key in sorted(series_snapshot):
            counts, total, count = series_snapshot[key]
            for bound, bucket_count in zip(self.buckets, counts):
                lines.append(
                    f"{self.name}_bucket"
                    f"{_render_labels(key, (('le', _format_value(bound)),))} {bucket_count}"
                )
            lines.append(f"{self.name}_bucket{_render_labels(key, (('le', '+Inf'),))} {count}")
            lines.append(f"{self.name}_sum{_render_labels(key)} {_format_value(total)}")
            lines.append(f"{self.name}_count{_render_labels(key)} {count}")
        return lines

    def _quantile_samples(self, quantiles: tuple[float, ...]) -> list[str]:
        series_snapshot = self._snapshot_series()
        lines = []
        for key in sorted(series_snapshot):
            counts, _total, count = series_snapshot[key]
            for q in quantiles:
                estimate = estimate_quantile(self.buckets, counts, count, q)
                if estimate is None:
                    continue
                extra = (("quantile", _format_value(q)),)
                lines.append(
                    f"{self.name}_quantile{_render_labels(key, extra)} "
                    f"{_format_value(estimate)}"
                )
        return lines


class MetricsRegistry:
    """Named metrics with get-or-create accessors and a text snapshot."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, object] = {}

    def _get_or_create(self, name: str, factory, kind: str):
        _validate_metric_name(name)
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = factory()
            elif metric.kind != kind:  # type: ignore[attr-defined]
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}"  # type: ignore[attr-defined]
                )
        return metric

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._get_or_create(
            name, lambda: Counter(name, help_text, self._lock), "counter"
        )

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._get_or_create(name, lambda: Gauge(name, help_text, self._lock), "gauge")

    def histogram(
        self, name: str, help_text: str = "", buckets: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> Histogram:
        return self._get_or_create(
            name, lambda: Histogram(name, help_text, self._lock, buckets), "histogram"
        )

    def render(self, quantiles: tuple[float, ...] = ()) -> str:
        """Prometheus text exposition snapshot of every registered metric.

        With ``quantiles``, each histogram additionally exposes
        bucket-interpolated ``<name>_quantile{quantile="0.x"}`` gauges.
        """
        lines: list[str] = []
        with self._lock:
            metrics = sorted(self._metrics.items())
        for name, metric in metrics:
            if metric.help:  # type: ignore[attr-defined]
                lines.append(f"# HELP {name} {metric.help}")  # type: ignore[attr-defined]
            lines.append(f"# TYPE {name} {metric.kind}")  # type: ignore[attr-defined]
            lines.extend(metric._samples())  # type: ignore[attr-defined]
            if quantiles and metric.kind == "histogram":
                quantile_lines = metric._quantile_samples(tuple(quantiles))  # type: ignore[attr-defined]
                if quantile_lines:
                    lines.append(f"# TYPE {name}_quantile gauge")
                    lines.extend(quantile_lines)
        return "\n".join(lines) + ("\n" if lines else "")
