"""Prometheus text rendering of run totals.

:func:`render_prometheus` is the one rendering behind both metrics
surfaces — the ``repro audit --metrics FILE`` snapshot and the watch
daemon's live ``/metrics`` — of the one fold of file records,
:class:`~repro.obs.report.RunTotals`::

    totals = RunTotals.of(records)
    totals.add_trailer(trailer)
    print(render_prometheus(totals))

The output is the Prometheus text exposition format: ``# HELP``/``# TYPE``
headers, ``name{label="value"} 1`` samples, cumulative histogram buckets
with a ``+Inf`` bucket plus ``_sum``/``_count`` series, and
bucket-interpolated ``<name>_quantile`` gauges for each histogram.
Every family is present on every render, in a fixed order, so a
scrape's schema does not depend on what the run saw.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from itertools import accumulate
from typing import TYPE_CHECKING

from repro.sat.solver import MAX_STATS

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.report import RunTotals

__all__ = [
    "DEFAULT_BUCKETS",
    "DEFAULT_QUANTILES",
    "PROMETHEUS_CONTENT_TYPE",
    "bucket_quantiles",
    "estimate_quantile",
    "render_prometheus",
]

#: Canonical Prometheus text-exposition content type (format version 0.0.4)
#: served by every ``/metrics`` endpoint in the system.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Seconds-oriented histogram buckets (audit files span ~1 ms to minutes).
DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0)

#: Quantiles surfaced as ``_quantile`` gauges and in report latency sections.
DEFAULT_QUANTILES = (0.5, 0.9, 0.99)

Labels = tuple[tuple[str, str], ...]


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(labels: Labels) -> str:
    if not labels:
        return ""
    return "{" + ",".join(f'{name}="{_escape(value)}"' for name, value in labels) + "}"


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


def bucket_quantiles(buckets: Sequence[int]) -> dict[float, float | None]:
    """:data:`DEFAULT_QUANTILES` estimates of per-bucket counts over
    :data:`DEFAULT_BUCKETS` plus an overflow bucket."""
    cumulative, count = list(accumulate(buckets[:-1])), sum(buckets)
    return {
        q: estimate_quantile(DEFAULT_BUCKETS, cumulative, count, q) for q in DEFAULT_QUANTILES
    }


_HIT_MISS = ("hit", "miss")
_REPLAY_VERDICTS = ("confirmed", "refuted", "unsupported")


def _by(label: str, values: Mapping, names: Sequence[str] | None = None) -> list:
    """``(labels, value)`` samples: one per name in ``names`` (0 when
    absent), or one per key of ``values`` in sorted order."""
    return [(((label, key),), values.get(key, 0)) for key in names or sorted(values)]


def _engine_families(totals: "RunTotals") -> list[tuple]:
    """``(name, type, help, samples)`` per family; samples are
    ``(labels, value)`` pairs, or ``(labels, buckets, sum)`` series of a
    histogram (per-bucket counts over :data:`DEFAULT_BUCKETS` plus
    overflow)."""
    tally = totals.tally()
    statuses = {"ok": tally["safe"] + tally["vulnerable"], **totals.failures()}
    replay, includes = totals.replay, totals.includes
    patched = {verdict: replay.get(f"patched_{verdict}", 0) for verdict in _REPLAY_VERDICTS}
    lookups = {"hit": totals.cache_hits, "miss": totals.files - totals.cache_hits}
    parses = {"hit": includes.get("parse_cache_hits", 0),
              "miss": includes.get("parse_cache_misses", 0)}
    stages = sorted(totals.stage_buckets)
    backend = totals.backend or "unknown"
    return [
        ("repro_files_total", "counter", "audited files by outcome status",
         _by("status", {status: n for status, n in statuses.items() if n})),
        ("repro_verdicts_total", "counter", "verdicts by kind",
         _by("verdict", tally, ("safe", "vulnerable"))),
        ("repro_assertions_total", "counter", "AI assertions checked by the BMC stage",
         [((), totals.assertions)]),
        ("repro_cache_lookups_total", "counter", "result-cache probes",
         _by("result", lookups, _HIT_MISS)),
        ("repro_replay_total", "counter", "witness-replay traces by verdict",
         _by("verdict", replay, _REPLAY_VERDICTS)),
        ("repro_replay_patched_total", "counter", "patched witness re-runs by verdict",
         _by("verdict", patched, _REPLAY_VERDICTS)),
        ("repro_file_seconds", "histogram", "end-to-end wall seconds per file",
         [((), totals.duration_buckets, totals.duration_seconds)]),
        ("repro_stage_seconds", "histogram", "per-file wall seconds by pipeline stage",
         [((("stage", stage),), totals.stage_buckets[stage], totals.stage_seconds[stage])
          for stage in stages]),
        ("repro_stage_seconds_total", "counter", "wall seconds by pipeline stage",
         _by("stage", totals.stage_seconds, stages)),
        # A per-file maximum is not an event count: it has no _total.
        ("repro_solver_events_total", "counter", "aggregated SAT-solver counters",
         [((("backend", backend), ("kind", kind)), value)
          for kind, value in sorted(totals.solver.items()) if kind not in MAX_STATS]),
        ("repro_include_edges_total", "counter", "include edges seen while splicing",
         [((), includes.get("edges", 0))]),
        ("repro_unresolved_includes_total", "counter",
         "dynamic include paths left unresolved (coverage gap)",
         [((), includes.get("unresolved", 0))]),
        ("repro_parse_cache_total", "counter", "parse-cache probes by result",
         _by("result", parses, _HIT_MISS)),
        ("repro_worker_starts_total", "counter", "worker processes started",
         [((), totals.workers_started)]),
    ]


def _watch_families(health: Mapping) -> list[tuple]:
    """The ``repro_watch_*`` families of a watch loop's health payload."""
    idle = health["idle_polls"]
    polls = {"dirty": health["polls"] - idle, "idle": idle}
    return [
        ("repro_watch_polls_total", "counter", "tree polls by outcome", _by("outcome", polls)),
        ("repro_watch_cycles_total", "counter", "completed re-audit cycles",
         [((), health["cycles"])]),
        ("repro_watch_tracked_files", "gauge", "files in the current snapshot",
         [((), health["tracked_files"])]),
        ("repro_watch_dirty_files", "gauge", "dirty files in the last cycle",
         [((), health["last_dirty"])]),
        ("repro_watch_cycle_seconds", "gauge", "engine wall seconds of the last cycle",
         [((), health["last_cycle_seconds"])]),
        ("repro_watch_includers_invalidated_total", "counter",
         "files re-audited because they include a dirty file",
         [((), health["includers_invalidated"])]),
    ]


def _exposition(families: list[tuple]) -> list[str]:
    """The text lines of ``families``; each histogram is followed by its
    ``<name>_quantile`` gauge family."""
    lines: list[str] = []
    for name, kind, help_text, samples in families:
        lines += [f"# HELP {name} {help_text}", f"# TYPE {name} {kind}"]
        if kind != "histogram":
            lines += [f"{name}{_render_labels(labels)} {_format_value(v)}" for labels, v in samples]
            continue
        quantiles = [
            f"# HELP {name}_quantile bucket-interpolated quantiles of {name}",
            f"# TYPE {name}_quantile gauge",
        ]
        for labels, buckets, total in samples:
            count = sum(buckets)
            for bound, cumulative in zip(DEFAULT_BUCKETS, accumulate(buckets[:-1])):
                le = (("le", _format_value(bound)),)
                lines.append(f"{name}_bucket{_render_labels(labels + le)} {cumulative}")
            lines += [
                f"{name}_bucket{_render_labels(labels + (('le', '+Inf'),))} {count}",
                f"{name}_sum{_render_labels(labels)} {_format_value(total)}",
                f"{name}_count{_render_labels(labels)} {count}",
            ]
            quantiles += [
                f"{name}_quantile{_render_labels(labels + (('quantile', _format_value(q)),))} "
                f"{_format_value(estimate)}"
                for q, estimate in bucket_quantiles(buckets).items()
                if estimate is not None
            ]
        lines += quantiles
    return lines


def render_prometheus(totals: "RunTotals", watch: Mapping | None = None) -> str:
    """The Prometheus text snapshot of ``totals``.

    With ``watch`` (a :meth:`~repro.daemon.loop.WatchLoop.health`
    payload), the ``repro_watch_*`` families are rendered from its
    counters too.  ``totals`` is rendered under its lock, so a render on
    another thread never sees an outcome half folded in.
    """
    watch_families = _watch_families(watch) if watch is not None else []
    with totals.lock:
        lines = _exposition(_engine_families(totals) + watch_families)
    return "".join(line + "\n" for line in lines)
