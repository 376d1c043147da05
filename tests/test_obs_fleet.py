"""Prometheus rendering plumbing: quantile estimation, histogram buckets
and exposition-format hygiene."""

import re

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    PROMETHEUS_CONTENT_TYPE,
    bucket_quantiles,
    estimate_quantile,
    render_prometheus,
)
from repro.obs.report import RunTotals


def record(status="ok", duration=0.25, **fields):
    return {"status": status, "safe": True, "duration": duration, **fields}


class TestLabelHygiene:
    def test_label_value_newline_escaped(self):
        text = render_prometheus(RunTotals.of([record(status="a\nb")]))
        assert 'repro_files_total{status="a\\nb"} 1' in text

    def test_label_value_quote_and_backslash_escaped(self):
        text = render_prometheus(RunTotals.of([record(status='a"b\\c')]))
        assert 'repro_files_total{status="a\\"b\\\\c"} 1' in text

    def test_names_are_valid_exposition_text(self):
        totals = RunTotals.of([record(timings={"sat": 0.02}, solver={"backend": "cdcl",
                                                                    "decisions": 3})])
        watch = {"polls": 2, "idle_polls": 1, "cycles": 1, "tracked_files": 1,
                 "last_dirty": 1, "last_cycle_seconds": 0.5, "includers_invalidated": 0}
        for line in render_prometheus(totals, watch).splitlines():
            if line.startswith("# TYPE "):
                assert re.fullmatch(r"# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* \w+", line), line
            elif not line.startswith("#"):
                labels = re.findall(r'[{,]([^=,{}]+)="', line)
                assert all(re.fullmatch(r"[a-zA-Z_][a-zA-Z0-9_]*", name) for name in labels), line

    def test_content_type_is_canonical(self):
        assert PROMETHEUS_CONTENT_TYPE == "text/plain; version=0.0.4; charset=utf-8"


class TestRender:
    def test_prometheus_text(self):
        text = render_prometheus(RunTotals.of([record()]))
        assert "# HELP repro_files_total audited files by outcome status" in text
        assert "# TYPE repro_files_total counter" in text
        assert 'repro_files_total{status="ok"} 1' in text
        assert "# TYPE repro_file_seconds histogram" in text
        assert "repro_file_seconds_sum 0.25" in text
        assert "repro_file_seconds_count 1" in text
        assert text.endswith("\n")

    def test_histogram_buckets_cumulative(self):
        totals = RunTotals.of(record(duration=d) for d in (0.0005, 0.3, 3.0, 100.0))
        lines = render_prometheus(totals).splitlines()
        # <=0.001 -> 1, <=0.5 -> 2, <=5 -> 3, <=60 -> 3, +Inf -> 4
        assert 'repro_file_seconds_bucket{le="0.001"} 1' in lines
        assert 'repro_file_seconds_bucket{le="0.5"} 2' in lines
        assert 'repro_file_seconds_bucket{le="5"} 3' in lines
        assert 'repro_file_seconds_bucket{le="60"} 3' in lines
        assert 'repro_file_seconds_bucket{le="+Inf"} 4' in lines
        assert "repro_file_seconds_sum 103.3005" in lines

    def test_every_family_present_on_an_empty_run(self):
        text = render_prometheus(RunTotals())
        assert "repro_assertions_total 0" in text
        assert "# TYPE repro_stage_seconds histogram" in text
        assert 'repro_verdicts_total{verdict="vulnerable"} 0' in text
        assert "repro_watch" not in text

    def test_max_stats_have_no_event_count(self):
        totals = RunTotals.of([record(solver={"backend": "dpll", "solve_calls": 2,
                                              "max_decision_level": 7})])
        text = render_prometheus(totals)
        assert 'repro_solver_events_total{backend="dpll",kind="solve_calls"} 2' in text
        assert "max_decision_level" not in text

    def test_backends_that_differ_render_as_mixed(self):
        totals = RunTotals.of(
            [record(solver={"backend": "cdcl", "solve_calls": 1}),
             record(solver={"backend": "dpll", "solve_calls": 1})]
        )
        assert 'backend="mixed",kind="solve_calls"} 2' in render_prometheus(totals)


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

    def test_bucket_quantiles(self):
        buckets = [0] * (len(DEFAULT_BUCKETS) + 1)
        buckets[DEFAULT_BUCKETS.index(1.0)] = 4  # four observations in (0.5, 1]
        estimates = bucket_quantiles(buckets)
        assert list(estimates) == [0.5, 0.9, 0.99]
        assert estimates[0.5] == pytest.approx(0.75)
        assert bucket_quantiles([0] * len(buckets))[0.5] is None

    def test_render_emits_quantile_gauges(self):
        text = render_prometheus(RunTotals.of([record(timings={"sat": 0.02})]))
        assert "# TYPE repro_file_seconds_quantile gauge" in text
        assert 'repro_file_seconds_quantile{quantile="0.5"}' in text
        assert 'repro_file_seconds_quantile{quantile="0.99"}' in text
        assert 'repro_stage_seconds_quantile{stage="sat",quantile="0.9"}' in text
        # An empty series has no estimate, so no sample.
        assert "_quantile{" not in render_prometheus(RunTotals())


class TestBuckets:
    def test_default_buckets_sorted(self):
        assert tuple(sorted(DEFAULT_BUCKETS)) == DEFAULT_BUCKETS
