"""Tests for audit-stream reporting (repro.obs.report) and the
``repro report`` subcommand's exit-code contract (0 clean / 1 regression
/ 2 malformed / 3 replay disagreement)."""

import json

import pytest

from repro.cli import main
from repro.obs import (
    AuditRun,
    ReportError,
    diff_runs,
    load_audit,
    render_diff,
    render_report,
    replay_disagreements,
    summarize_run,
)
from repro.obs.report import stage_quantiles


def file_record(filename, status="ok", safe=True, **extra):
    record = {"type": "file", "filename": filename, "status": status, "safe": safe}
    record.update(extra)
    return record


def write_stream(path, records, stats={"total": None}):
    lines = [json.dumps(r) for r in records]
    if stats is not None:
        payload = {"type": "stats", "total": len(records), "wall_seconds": 1.5}
        payload.update({k: v for k, v in stats.items() if v is not None})
        lines.append(json.dumps(payload))
    path.write_text("\n".join(lines) + "\n")
    return path


class TestLoadAudit:
    def test_parses_files_and_stats(self, tmp_path):
        path = write_stream(
            tmp_path / "a.jsonl",
            [file_record("a.php"), file_record("b.php", safe=False)],
        )
        run = load_audit(path)
        assert len(run.files) == 2
        assert run.stats["total"] == 2
        assert not run.truncated

    def test_missing_trailer_marks_truncated(self, tmp_path):
        path = write_stream(tmp_path / "a.jsonl", [file_record("a.php")], stats=None)
        assert load_audit(path).truncated

    def test_torn_final_line_tolerated(self, tmp_path):
        path = write_stream(tmp_path / "a.jsonl", [file_record("a.php")], stats=None)
        with path.open("a") as handle:
            handle.write('{"type": "file", "filena')
        run = load_audit(path)
        assert run.truncated and len(run.files) == 1

    def test_torn_middle_line_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"broken\n' + json.dumps(file_record("a.php")) + "\n")
        with pytest.raises(ReportError):
            load_audit(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ReportError):
            load_audit(tmp_path / "absent.jsonl")

    def test_unknown_record_types_ignored(self, tmp_path):
        """Streams from older releases carried per-node trailers and
        ``node`` fields; they still load, with those parts ignored."""
        path = tmp_path / "a.jsonl"
        lines = [
            file_record("a.php", node="n1"),
            {"type": "node", "node": "n1", "files": 1},
            {"type": "stats", "total": 1, "wall_seconds": 1.0},
        ]
        path.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
        run = load_audit(path)
        assert [r["filename"] for r in run.files] == ["a.php"]
        assert run.stats["total"] == 1 and not run.truncated
        assert "nodes" not in summarize_run(run)

    def test_last_record_per_filename_wins(self, tmp_path):
        path = write_stream(
            tmp_path / "a.jsonl",
            [file_record("a.php", safe=True), file_record("a.php", safe=False)],
        )
        by_name = load_audit(path).by_filename()
        assert by_name["a.php"]["safe"] is False


class TestRenderReport:
    def test_summary_contents(self, tmp_path):
        path = write_stream(
            tmp_path / "a.jsonl",
            [
                file_record("slow.php", safe=False, duration=2.5,
                            timings={"parse": 0.1, "sat": 2.0},
                            solver={"backend": "cdcl", "solve_calls": 3, "decisions": 9}),
                file_record("fast.php", duration=0.1),
                file_record("bad.php", status="timeout", safe=None),
            ],
        )
        text = render_report(load_audit(path))
        assert "1 safe, 1 vulnerable, 1 failed" in text
        assert "failures: 1 timeout" in text
        assert "stage time: parse 0.10s, sat 2.00s" in text
        assert "solver: 3 solve calls, 9 decisions" in text
        assert "slowest 2 file(s):" in text
        assert text.index("slow.php") < text.index("fast.php")

    def test_truncated_warning(self, tmp_path):
        path = write_stream(tmp_path / "a.jsonl", [file_record("a.php")], stats=None)
        assert "no stats trailer" in render_report(load_audit(path))

    def test_interrupted_warning(self, tmp_path):
        path = write_stream(
            tmp_path / "a.jsonl", [file_record("a.php")], stats={"interrupted": True}
        )
        assert "interrupted" in render_report(load_audit(path))

    def test_top_limits_slowest_list(self, tmp_path):
        records = [file_record(f"f{i}.php", duration=float(i)) for i in range(5)]
        path = write_stream(tmp_path / "a.jsonl", records)
        text = render_report(load_audit(path), top=2)
        assert "slowest 2 file(s):" in text
        assert "f4.php" in text and "f0.php" not in text

    def test_mean_duration_line(self, tmp_path):
        path = write_stream(
            tmp_path / "a.jsonl",
            [
                file_record("a.php", duration=1.0),
                file_record("b.php", duration=3.0),
                file_record("c.php", status="timeout", safe=None),  # no duration
            ],
        )
        text = render_report(load_audit(path))
        assert "per-file duration: mean 2.000s, max 3.000s" in text

    def test_trailer_only_stream_renders_without_division_by_zero(self, tmp_path):
        # A drained daemon cycle or an audit interrupted before the first
        # outcome produces a stats trailer and zero file records; the
        # duration summary must be omitted, not crash.
        path = write_stream(tmp_path / "empty.jsonl", [])
        text = render_report(load_audit(path))
        assert "files: 0/0 audited" in text
        assert "per-file duration" not in text

    def test_records_without_durations_omit_the_line(self, tmp_path):
        path = write_stream(tmp_path / "a.jsonl", [file_record("a.php")])
        assert "per-file duration" not in render_report(load_audit(path))


class TestDiffRuns:
    def run_of(self, records):
        return AuditRun(path="mem", files=records)

    def test_classification(self):
        old = self.run_of(
            [
                file_record("same.php"),
                file_record("regress.php"),
                file_record("fix.php", safe=False),
                file_record("still.php", safe=False),
                file_record("break.php"),
                file_record("recover.php", status="timeout", safe=None),
                file_record("gone.php"),
            ]
        )
        new = self.run_of(
            [
                file_record("same.php"),
                file_record("regress.php", safe=False),
                file_record("fix.php"),
                file_record("still.php", safe=False),
                file_record("break.php", status="crash", safe=None),
                file_record("recover.php"),
                file_record("fresh-vuln.php", safe=False),
                file_record("fresh-safe.php"),
            ]
        )
        diff = diff_runs(old, new)
        assert diff.new_vulnerable == ["fresh-vuln.php"]
        assert diff.regressed == ["regress.php"]
        assert diff.fixed == ["fix.php"]
        assert diff.broken == ["break.php"]
        assert diff.recovered == ["recover.php"]
        assert diff.removed == ["gone.php"]
        assert diff.added == ["fresh-safe.php"]
        assert diff.still_vulnerable == 1
        assert diff.has_regressions

    def test_identical_runs_clean(self):
        records = [file_record("a.php"), file_record("b.php", safe=False)]
        diff = diff_runs(self.run_of(records), self.run_of(records))
        assert not diff.has_regressions
        assert diff.still_vulnerable == 1

    def test_render_diff_verdict_line(self):
        old = self.run_of([file_record("a.php")])
        clean = diff_runs(old, old)
        assert "result: no regressions" in render_diff(old, old, clean)
        new = self.run_of([file_record("a.php", safe=False)])
        bad = diff_runs(old, new)
        text = render_diff(old, new, bad)
        assert "result: REGRESSIONS FOUND" in text
        assert "regressed (safe → vulnerable): 1" in text


class TestStageQuantiles:
    def records(self):
        return [
            file_record("a.php", timings={"parse": 0.02, "sat": 0.4}),
            file_record("b.php", timings={"parse": 0.03, "sat": 0.6}),
            file_record("c.php", cached=True, timings={"parse": 9.0}),
        ]

    def test_cached_records_excluded(self):
        quantiles = stage_quantiles(self.records())
        assert quantiles["parse"]["count"] == 2
        assert quantiles["parse"]["p99"] < 1.0  # the cached 9.0s never counted

    def test_stage_order_and_bounds(self):
        quantiles = stage_quantiles(self.records())
        assert list(quantiles) == ["parse", "sat"]
        sat = quantiles["sat"]
        assert 0.0 < sat["p50"] <= sat["p90"] <= sat["p99"]

    def test_render_report_prints_quantile_section(self, tmp_path):
        path = write_stream(tmp_path / "a.jsonl", self.records())
        text = render_report(load_audit(path))
        assert "stage latency p50/p90/p99 (bucket-interpolated):" in text
        assert "parse" in text and "sat" in text

    def test_no_timings_no_section(self, tmp_path):
        path = write_stream(tmp_path / "a.jsonl", [file_record("a.php")])
        assert "stage latency" not in render_report(load_audit(path))


class TestSlowQueries:
    def ledger_stream(self, path):
        queries = [
            {"seconds": 0.9, "file": "b.php", "assert_id": 2,
             "decisions": 20, "conflicts": 4, "fingerprint": "e" * 64},
            {"seconds": 0.5, "file": "a.php", "assert_id": 1,
             "decisions": 10, "conflicts": 2, "fingerprint": "f" * 64},
        ]
        records = [
            file_record("a.php", slow_queries=queries[1:]),
            file_record("b.php", slow_queries=queries[:1]),
            {"type": "stats", "total": 2, "safe": 2, "vulnerable": 0,
             "wall_seconds": 0.5, "slow_queries": queries},
        ]
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        return path

    def test_read_from_the_trailer_ledger(self, tmp_path):
        run = load_audit(self.ledger_stream(tmp_path / "m.jsonl"))
        slow = run.slow_queries()
        assert [q["seconds"] for q in slow] == [0.9, 0.5]
        assert [q["file"] for q in slow] == ["b.php", "a.php"]

    def test_top_limits(self, tmp_path):
        run = load_audit(self.ledger_stream(tmp_path / "m.jsonl"))
        assert len(run.slow_queries(top=1)) == 1

    def test_render_report_table(self, tmp_path):
        text = render_report(load_audit(self.ledger_stream(tmp_path / "m.jsonl")))
        assert "slow queries (top 2):" in text
        assert "a.php" in text and "b.php" in text
        assert "fp eeeeeeeeeeee" in text

    def test_falls_back_to_file_records(self, tmp_path):
        path = write_stream(
            tmp_path / "a.jsonl",
            [file_record("a.php", slow_queries=[
                {"seconds": 0.3, "file": "a.php", "assert_id": 1}
            ])],
        )
        slow = load_audit(path).slow_queries()
        assert len(slow) == 1 and slow[0]["seconds"] == 0.3

    def test_absent_ledger_renders_no_section(self, tmp_path):
        path = write_stream(tmp_path / "a.jsonl", [file_record("a.php")])
        assert "slow queries" not in render_report(load_audit(path))


class TestSummarizeRun:
    def test_json_able_and_complete(self, tmp_path):
        path = write_stream(
            tmp_path / "a.jsonl",
            [
                file_record("a.php", duration=0.2,
                            timings={"parse": 0.1, "sat": 0.1}),
                file_record("b.php", safe=False, duration=0.4,
                            timings={"parse": 0.2, "sat": 0.2}),
            ],
        )
        summary = summarize_run(load_audit(path))
        json.dumps(summary)  # must be JSON-able as-is
        assert summary["files_audited"] == 2
        assert summary["verdicts"]["safe"] == 1
        assert summary["verdicts"]["vulnerable"] == 1
        assert summary["verdicts"]["failed"] == 0
        assert summary["duration"]["max"] == 0.4
        assert summary["stage_quantiles"]["sat"]["count"] == 2
        assert [f["filename"] for f in summary["slowest_files"]] == ["b.php", "a.php"]

    def test_top_bounds_lists(self, tmp_path):
        path = write_stream(
            tmp_path / "a.jsonl",
            [file_record(f"f{i}.php", duration=0.1 * i) for i in range(5)],
        )
        summary = summarize_run(load_audit(path), top=2)
        assert len(summary["slowest_files"]) == 2

    def test_worker_starts_come_from_the_trailer(self, tmp_path):
        records = [file_record("a.php"), file_record("b.php")]
        forked = load_audit(write_stream(tmp_path / "a.jsonl", records, {"workers_started": 2}))
        reused = load_audit(write_stream(tmp_path / "b.jsonl", records, {"workers_started": 0}))
        assert summarize_run(forked)["workers_started"] == 2
        assert "workers: 2 started" in render_report(forked)
        assert summarize_run(reused)["workers_started"] == 0
        assert "workers:" not in render_report(reused)


def replay_section(confirmed=1, refuted=0, unsupported=0, **extra):
    section = {
        "confirmed": confirmed,
        "refuted": refuted,
        "unsupported": unsupported,
        "patched_refuted": confirmed,
        "patched_confirmed": 0,
        "patched_unsupported": 0,
        "skipped": 0,
        "traces": [],
    }
    section.update(extra)
    return section


class TestReplayReporting:
    def test_pre_replay_streams_tolerated(self, tmp_path):
        """Streams written before the replay section existed (or with
        ``--replay off``) must summarize without KeyError."""
        path = write_stream(
            tmp_path / "old.jsonl",
            [file_record("a.php"), file_record("b.php", safe=False)],
        )
        run = load_audit(path)
        summary = summarize_run(run)
        assert summary["replay"] == {}
        assert summary["replay_disagreements"] == []
        assert "replay:" not in render_report(run)

    def test_mixed_streams_aggregate_only_replay_records(self, tmp_path):
        # One pre-replay record, one annotated: the dict-shaped section
        # aggregates; the absent one contributes nothing.
        path = write_stream(
            tmp_path / "mix.jsonl",
            [
                file_record("old.php", safe=False),
                file_record("new.php", safe=False, replay=replay_section()),
            ],
        )
        summary = summarize_run(load_audit(path))
        assert summary["replay"]["confirmed"] == 1

    def test_replay_counts_render_in_text_and_json(self, tmp_path):
        path = write_stream(
            tmp_path / "r.jsonl",
            [
                file_record("a.php", safe=False, replay=replay_section()),
                file_record(
                    "b.php", safe=False, replay=replay_section(unsupported=1)
                ),
            ],
        )
        run = load_audit(path)
        text = render_report(run)
        assert "replay: 2 confirmed, 0 refuted, 1 unsupported" in text
        assert "patched replay: 2 killed, 0 survived" in text
        summary = summarize_run(run)
        assert summary["replay"]["confirmed"] == 2
        assert summary["replay"]["unsupported"] == 1

    def test_disagreements_listed_and_detected(self, tmp_path):
        path = write_stream(
            tmp_path / "d.jsonl",
            [
                file_record(
                    "fp.php", safe=False, replay=replay_section(confirmed=0, refuted=2)
                ),
                file_record("ok.php", safe=False, replay=replay_section()),
                # refuted replays on a SAFE record are impossible in
                # practice but must not be flagged as a disagreement.
                file_record(
                    "safe.php", safe=True, replay=replay_section(confirmed=0, refuted=1)
                ),
            ],
        )
        run = load_audit(path)
        disagreements = replay_disagreements(run.files)
        assert [d["filename"] for d in disagreements] == ["fp.php"]
        text = render_report(run)
        assert "replay disagreements (vulnerable but refuted): 1" in text
        assert "fp.php" in text

    def test_cli_exit_three_on_disagreement(self, tmp_path, capsys):
        path = write_stream(
            tmp_path / "d.jsonl",
            [file_record("fp.php", safe=False,
                         replay=replay_section(confirmed=0, refuted=1))],
        )
        assert main(["report", str(path)]) == 3
        assert "disagreements" in capsys.readouterr().out

    def test_cli_exit_zero_when_replays_agree(self, tmp_path):
        path = write_stream(
            tmp_path / "ok.jsonl",
            [file_record("ok.php", safe=False, replay=replay_section())],
        )
        assert main(["report", str(path)]) == 0

    def test_html_renders_confirmed_column(self, tmp_path, capsys):
        path = write_stream(
            tmp_path / "r.jsonl",
            [file_record("a.php", safe=False, replay=replay_section())],
        )
        out = tmp_path / "dash.html"
        assert main(["report", str(path), "--html", str(out)]) == 0
        page = out.read_text()
        assert "confirmed" in page


class TestReportCli:
    def test_summary_exit_zero(self, tmp_path, capsys):
        path = write_stream(tmp_path / "a.jsonl", [file_record("a.php")])
        assert main(["report", str(path)]) == 0
        assert "audit report" in capsys.readouterr().out

    def test_diff_clean_exit_zero(self, tmp_path, capsys):
        path = write_stream(tmp_path / "a.jsonl", [file_record("a.php")])
        assert main(["report", "--diff", str(path), str(path)]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_diff_regression_exit_one(self, tmp_path, capsys):
        old = write_stream(tmp_path / "old.jsonl", [file_record("a.php")])
        new = write_stream(
            tmp_path / "new.jsonl", [file_record("a.php", safe=False)]
        )
        assert main(["report", "--diff", str(old), str(new)]) == 1
        assert "REGRESSIONS FOUND" in capsys.readouterr().out

    def test_malformed_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"nope\n{"also": "nope"}\n')
        assert main(["report", str(bad)]) == 2
        assert "report:" in capsys.readouterr().err

    def test_missing_file_exit_two(self, tmp_path):
        assert main(["report", str(tmp_path / "absent.jsonl")]) == 2

    def test_usage_errors_exit_two(self, tmp_path, capsys):
        path = write_stream(tmp_path / "a.jsonl", [file_record("a.php")])
        assert main(["report"]) == 2
        assert main(["report", str(path), "--diff", str(path), str(path)]) == 2

    def test_json_flag_emits_machine_readable_summary(self, tmp_path, capsys):
        path = write_stream(tmp_path / "a.jsonl", [file_record("a.php")])
        assert main(["report", str(path), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["files_audited"] == 1
        assert summary["verdicts"]["safe"] == 1

    def test_html_flag_writes_dashboard(self, tmp_path, capsys):
        path = write_stream(tmp_path / "a.jsonl", [file_record("a.php")])
        out = tmp_path / "dash.html"
        assert main(["report", str(path), "--html", str(out)]) == 0
        captured = capsys.readouterr()
        assert "audit report" in captured.out  # text report still printed
        assert "wrote dashboard" in captured.err
        page = out.read_text()
        assert page.startswith("<!DOCTYPE html>") and "id='verdicts'" in page

    def test_json_and_html_combine(self, tmp_path, capsys):
        path = write_stream(tmp_path / "a.jsonl", [file_record("a.php")])
        out = tmp_path / "dash.html"
        assert main(["report", str(path), "--json", "--html", str(out)]) == 0
        json.loads(capsys.readouterr().out)
        assert out.exists()

    def test_diff_with_json_or_html_rejected(self, tmp_path, capsys):
        path = write_stream(tmp_path / "a.jsonl", [file_record("a.php")])
        assert main(["report", "--diff", str(path), str(path), "--json"]) == 2
        assert main(
            ["report", "--diff", str(path), str(path), "--html", str(tmp_path / "x.html")]
        ) == 2
        assert "single-stream" in capsys.readouterr().err


class TestViewsAgree:
    def test_text_json_and_html_tally_the_last_record_per_filename(self, tmp_path, capsys):
        path = write_stream(
            tmp_path / "dup.jsonl",
            [
                file_record("a.php", safe=True),
                file_record("b.php", status="timeout", safe=None),
                # A re-audit of a.php supersedes its first line.
                file_record("a.php", safe=False),
                file_record("c.php", safe=True),
            ],
        )
        html = tmp_path / "dash.html"
        assert main(["report", str(path), "--json", "--html", str(html)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["files_audited"] == 3
        assert summary["verdicts"] == {"safe": 1, "vulnerable": 1, "failed": 1, "cached": 0}
        assert main(["report", str(path)]) == 0
        text = capsys.readouterr().out
        assert "files: 3/" in text
        assert "verdicts: 1 safe, 1 vulnerable, 1 failed" in text
        page = html.read_text()
        for number, caption in (
            (3, "files"), (1, "safe"), (1, "vulnerable"), (1, "failed"), (0, "cache hits")
        ):
            tile = f"<span class='num'>{number}</span><span class='cap'>{caption}</span>"
            assert tile in page, caption
