"""Tests for the batch-audit engine (repro.engine.scheduler / worker).

The crash/timeout tests monkeypatch ``execute_task`` in the parent; the
``fork`` start method propagates the patch into worker processes, which
is exactly what makes misbehaving workers injectable.
"""

import json
import multiprocessing
import os
import time
from pathlib import Path

import pytest

import repro.engine.worker as worker_module
from repro.engine import (
    AuditEngine,
    AuditTask,
    EngineConfig,
    EntryTask,
    JsonlSink,
    ResultCache,
)
from repro.engine.scheduler import shutdown_pool
from repro.php.includes import SourceProject
from repro.policy.preludefile import parse_prelude
from repro.websari.pipeline import WebSSARI

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="crash/timeout injection requires the fork start method",
)

VULN = "<?php echo $_GET['q'];\n"
SAFE = "<?php echo 'hello';\n"
BROKEN = "<?php if (\n"


def make_tasks(sources):
    """One entry task per ``(name, source)``, all entries of one project."""
    project = SourceProject(dict(sources))
    assert len(project) == len(sources)
    return [EntryTask(i, name, name, project) for i, (name, _) in enumerate(sources)]


def patch_execute(monkeypatch, special):
    """Route specific filenames to injected behaviours, rest to the real
    pipeline.  Both inline and pool modes resolve ``execute_task``
    through the worker module at call time (and ``fork`` inherits the
    patch), so one setattr covers everything.

    A fork sees only patches made before it, so the kept worker pool is
    shut down before the patch and again when the test tears it down."""
    real = worker_module.execute_task

    def fake(task, websari, want_report=False):
        action = special.get(task.filename)
        if action is not None:
            return action(task, websari, want_report)
        return real(task, websari, want_report)

    shutdown_pool()
    monkeypatch.setattr(worker_module, "execute_task", fake)
    undo = monkeypatch.undo

    def undo_and_shut_down():
        shutdown_pool()
        undo()

    monkeypatch.undo = undo_and_shut_down


class TestInline:
    def test_outcomes_in_input_order(self):
        tasks = make_tasks([("v.php", VULN), ("s.php", SAFE), ("b.php", BROKEN)])
        result = AuditEngine(config=EngineConfig(jobs=1)).run(tasks)
        assert [o.filename for o in result.outcomes] == ["v.php", "s.php", "b.php"]
        assert [o.status for o in result.outcomes] == ["ok", "ok", "frontend-error"]
        assert result.outcomes[0].safe is False
        assert result.outcomes[1].safe is True
        assert result.any_vulnerable and result.any_failed

    def test_counts_and_stage_timings(self):
        result = AuditEngine(config=EngineConfig(jobs=1)).run(make_tasks([("v.php", VULN)]))
        outcome = result.outcomes[0]
        assert outcome.ts_errors == 1 and outcome.bmc_groups == 1
        assert set(outcome.timings) == {"scan", "parse", "filter", "ai", "sat"}
        assert "VULNERABLE" in outcome.summary
        assert "counterexample" in outcome.detailed

    def test_analysis_exception_is_isolated(self, monkeypatch):
        def boom(task, websari, want_report):
            raise ValueError("injected failure")

        patch_execute(monkeypatch, {"bad.php": boom})
        tasks = make_tasks([("bad.php", SAFE), ("v.php", VULN)])
        result = AuditEngine(config=EngineConfig(jobs=1)).run(tasks)
        # Even an executor that raises (rather than returning an error
        # record itself) must become a structured outcome, not an abort.
        assert result.outcomes[0].status == "error"
        assert "injected failure" in result.outcomes[0].error
        assert result.outcomes[1].status == "ok"

    def test_stats_tally(self):
        tasks = make_tasks([("v.php", VULN), ("s.php", SAFE), ("b.php", BROKEN)])
        stats = AuditEngine(config=EngineConfig(jobs=1)).run(tasks).stats
        assert stats.total == stats.completed == 3
        assert stats.vulnerable == 1 and stats.safe == 1 and stats.frontend_errors == 1
        assert stats.failed == 1
        assert stats.cache_misses == 3 and stats.cache_hits == 0
        # >= 0, not > 0: a coarse-resolution monotonic clock can report a
        # zero-length wall time for a three-file inline run.
        assert stats.wall_seconds >= 0
        assert any("audited 3/3" in line for line in stats.summary_lines())


class TestParallel:
    def test_matches_inline_results(self):
        tasks = make_tasks([("v.php", VULN), ("s.php", SAFE), ("b.php", BROKEN)])
        inline = AuditEngine(config=EngineConfig(jobs=1)).run(tasks)
        pooled = AuditEngine(config=EngineConfig(jobs=2)).run(tasks)
        assert [o.to_record()["summary"] for o in inline.outcomes] == [
            o.to_record()["summary"] for o in pooled.outcomes
        ]
        assert [o.status for o in inline.outcomes] == [o.status for o in pooled.outcomes]

    @needs_fork
    def test_order_is_input_order_not_completion_order(self, monkeypatch):
        real = worker_module.execute_task

        def slow(task, websari, want_report):
            time.sleep(0.4)
            return real(task, websari, want_report)

        patch_execute(monkeypatch, {"slow.php": slow})
        tasks = make_tasks([("slow.php", SAFE), ("fast1.php", VULN), ("fast2.php", SAFE)])
        result = AuditEngine(config=EngineConfig(jobs=3)).run(tasks)
        # slow.php finishes last but must still be reported first.
        assert [o.filename for o in result.outcomes] == ["slow.php", "fast1.php", "fast2.php"]
        assert all(o.status == "ok" for o in result.outcomes)


class TestRobustness:
    @needs_fork
    def test_worker_crash_is_isolated_and_retried(self, monkeypatch):
        def crash(task, websari, want_report):
            os._exit(13)

        patch_execute(monkeypatch, {"crash.php": crash})
        tasks = make_tasks([("crash.php", SAFE), ("v.php", VULN), ("s.php", SAFE)])
        result = AuditEngine(config=EngineConfig(jobs=2)).run(tasks)
        crash_outcome = result.outcomes[0]
        assert crash_outcome.status == "crash"
        assert crash_outcome.attempts == 2  # retried once
        assert "code 13" in crash_outcome.error
        # Sibling jobs are unaffected.
        assert result.outcomes[1].status == "ok" and not result.outcomes[1].safe
        assert result.outcomes[2].status == "ok" and result.outcomes[2].safe
        assert result.stats.crashes == 1 and result.stats.retries == 1

    @needs_fork
    def test_crash_retry_can_succeed(self, monkeypatch, tmp_path):
        marker = tmp_path / "crashed-once"
        real = worker_module.execute_task

        def flaky(task, websari, want_report):
            if not marker.exists():
                marker.write_text("x")
                os._exit(13)
            return real(task, websari, want_report)

        patch_execute(monkeypatch, {"flaky.php": flaky})
        result = AuditEngine(config=EngineConfig(jobs=2)).run(
            make_tasks([("flaky.php", VULN)])
        )
        outcome = result.outcomes[0]
        assert outcome.status == "ok" and outcome.attempts == 2
        assert result.stats.retries == 1 and result.stats.crashes == 0

    @needs_fork
    def test_timeout_kills_only_the_offender(self, monkeypatch):
        def hang(task, websari, want_report):
            time.sleep(60)

        patch_execute(monkeypatch, {"hang.php": hang})
        tasks = make_tasks([("hang.php", SAFE), ("v.php", VULN)])
        # No wall-clock bound here: the timeout outcome itself proves the
        # hang was killed, and elapsed-time assertions flake on loaded CI
        # runners.
        result = AuditEngine(config=EngineConfig(jobs=2, timeout=0.5)).run(tasks)
        assert result.outcomes[0].status == "timeout"
        assert "0.5s" in result.outcomes[0].error
        assert result.outcomes[1].status == "ok"
        assert result.stats.timeouts == 1


class TestPipelining:
    """The pool buffers up to two tasks per worker pipe; these pin the
    semantics that must survive pipelining (order, attempt accounting,
    crash/timeout isolation for queued-but-unstarted tasks)."""

    @needs_fork
    def test_many_tasks_preserve_order_and_verdicts(self):
        # 10 tasks over 2 workers exercises refilling both queue slots
        # repeatedly; outcomes must stay in input order with one attempt
        # each.
        tasks = make_tasks(
            [(f"f{i}.php", VULN if i % 2 else SAFE) for i in range(10)]
        )
        result = AuditEngine(config=EngineConfig(jobs=2)).run(tasks)
        assert [o.filename for o in result.outcomes] == [t.filename for t in tasks]
        assert all(o.status == "ok" for o in result.outcomes)
        assert [o.safe for o in result.outcomes] == [i % 2 == 0 for i in range(10)]
        assert all(o.attempts == 1 for o in result.outcomes)

    @needs_fork
    def test_task_queued_behind_crash_is_not_charged_an_attempt(self, monkeypatch):
        def crash(task, websari, want_report):
            os._exit(13)

        patch_execute(monkeypatch, {"crash.php": crash})
        # Enough tasks that something is queued behind the crasher in its
        # worker's pipe; those never ran, so they must be requeued with
        # their attempt count intact.
        tasks = make_tasks(
            [("crash.php", SAFE)] + [(f"f{i}.php", SAFE) for i in range(5)]
        )
        result = AuditEngine(config=EngineConfig(jobs=2)).run(tasks)
        assert result.outcomes[0].status == "crash"
        assert result.outcomes[0].attempts == 2  # the crasher alone is retried
        for outcome in result.outcomes[1:]:
            assert outcome.status == "ok" and outcome.attempts == 1
        assert result.stats.retries == 1

    @needs_fork
    def test_task_queued_behind_timeout_still_completes(self, monkeypatch):
        def hang(task, websari, want_report):
            time.sleep(60)

        patch_execute(monkeypatch, {"hang.php": hang})
        tasks = make_tasks(
            [("hang.php", SAFE)] + [(f"f{i}.php", VULN) for i in range(4)]
        )
        # As above: the timeout status is the proof; no elapsed-time bound.
        result = AuditEngine(config=EngineConfig(jobs=2, timeout=0.5)).run(tasks)
        assert result.outcomes[0].status == "timeout"
        for outcome in result.outcomes[1:]:
            assert outcome.status == "ok" and outcome.attempts == 1
        assert result.stats.timeouts == 1


class TestCacheIntegration:
    def test_second_run_hits_with_identical_verdicts(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        tasks = make_tasks([("v.php", VULN), ("s.php", SAFE), ("b.php", BROKEN)])
        first = AuditEngine(config=EngineConfig(jobs=1, cache=cache)).run(tasks)
        second = AuditEngine(config=EngineConfig(jobs=1, cache=cache)).run(tasks)
        assert first.stats.cache_hits == 0 and first.stats.cache_misses == 3
        assert second.stats.cache_hits == 3 and second.stats.cache_misses == 0
        assert second.stats.hit_rate() == 1.0
        for a, b in zip(first.outcomes, second.outcomes):
            assert b.cached and not a.cached
            assert (a.status, a.safe, a.summary, a.detailed, a.error) == (
                b.status,
                b.safe,
                b.summary,
                b.detailed,
                b.error,
            )

    def test_source_change_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        config = EngineConfig(jobs=1, cache=cache)
        AuditEngine(config=config).run(make_tasks([("a.php", SAFE)]))
        changed = AuditEngine(config=config).run(make_tasks([("a.php", VULN)]))
        assert changed.stats.cache_misses == 1
        assert changed.outcomes[0].safe is False

    def test_prelude_change_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        source = "<?php $x = read_config(); show($x);\n"
        stock = AuditEngine(
            websari=WebSSARI(), config=EngineConfig(jobs=1, cache=cache)
        ).run(make_tasks([("a.php", source)]))
        assert stock.outcomes[0].safe is True
        custom = parse_prelude("source read_config tainted\nsink show tainted xss\n")
        hardened = AuditEngine(
            websari=WebSSARI(prelude=custom), config=EngineConfig(jobs=1, cache=cache)
        ).run(make_tasks([("a.php", source)]))
        assert hardened.stats.cache_misses == 1, "prelude change must invalidate"
        assert hardened.outcomes[0].safe is False

    def test_failures_are_not_cached(self, monkeypatch, tmp_path):
        def boom(task, websari, want_report):
            raise RuntimeError("transient")

        cache = ResultCache(tmp_path / "cache")
        patch_execute(monkeypatch, {"bad.php": boom})
        first = AuditEngine(config=EngineConfig(jobs=1, cache=cache)).run(
            make_tasks([("bad.php", SAFE)])
        )
        assert first.outcomes[0].status == "error"
        assert len(cache) == 0

    def test_same_content_different_filename_not_aliased(self, tmp_path):
        # Report text embeds the filename, so two identically-byted files
        # must not serve each other's cached records.
        cache = ResultCache(tmp_path / "cache")
        config = EngineConfig(jobs=1, cache=cache)
        AuditEngine(config=config).run(make_tasks([("a.php", VULN)]))
        result = AuditEngine(config=config).run(make_tasks([("b.php", VULN)]))
        assert result.stats.cache_misses == 1
        assert result.outcomes[0].summary.startswith("b.php:")

    def test_project_entry_keys_include_included_files(self):
        files_a = {"entry.php": "<?php include 'lib.php';", "lib.php": "<?php echo 1;"}
        files_b = {"entry.php": "<?php include 'lib.php';", "lib.php": "<?php echo 2;"}
        task_a = AuditTask(0, "entry.php", project_files=files_a, entry="entry.php")
        task_b = AuditTask(0, "entry.php", project_files=files_b, entry="entry.php")
        assert task_a.cache_material() != task_b.cache_material()



class TestEntryCacheKeys:
    """A task with an ``entry`` keys on the entry, never on the path
    spelling; only a task without one keys on its filename."""

    def test_standalone_entry_ignores_filename(self):
        a = AuditTask(0, "/x/a/page.php", source=VULN, entry="page.php")
        b = AuditTask(0, "b/page.php", source=VULN, entry="page.php")
        assert a.cache_material() == b.cache_material() == (VULN, "entry=page.php")

    def test_closure_entry_ignores_filename(self):
        files = {"entry.php": "<?php include 'lib.php';", "lib.php": "<?php echo 1;"}
        a = AuditTask(0, "/x/a/entry.php", project_files=files, entry="entry.php")
        b = AuditTask(0, "entry.php", project_files=files, entry="entry.php")
        assert a.cache_material() == b.cache_material()
        assert "file=" not in a.cache_material()[1]

    def test_widened_entry_ignores_filename(self):
        files = {"entry.php": "<?php include $x;"}
        a = AuditTask(0, "/x/a/entry.php", project_files=files, entry="entry.php",
                      closure_widened=True, project_digest="d1")
        b = AuditTask(0, "entry.php", project_files=files, entry="entry.php",
                      closure_widened=True, project_digest="d1")
        assert a.cache_material() == b.cache_material() == ("d1", "entry=entry.php|closure=widened")

    def test_different_entries_do_not_share(self):
        a = AuditTask(0, "t/a.php", source=VULN, entry="a.php")
        b = AuditTask(0, "t/b.php", source=VULN, entry="b.php")
        assert a.cache_material() != b.cache_material()

    def test_task_without_entry_keys_on_filename(self):
        task = AuditTask(0, "a.php", source=VULN)
        assert task.cache_material() == (VULN, "file=a.php")


class TestCachedRecordsTakeTheTaskFilename:
    def test_hit_through_another_spelling_is_restamped(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        config = EngineConfig(jobs=1, cache=cache)
        project = SourceProject({"page.php": VULN})
        first = AuditEngine(config=config).run(
            [EntryTask(0, "a/page.php", "page.php", project)]
        )
        second = AuditEngine(config=config).run(
            [EntryTask(0, "b/page.php", "page.php", project)]
        )
        [cold], [hit] = first.outcomes, second.outcomes
        assert hit.cached and second.stats.cache_hits == 1
        assert hit.filename == "b/page.php"
        assert hit.summary == cold.summary.replace("a/page.php: ", "b/page.php: ", 1)
        assert hit.detailed == cold.detailed.replace("a/page.php: ", "b/page.php: ", 1)
        assert all(q["file"] == "b/page.php" for q in hit.slow_queries)
        # Spans inside the report render under the entry name, which
        # both spellings share.
        assert "a/page.php" not in hit.detailed

    def test_hit_under_the_same_name_is_unchanged(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        config = EngineConfig(jobs=1, cache=cache)
        task = EntryTask(0, "a/page.php", "page.php", SourceProject({"page.php": VULN}))
        [cold] = AuditEngine(config=config).run([task]).outcomes
        [hit] = AuditEngine(config=config).run([task]).outcomes
        assert hit.cached
        assert (hit.filename, hit.summary, hit.detailed) == (
            cold.filename, cold.summary, cold.detailed
        )

class TestJsonl:
    def test_sink_records_and_final_stats(self, tmp_path):
        out = tmp_path / "audit.jsonl"
        tasks = make_tasks([("v.php", VULN), ("b.php", BROKEN)])
        with JsonlSink(out) as sink:
            AuditEngine(config=EngineConfig(jobs=1, jsonl=sink)).run(tasks)
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(lines) == 3
        assert {l["type"] for l in lines[:-1]} == {"file"}
        assert lines[-1]["type"] == "stats"
        assert lines[-1]["completed"] == 2 and lines[-1]["vulnerable"] == 1
        by_name = {l["filename"]: l for l in lines[:-1]}
        assert by_name["v.php"]["status"] == "ok" and by_name["v.php"]["safe"] is False
        assert by_name["b.php"]["status"] == "frontend-error"


class TestSolverStatsInOutcomes:
    def test_ok_outcome_carries_cdcl_counters(self):
        result = AuditEngine(config=EngineConfig(jobs=1)).run(make_tasks([("v.php", VULN)]))
        solver = result.outcomes[0].solver
        assert solver["backend"] == "cdcl"
        assert solver["solve_calls"] > 0
        for key in ("decisions", "propagations", "conflicts"):
            assert key in solver

    def test_solver_section_is_backend_calls_and_solver_stats(self):
        # The record schema ENGINE_VERSION keys: exactly the SolverStats
        # counters, and ledger entries without per-configuration fields.
        from dataclasses import fields

        from repro.sat.solver import SolverStats

        outcome = AuditEngine(config=EngineConfig(jobs=1)).run(
            make_tasks([("v.php", VULN)])
        ).outcomes[0]
        assert set(outcome.solver) == {
            "backend", "solve_calls", *(f.name for f in fields(SolverStats))
        }
        assert {key for query in outcome.slow_queries for key in query} == {
            "seconds", "assert_id", "iteration", "decisions", "conflicts",
            "satisfiable", "backend", "fingerprint", "file",
        }

    def test_dpll_backend_same_verdicts_own_counters(self):
        tasks = make_tasks([("v.php", VULN), ("s.php", SAFE)])
        cdcl = AuditEngine(websari=WebSSARI(solver="cdcl"), config=EngineConfig(jobs=1)).run(tasks)
        dpll = AuditEngine(websari=WebSSARI(solver="dpll"), config=EngineConfig(jobs=1)).run(tasks)
        assert [o.safe for o in cdcl.outcomes] == [o.safe for o in dpll.outcomes]
        assert dpll.outcomes[0].solver["backend"] == "dpll"
        assert dpll.outcomes[0].solver["solve_calls"] > 0

    def test_stats_aggregate_solver_totals(self):
        tasks = make_tasks([("v.php", VULN), ("s.php", SAFE)])
        stats = AuditEngine(config=EngineConfig(jobs=1)).run(tasks).stats
        assert stats.solver_totals["solve_calls"] > 0
        assert "solver" in stats.as_dict()
        assert any(line.startswith("solver:") for line in stats.summary_lines())

    def test_jsonl_records_include_solver(self, tmp_path):
        out = tmp_path / "audit.jsonl"
        with JsonlSink(out) as sink:
            AuditEngine(config=EngineConfig(jobs=1, jsonl=sink)).run(
                make_tasks([("v.php", VULN)])
            )
        record = json.loads(out.read_text().splitlines()[0])
        assert record["solver"]["backend"] == "cdcl"
        assert record["solver"]["solve_calls"] > 0
        stats_line = json.loads(out.read_text().splitlines()[-1])
        assert stats_line["solver"]["solve_calls"] > 0

    def test_max_decision_level_folds_with_max(self, monkeypatch, tmp_path, capsys):
        """``max_decision_level`` is a per-file maximum: the run keeps the
        largest, and it is no event count for ``repro_solver_events_total``."""
        from repro.cli import main
        from repro.engine import FileOutcome
        from repro.obs import RunTotals, render_prometheus

        def deepest(level):
            return lambda task, websari, want_report: FileOutcome(
                filename=task.filename, status="ok", safe=True,
                solver={"backend": "cdcl", "solve_calls": 1, "max_decision_level": level},
            )

        patch_execute(monkeypatch, {"a.php": deepest(3), "b.php": deepest(5)})
        out = tmp_path / "audit.jsonl"
        totals = RunTotals()
        with JsonlSink(out) as sink:
            AuditEngine(config=EngineConfig(jobs=1, jsonl=sink, metrics=totals)).run(
                make_tasks([("a.php", SAFE), ("b.php", SAFE)])
            )
        trailer = json.loads(out.read_text().splitlines()[-1])
        assert trailer["solver"] == {"max_decision_level": 5, "solve_calls": 2}
        assert main(["report", str(out), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["solver"] == trailer["solver"]
        text = render_prometheus(totals)
        assert 'kind="solve_calls"} 2' in text
        assert 'kind="max_decision_level"' not in text

    def test_failed_outcome_has_empty_solver(self):
        result = AuditEngine(config=EngineConfig(jobs=1)).run(make_tasks([("b.php", BROKEN)]))
        assert result.outcomes[0].solver == {}


class TestTracing:
    def _config(self, jobs=1):
        from repro.obs import RunTotals, Tracer

        return EngineConfig(jobs=jobs, tracer=Tracer(enabled=True), metrics=RunTotals())

    def _file_roots(self, config):
        roots = config.tracer.take_roots()
        assert [r.name for r in roots] == ["audit"]
        return roots[0].children

    def test_inline_run_produces_nested_spans(self):
        config = self._config(jobs=1)
        AuditEngine(config=config).run(make_tasks([("v.php", VULN)]))
        file_spans = self._file_roots(config)
        assert [s.name for s in file_spans] == ["file:v.php"]
        root = file_spans[0]
        assert root.attrs["status"] == "ok" and root.attrs["safe"] is False
        stage_names = [c.name for c in root.children]
        assert stage_names == ["scan", "parse", "filter", "ai", "sat"]
        sat = root.children[-1]
        solves = [s for s in sat.walk() if s.name == "sat.solve"]
        assert solves, "per-assertion SAT solves must appear under the sat stage"
        assert "decisions" in solves[0].attrs

    @needs_fork
    def test_pooled_run_stitches_worker_spans(self):
        config = self._config(jobs=2)
        AuditEngine(config=config).run(make_tasks([("v.php", VULN), ("s.php", SAFE)]))
        file_spans = self._file_roots(config)
        assert sorted(s.name for s in file_spans) == ["file:s.php", "file:v.php"]
        for root in file_spans:
            assert root.pid == os.getpid()
            assert [c.name for c in root.children] == [
                "scan", "parse", "filter", "ai", "sat"
            ]
            # Stage spans keep the worker's pid (separate track per worker).
            assert all(c.pid != os.getpid() for c in root.children)

    def test_metrics_observed(self):
        config = self._config(jobs=1)
        AuditEngine(config=config).run(make_tasks([("v.php", VULN), ("b.php", BROKEN)]))
        from repro.obs import render_prometheus

        text = render_prometheus(config.metrics)
        assert 'repro_files_total{status="ok"} 1' in text
        assert 'repro_files_total{status="frontend-error"} 1' in text
        assert 'repro_verdicts_total{verdict="vulnerable"} 1' in text
        assert 'repro_solver_events_total{backend="cdcl",kind="solve_calls"}' in text

    def test_stage_timings_are_the_stage_spans(self):
        """One timing source: each ok outcome's ``timings`` are exactly
        its stitched stage spans' durations."""
        examples = Path(__file__).resolve().parent.parent / "examples" / "php"
        sources = [(p.name, p.read_text()) for p in sorted(examples.glob("*.php"))]
        config = self._config(jobs=1)
        result = AuditEngine(websari=WebSSARI(replay=True), config=config).run(
            make_tasks(sources)
        )
        roots = {s.name: s for s in self._file_roots(config)}
        ok = [o for o in result.outcomes if o.status == "ok"]
        assert ok and any("replay" in o.timings for o in ok)
        for outcome in ok:
            stages = roots["file:" + outcome.filename].children
            assert [s.name for s in stages] == list(outcome.timings)
            for span in stages:
                assert abs(outcome.timings[span.name] - span.duration) <= 1e-3

    def test_no_tracer_collects_no_trace(self):
        result = AuditEngine(config=EngineConfig(jobs=1)).run(make_tasks([("v.php", VULN)]))
        assert result.outcomes[0].trace is None

    def test_cached_outcomes_have_flagged_root(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        AuditEngine(config=EngineConfig(jobs=1, cache=cache)).run(make_tasks([("v.php", VULN)]))
        config = self._config(jobs=1)
        config.cache = cache
        AuditEngine(config=config).run(make_tasks([("v.php", VULN)]))
        root = self._file_roots(config)[0]
        assert root.attrs["cached"] is True
        # A hit runs this run's include scan and no pipeline stage.
        assert [c.name for c in root.children] == ["scan"]


class TestStatsTolerance:
    def test_unknown_stage_keys_and_values_do_not_crash(self):
        from repro.engine.stats import EngineStats
        from repro.engine.worker import FileOutcome

        stats = EngineStats(total=1)
        outcome = FileOutcome(
            filename="x.php",
            status="ok",
            safe=True,
            timings={"parse": 0.1, "mystery_stage": 0.2, "bogus": "fast", "flag": True},
        )
        stats.record(outcome)
        assert stats.stage_seconds["mystery_stage"] == pytest.approx(0.2)
        assert "bogus" not in stats.stage_seconds and "flag" not in stats.stage_seconds
        assert any("mystery_stage" in line for line in stats.summary_lines())

    def test_unknown_status_counted_not_crashed(self):
        from repro.engine.stats import EngineStats
        from repro.engine.worker import FileOutcome

        stats = EngineStats(total=1)
        stats.record(FileOutcome(filename="x.php", status="exotic-new-status"))
        assert stats.other_statuses == {"exotic-new-status": 1}
        assert stats.failed == 1 and stats.errors == 0
        assert stats.as_dict()["other_statuses"] == {"exotic-new-status": 1}
        assert any("exotic-new-status" in line for line in stats.summary_lines())


class TestInterruptedRun:
    def test_jsonl_trailer_written_on_keyboard_interrupt(self, monkeypatch, tmp_path):
        def interrupt(task, websari, want_report):
            raise KeyboardInterrupt

        from repro.obs import RunTotals, render_prometheus

        patch_execute(monkeypatch, {"stop.php": interrupt})
        out = tmp_path / "audit.jsonl"
        tasks = make_tasks([("v.php", VULN), ("stop.php", SAFE), ("never.php", SAFE)])
        metrics = RunTotals()
        with JsonlSink(out) as sink:
            with pytest.raises(KeyboardInterrupt):
                AuditEngine(config=EngineConfig(jobs=1, jsonl=sink, metrics=metrics)).run(tasks)
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert lines, "completed records must be flushed before the interrupt"
        trailer = lines[-1]
        assert trailer["type"] == "stats"
        assert trailer["interrupted"] is True
        assert trailer["completed"] == 1
        # The metrics hold what finished, exactly as the stream folds it.
        streamed = RunTotals.of(lines[:-1])
        streamed.add_trailer(trailer)
        assert render_prometheus(metrics) == render_prometheus(streamed)
        assert 'repro_files_total{status="ok"} 1' in render_prometheus(metrics)

    def test_sink_is_reusable_safe_after_close(self, tmp_path):
        sink = JsonlSink(tmp_path / "a.jsonl")
        sink.write_stats({"completed": 0})
        sink.write_stats({"completed": 99})  # second trailer ignored
        sink.close()
        sink.write({"type": "file"})  # write-after-close is a no-op
        sink.close()
        lines = (tmp_path / "a.jsonl").read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["completed"] == 0


class TestAllStatusesInJsonl:
    @needs_fork
    def test_every_status_yields_enriched_record(self, monkeypatch, tmp_path):
        def hang(task, websari, want_report):
            time.sleep(60)

        def crash(task, websari, want_report):
            os._exit(13)

        patch_execute(monkeypatch, {"hang.php": hang, "crash.php": crash})
        out = tmp_path / "audit.jsonl"
        tasks = make_tasks(
            [
                ("ok.php", VULN),
                ("hang.php", SAFE),
                ("crash.php", SAFE),
                ("broken.php", BROKEN),
            ]
        )
        with JsonlSink(out) as sink:
            config = EngineConfig(jobs=2, timeout=0.5, crash_retries=0, jsonl=sink)
            result = AuditEngine(config=config).run(tasks)
        assert [o.status for o in result.outcomes] == [
            "ok",
            "timeout",
            "crash",
            "frontend-error",
        ]
        records = [json.loads(line) for line in out.read_text().splitlines()]
        by_name = {r["filename"]: r for r in records if r["type"] == "file"}
        assert set(by_name) == {"ok.php", "hang.php", "crash.php", "broken.php"}
        for record in by_name.values():
            assert "solver" in record and "timings" in record
            assert "duration" in record and "attempts" in record
        assert by_name["ok.php"]["solver"]["solve_calls"] > 0
        assert by_name["hang.php"]["solver"] == {}
        assert by_name["crash.php"]["solver"] == {}
        assert by_name["broken.php"]["solver"] == {}
        assert records[-1]["type"] == "stats"


class TestWantReports:
    def test_reports_attached_and_cache_bypassed(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        tasks = make_tasks([("v.php", VULN)])
        AuditEngine(config=EngineConfig(jobs=1, cache=cache)).run(tasks)
        result = AuditEngine(
            config=EngineConfig(jobs=1, cache=cache, want_reports=True)
        ).run(tasks)
        outcome = result.outcomes[0]
        assert not outcome.cached, "want_reports must not serve JSON cache hits"
        assert outcome.report is not None
        assert outcome.report.bmc_group_count == 1

    def test_parallel_reports_cross_process(self):
        tasks = make_tasks([("v.php", VULN), ("s.php", SAFE)])
        result = AuditEngine(config=EngineConfig(jobs=2, want_reports=True)).run(tasks)
        assert result.outcomes[0].report.ts_error_count == 1
        assert result.outcomes[1].report.safe


class TestVerifyProject:
    """``verify_project`` at any ``jobs`` against the per-entry
    ``verify_file`` reference."""

    @pytest.mark.parametrize("jobs", [None, 1, 2])
    def test_matches_per_entry_verify_file(self, jobs):
        project = SourceProject(
            {
                "index.php": "<?php include 'lib.php'; echo $_GET['q'];",
                "lib.php": "<?php $greeting = 'hi';",
                "safe.php": "<?php echo 'static';",
            }
        )
        websari = WebSSARI()
        reference = [
            websari.verify_file(path, project=project, entry=path)[0]
            for path in project.paths()
        ]
        report = websari.verify_project(project, jobs=jobs)
        assert [r.filename for r in report.reports] == [r.filename for r in reference]
        assert [r.summary() for r in report.reports] == [r.summary() for r in reference]
        assert report.num_statements == sum(r.num_statements for r in reference)
        assert report.ts_error_count == sum(r.ts_error_count for r in reference)
        assert report.bmc_group_count == sum(r.bmc_group_count for r in reference)

    @pytest.mark.parametrize("jobs", [None, 2])
    def test_frontend_error_raises_like_verify_file(self, jobs):
        from repro.php.errors import FrontendError

        project = SourceProject({"broken.php": "<?php if ("})
        websari = WebSSARI()
        with pytest.raises(FrontendError):
            websari.verify_file("broken.php", project=project, entry="broken.php")
        with pytest.raises(FrontendError):
            websari.verify_project(project, jobs=jobs)

    def test_other_failures_raise_runtime_error(self, monkeypatch):
        def boom(task, websari, want_report):
            raise ValueError("injected failure")

        patch_execute(monkeypatch, {"a.php": boom})
        with pytest.raises(RuntimeError, match="a.php: error: ValueError: injected failure"):
            WebSSARI().verify_project(SourceProject({"a.php": SAFE}))
