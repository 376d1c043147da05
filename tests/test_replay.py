"""Unit tests for the witness-replay subsystem (``src/repro/replay/``).

Covers the three layers in isolation: the sentinel's
survive-every-sanitizer design, the span→condition solver, and the
replayer's verdict semantics — confirmed/refuted/unsupported, the
optimistic-confirmation rule, the patched re-run, and the guarantee
that replay degrades instead of failing an audit.
"""

import json

import pytest

from repro.interp import HttpRequest, run_php
from repro.php.parser import parse
from repro.replay import (
    MAX_REPLAYED_TRACES,
    SENTINEL,
    canonical_request_text,
    collect_input_keys,
    index_conditions,
    replay_counterexamples,
    replay_for_task,
    replay_source,
    sentinel_observed,
    solve_condition,
    summarize_replays,
    synthesize_request,
)
from repro.replay.conditions import ABSENT
from repro.websari.pipeline import WebSSARI


def verify_and_replay(source, filename="test.php", **kwargs):
    report = WebSSARI().verify_source(source, filename=filename)
    return report, replay_source(source, report, filename, **kwargs)


class TestSentinel:
    """Every sanitizer in the subset must destroy the sentinel."""

    @pytest.mark.parametrize(
        "sanitizer",
        [
            "htmlspecialchars($x, ENT_QUOTES)",
            "htmlentities($x)",
            "addslashes($x)",
            "mysql_escape_string($x)",
            "strip_tags($x)",
            "intval($x)",
        ],
    )
    def test_sanitizers_break_the_sentinel(self, sanitizer):
        source = f"<?php $x = $_GET['q']; echo {sanitizer};\n"
        env = run_php(source, HttpRequest(get={"q": SENTINEL}))
        assert sentinel_observed(env) is None, (
            f"{sanitizer} left the sentinel intact: {env.response_body()!r}"
        )

    def test_unsanitized_echo_is_observed_on_response(self):
        env = run_php("<?php echo $_GET['q'];\n", HttpRequest(get={"q": SENTINEL}))
        assert sentinel_observed(env) == "response"

    def test_sql_channel_is_scoped_to_the_run(self):
        env = run_php(
            "<?php mysql_query(\"SELECT '{$_GET['q']}'\");\n",
            HttpRequest(get={"q": SENTINEL}),
        )
        assert sentinel_observed(env) == "sql"
        # Pretend these queries came from an earlier run sharing the
        # database: scoping past them must empty the sql channel (the
        # per-run sink_log still carries the call — that is fresh state).
        from repro.replay.sentinel import observation_channels

        scoped = observation_channels(
            env, sql_log_start=len(env.database.query_log)
        )
        assert SENTINEL not in scoped["sql"]
        assert SENTINEL in scoped["sink"]

    def test_sentinel_is_truthy_and_nonnumeric(self):
        assert SENTINEL not in ("", "0")
        assert "'" in SENTINEL and '"' in SENTINEL
        assert "<" in SENTINEL and ">" in SENTINEL


class TestConditionSolver:
    def condition(self, source):
        program = parse(source, "cond.php")
        table = index_conditions(program)
        assert len(table) == 1, table
        return next(iter(table.values()))

    def test_superglobal_truthiness(self):
        cond = self.condition("<?php if ($_GET['go']) {}\n")
        assert solve_condition(cond, True) == {("get", "go"): SENTINEL}
        assert solve_condition(cond, False) == {("get", "go"): ABSENT}

    def test_negation(self):
        cond = self.condition("<?php if (!$_POST['stop']) {}\n")
        assert solve_condition(cond, True) == {("post", "stop"): ABSENT}
        assert solve_condition(cond, False) == {("post", "stop"): SENTINEL}

    def test_equality_against_literal(self):
        cond = self.condition("<?php if ($_GET['mode'] == 'admin') {}\n")
        assert solve_condition(cond, True) == {("get", "mode"): "admin"}
        assert solve_condition(cond, False) == {("get", "mode"): SENTINEL}

    def test_isset_and_empty(self):
        cond = self.condition("<?php if (isset($_COOKIE['sid'])) {}\n")
        assert solve_condition(cond, True) == {("cookie", "sid"): SENTINEL}
        assert solve_condition(cond, False) == {("cookie", "sid"): ABSENT}
        cond = self.condition("<?php if (empty($_GET['q'])) {}\n")
        assert solve_condition(cond, True) == {("get", "q"): ABSENT}

    def test_boolean_connectives(self):
        cond = self.condition("<?php if ($_GET['a'] && !$_GET['b']) {}\n")
        assert solve_condition(cond, True) == {
            ("get", "a"): SENTINEL,
            ("get", "b"): ABSENT,
        }

    def test_unsolvable_shapes_return_none(self):
        for source in (
            "<?php if ($local) {}\n",
            "<?php if (strlen($_GET['q']) > 3) {}\n",
            "<?php while ($row = mysql_fetch_array($r)) {}\n",
        ):
            assert solve_condition(self.condition(source), True) is None

    def test_referer_reads_map_to_the_referer_field(self):
        program = parse("<?php echo $HTTP_REFERER . $_SERVER['HTTP_REFERER'];\n", "r.php")
        assert collect_input_keys(program) == [("referer", "")]


class TestRequestSynthesis:
    def synthesize(self, source, trace):
        program = parse(source, "syn.php")
        return synthesize_request(
            index_conditions(program), collect_input_keys(program), trace
        )

    def trace_for(self, source, filename="syn.php"):
        report = WebSSARI().verify_source(source, filename=filename)
        traces = report.bmc.all_counterexamples()
        assert traces
        return traces[0]

    def test_baseline_plants_sentinel_on_every_input(self):
        source = "<?php echo $_GET['a'] . $_POST['b'] . $_COOKIE['c'];\n"
        trace = self.trace_for(source)
        request, unsolved = self.synthesize(source, trace)
        assert unsolved == []
        assert request.get == {"a": SENTINEL}
        assert request.post == {"b": SENTINEL}
        assert request.cookies == {"c": SENTINEL}

    def test_deciding_branch_steers_the_request(self):
        source = "<?php if ($_GET['mode'] == 'admin') { echo $_GET['q']; }\n"
        trace = self.trace_for(source)
        assert trace.deciding_branches, "witness must decide the branch"
        request, unsolved = self.synthesize(source, trace)
        assert unsolved == []
        assert request.get == {"mode": "admin", "q": SENTINEL}

    def test_canonical_request_text_is_sorted_and_stable(self):
        source = "<?php echo $_GET['z'] . $_GET['a'];\n"
        trace = self.trace_for(source)
        request, _ = self.synthesize(source, trace)
        text = canonical_request_text(request)
        assert text == json.dumps(json.loads(text), sort_keys=True)
        assert list(json.loads(text)["get"]) == ["a", "z"]


class TestVerdicts:
    def test_plain_leak_confirms_and_patch_refutes(self):
        _, results = verify_and_replay("<?php echo $_GET['q'];\n")
        assert [r.verdict for r in results] == ["confirmed"]
        assert results[0].channel == "response"
        assert results[0].patched == "refuted"

    def test_unsolved_branch_still_confirms_optimistically(self):
        # The deciding branch reads a computed local — unsolvable — but
        # the sentinel-everywhere baseline still drives the payload to
        # the sink, and an observed exploit is an exploit.
        source = "<?php $root = 0; if (!$root) { echo $_GET['q']; }\n"
        _, results = verify_and_replay(source)
        assert results and results[0].verdict == "confirmed"
        assert results[0].unsolved == ["b1"]

    def test_unsolved_branch_without_a_leak_is_unsupported(self):
        # Steering fails (computed local is falsy at runtime) and no
        # sentinel arrives: neither confirmed nor refuted.
        source = "<?php $flag = 0; if ($flag) { echo $_GET['q']; }\n"
        report = WebSSARI().verify_source(source, "u.php")
        if report.safe:
            pytest.skip("pipeline already proves this safe")
        _, results = verify_and_replay(source)
        assert all(r.verdict == "unsupported" for r in results)

    def test_runtime_error_degrades_to_unsupported(self):
        source = "<?php nonexistent_fn_xyz($_GET['q']); echo $_GET['q'];\n"
        report = WebSSARI().verify_source(source, "e.php")
        results = replay_source(source, report, "e.php")
        if not results:
            pytest.skip("no counterexamples to replay")
        assert all(r.verdict == "unsupported" for r in results)
        assert all("interpreter" in r.reason or ":" in r.reason for r in results)

    def test_max_traces_cap_is_respected(self):
        source = "<?php echo $_GET['q'];\n"
        report = WebSSARI().verify_source(source, "cap.php")
        traces = report.bmc.all_counterexamples()
        results = replay_counterexamples(
            {"cap.php": source}, "cap.php", traces, report.grouping, max_traces=0
        )
        assert results == []
        assert MAX_REPLAYED_TRACES >= 1


class TestSummaries:
    def test_summarize_counts_verdicts_and_patched(self):
        _, results = verify_and_replay("<?php echo $_GET['q'];\n")
        summary = summarize_replays(results, skipped=2)
        assert summary["confirmed"] == 1
        assert summary["refuted"] == 0
        assert summary["unsupported"] == 0
        assert summary["patched_refuted"] == 1
        assert summary["skipped"] == 2
        assert len(summary["traces"]) == 1
        json.dumps(summary)  # must be JSON-safe for the JSONL stream

    def test_replay_for_task_never_raises(self):
        class BrokenTask:
            project_files = None
            filename = "broken.php"
            source = None  # type error downstream

        class BrokenReport:
            class bmc:  # noqa: N801 - stub
                @staticmethod
                def all_counterexamples():
                    return [object(), object()]

            grouping = None

        summary = replay_for_task(BrokenTask(), BrokenReport())
        assert summary["unsupported"] == 2
        assert "error" in summary

    def test_trace_canonical_is_deterministic(self):
        source = "<?php if ($_GET['go']) { echo $_GET['q']; }\n"

        def canon():
            report = WebSSARI().verify_source(source, "det.php")
            return [t.canonical() for t in report.bmc.all_counterexamples()]

        first = canon()
        assert first and first == canon()
        assert all(isinstance(text, str) for text in first)


class TestParseOnce:
    """Within one replayed task every distinct ``(text, filename)`` is
    parsed once: the condition table, every trace's run and every
    patched re-run share a task-local memo."""

    ENTRY = (
        "<?php include 'lib.php'; require_once 'util.php';\n"
        "echo $_GET['a']; echo $_POST['b']; echo $x . $_COOKIE['c'];\n"
    )
    FILES = {"lib.php": "<?php $x = $_GET['x'];\n", "util.php": "<?php $y = 1;\n"}

    @staticmethod
    def counting(calls):
        def hook(text, filename):
            calls[(text, filename)] = calls.get((text, filename), 0) + 1
            return parse(text, filename)

        return hook

    def test_each_source_is_parsed_at_most_once_per_task(self, monkeypatch):
        import repro.replay.replayer as replayer

        original, patched = {}, {}
        monkeypatch.setattr(replayer, "parse", self.counting(patched))
        report = WebSSARI().verify_source(self.ENTRY, filename="index.php")
        traces = report.bmc.all_counterexamples()
        results = replay_counterexamples(
            {"index.php": self.ENTRY, **self.FILES},
            "index.php",
            traces,
            report.grouping,
            parse_hook=self.counting(original),
        )
        assert len(traces) > 1
        assert all(r.verdict == "confirmed" for r in results)
        assert all(r.patched == "refuted" for r in results)
        assert set(original) == {
            (self.ENTRY, "index.php"),
            *((text, name) for name, text in self.FILES.items()),
        }
        assert set(original.values()) == {1}
        # Patched sources differ from the originals and parse once each,
        # through the plain parser, never through the hook.
        assert patched and set(patched.values()) == {1}
        assert not set(patched) & set(original)

    def test_run_php_routes_entry_and_includes_through_the_hook(self):
        calls = {}
        files = {"lib.php": "<?php $x = 'lib';\n", "util.php": "<?php $y = 'util';\n"}
        env = run_php(
            "<?php include 'lib.php'; require_once 'util.php'; "
            "require_once 'util.php'; echo $x . $y;\n",
            files=files,
            filename="entry.php",
            parse_hook=self.counting(calls),
        )
        assert env.response_body() == "libutil"
        assert sorted(name for _, name in calls) == ["entry.php", "lib.php", "util.php"]

    def test_unparsable_include_gives_one_reason_on_every_trace(self):
        entry = "<?php include 'bad.php'; echo $_GET['a']; echo $_POST['b'];\n"
        bad = "<?php if (\n"
        report = WebSSARI().verify_source(entry, filename="e.php")
        traces = report.bmc.all_counterexamples()
        assert len(traces) > 1
        with pytest.raises(Exception) as failure:
            parse(bad, "bad.php")
        calls = {}
        results = replay_counterexamples(
            {"e.php": entry, "bad.php": bad},
            "e.php",
            traces,
            report.grouping,
            parse_hook=self.counting(calls),
        )
        expected = f"{type(failure.value).__name__}: {failure.value}"
        assert [r.reason for r in results] == [expected] * len(traces)
        assert all(r.verdict == "unsupported" for r in results)
        assert calls[(bad, "bad.php")] == 1

    def test_worker_parse_cache_serves_unpatched_sources(self):
        from repro.engine.worker import AuditTask, execute_task
        from repro.php.parsecache import ParseCache

        cache = ParseCache()
        websari = WebSSARI(parse_cache=cache)
        task = AuditTask(
            index=0,
            filename="index.php",
            project_files={"index.php": self.ENTRY, **self.FILES},
            entry="index.php",
        )
        outcome = execute_task(task, websari, want_report=True)
        assert outcome.safe is False
        misses, hits = cache.misses, cache.hits
        summary = replay_for_task(task, outcome.report, parse_hook=cache.parse)
        assert summary["confirmed"] >= 2 and summary["patched_refuted"] >= 2
        # Originals hit the memo; patched sources never go through it
        # (a patched parse through the cache would count as a miss).
        assert cache.misses == misses
        assert cache.hits > hits

    def test_worker_replay_adds_no_parse_cache_misses(self):
        from repro.engine.worker import AuditTask, execute_task
        from repro.php.parsecache import ParseCache

        cache = ParseCache()
        task = AuditTask(
            index=0,
            filename="index.php",
            project_files={"index.php": self.ENTRY, **self.FILES},
            entry="index.php",
        )
        outcome = execute_task(task, WebSSARI(parse_cache=cache, replay=True))
        assert outcome.replay["confirmed"] >= 2
        assert cache.misses == outcome.includes["parse_cache_misses"] == 3
        # Replay took the originals from the parse stage's memo.
        assert outcome.includes["parse_cache_hits"] == 0 and cache.hits >= 3

    def test_bench_and_worker_paths_agree_on_a_catalog_project(self):
        from repro.corpus import FIGURE_10
        from repro.corpus.generator import generate_catalog_project
        from repro.engine.worker import AuditTask, execute_task
        from repro.php.parsecache import ParseCache

        generated = generate_catalog_project(FIGURE_10[0], seed=2004)
        files = {path: generated.project.source(path) for path in generated.project.paths()}
        cache = ParseCache()
        websari = WebSSARI(parse_cache=cache)
        replayed = 0
        for entry in sorted(files):
            task = AuditTask(index=0, filename=entry, project_files=files, entry=entry)
            outcome = execute_task(task, websari, want_report=True)
            if outcome.status != "ok" or outcome.safe:
                continue
            plain = replay_for_task(task, outcome.report)
            hooked = replay_for_task(task, outcome.report, parse_hook=cache.parse)
            assert json.dumps(plain, sort_keys=True) == json.dumps(hooked, sort_keys=True)
            assert "error" not in plain
            replayed += plain["confirmed"]
        assert replayed > 0


class TestRunOncePerRequest:
    """Traces that synthesize the same request share one original run
    and one patched run, unless the caller shares application state."""

    SOURCE = "<?php echo $_GET['q']; print $_GET['q']; echo 'x' . $_GET['q'];\n"

    @pytest.fixture
    def runs(self, monkeypatch):
        """Entry texts of every ``run_php`` call the replayer makes."""
        import repro.replay.replayer as replayer

        calls: list[str] = []

        def spy(source, *args, **kwargs):
            calls.append(source)
            return run_php(source, *args, **kwargs)

        monkeypatch.setattr(replayer, "run_php", spy)
        return calls

    def traces(self):
        report = WebSSARI().verify_source(self.SOURCE, filename="same.php")
        traces = report.bmc.all_counterexamples()
        assert len(traces) >= 3
        return report, traces

    def test_traces_sharing_a_request_run_two_programs(self, runs):
        report, traces = self.traces()
        results = replay_counterexamples(
            {"same.php": self.SOURCE}, "same.php", traces, report.grouping
        )
        assert len({json.dumps(r.request, sort_keys=True) for r in results}) == 1
        assert [r.verdict for r in results] == ["confirmed"] * len(traces)
        assert [r.patched for r in results] == ["refuted"] * len(traces)
        assert len(runs) == 2
        assert runs[0] == self.SOURCE and runs[1] != self.SOURCE

    def test_results_equal_unshared_runs(self, runs):
        from repro.interp import MockDatabase

        report, traces = self.traces()
        shared = replay_counterexamples(
            {"same.php": self.SOURCE}, "same.php", traces, report.grouping
        )
        own = replay_counterexamples(
            {"same.php": self.SOURCE},
            "same.php",
            traces,
            report.grouping,
            database=MockDatabase(),
        )
        assert [r.to_record() for r in shared] == [r.to_record() for r in own]

    def test_a_shared_database_keeps_one_run_per_trace(self, runs):
        from repro.interp import MockDatabase

        report, traces = self.traces()
        results = replay_counterexamples(
            {"same.php": self.SOURCE},
            "same.php",
            traces,
            report.grouping,
            database=MockDatabase(),
        )
        assert all(r.patched == "refuted" for r in results)
        assert runs.count(self.SOURCE) == len(traces)
        assert len(runs) == 2 * len(traces)

    def test_key_order_distinguishes_requests(self, runs, monkeypatch):
        import repro.replay.replayer as replayer
        from repro.replay.replayer import canonical_request, request_identity

        source = "<?php foreach ($_GET as $k => $v) { echo $k; } echo $_GET['a'];\n"
        report = WebSSARI().verify_source(source, filename="order.php")
        traces = report.bmc.all_counterexamples()[:1] * 2
        requests = iter(
            [
                HttpRequest(get={"a": SENTINEL, "b": SENTINEL}),
                HttpRequest(get={"b": SENTINEL, "a": SENTINEL}),
            ]
        )
        monkeypatch.setattr(
            replayer,
            "synthesize_request",
            lambda table, keys, trace: (next(requests), []),
        )
        results = replay_counterexamples({"order.php": source}, "order.php", traces)
        assert results[0].request == results[1].request
        first, second = (
            HttpRequest(get={"a": "1", "b": "2"}),
            HttpRequest(get={"b": "2", "a": "1"}),
        )
        assert canonical_request(first) == canonical_request(second)
        assert request_identity(first) != request_identity(second)
        assert len(runs) == 2
