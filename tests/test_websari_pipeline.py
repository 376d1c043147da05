"""Integration tests for the end-to-end WebSSARI pipeline."""

from dataclasses import replace

import pytest

import repro.engine.worker as worker_module
from repro import WebSSARI
from repro.corpus import FIGURE_10
from repro.corpus.generator import generate_catalog_project
from repro.engine import AuditEngine
from repro.engine.worker import entry_task, execute_task, project_content_digest
from repro.instrument import GUARD_FUNCTION_NAME
from repro.interp import HttpRequest, MockDatabase, run_php
from repro.php import SourceProject, scan_includes
from repro.php.parsecache import ParseCache
from repro.websari import count_statements
from repro.php.parser import parse


@pytest.fixture(scope="module")
def websari():
    return WebSSARI()


FIGURE7 = """<?php
$sid = $_GET['sid']; if (!$sid) {$sid = $_POST['sid'];}
$iq = "SELECT * FROM groups WHERE sid=$sid"; DoSQL($iq);
$i2q = "SELECT * FROM ans WHERE sid=$sid"; DoSQL($i2q);
$fnq = "SELECT * FROM questions WHERE sid='$sid'"; DoSQL($fnq);
"""


class TestVerifySource:
    def test_safe_code(self, websari):
        report = websari.verify_source("<?php echo 'hello';")
        assert report.safe
        assert report.ts_error_count == 0
        assert report.bmc_group_count == 0

    def test_vulnerable_code(self, websari):
        report = websari.verify_source("<?php echo $_GET['q'];")
        assert not report.safe
        assert report.ts_error_count == 1
        assert report.bmc_group_count == 1

    def test_figure7_headline(self, websari):
        report = websari.verify_source(FIGURE7)
        assert report.ts_error_count == 3
        assert report.bmc_group_count == 1
        assert report.grouping.fixing_set == {"sid"}

    def test_bmc_never_exceeds_ts(self, websari):
        # Grouping can only merge symptoms, never invent new ones.
        sources = [
            "<?php $a = $_GET['a']; echo $a; echo $a;",
            FIGURE7,
            "<?php echo $_GET['x']; echo $_POST['y'];",
        ]
        for source in sources:
            report = websari.verify_source(source)
            assert report.bmc_group_count <= report.ts_error_count

    def test_summary_renders(self, websari):
        report = websari.verify_source(FIGURE7)
        text = report.summary()
        assert "VULNERABLE" in text
        assert "TS-reported errors: 3" in text
        assert "BMC-reported error groups: 1" in text

    def test_detailed_report_renders(self, websari):
        report = websari.verify_source(FIGURE7)
        text = report.detailed_report()
        assert "GROUP $sid" in text
        assert "counterexample" in text
        assert "FIX: sanitize $sid" in text

    def test_detailed_report_safe(self, websari):
        report = websari.verify_source("<?php echo 'x';")
        assert "no counterexamples" in report.detailed_report()

    def test_statement_count(self):
        program = parse("<?php $a = 1; if ($c) { $b = 2; } while ($d) { $e = 3; }")
        assert count_statements(program) == 5

    def test_parses_through_attached_cache(self):
        cache = ParseCache()
        websari = WebSSARI(parse_cache=cache)
        first = websari.verify_source(FIGURE7, "f.php")
        assert (cache.hits, cache.misses) == (0, 1)
        second = websari.verify_source(FIGURE7, "f.php")
        assert (cache.hits, cache.misses) == (1, 1)
        # Equal up to solver timings, which no two runs share.
        assert replace(first, bmc=None) == replace(second, bmc=None)
        assert first.bmc.assertions == second.bmc.assertions
        assert first.detailed_report() == second.detailed_report()


class TestPatching:
    def test_bmc_patch_is_verified_safe(self, websari):
        report, patched = websari.patch_source(FIGURE7, strategy="bmc")
        assert patched.num_guards == 1
        assert GUARD_FUNCTION_NAME in patched.source
        re_report = websari.verify_source(patched.source)
        assert re_report.safe

    def test_ts_patch_is_verified_safe(self, websari):
        report, patched = websari.patch_source(FIGURE7, strategy="ts")
        assert patched.num_guards == 3
        re_report = websari.verify_source(patched.source)
        assert re_report.safe

    def test_bmc_patch_fewer_guards_than_ts(self, websari):
        _, bmc_patch = websari.patch_source(FIGURE7, strategy="bmc")
        _, ts_patch = websari.patch_source(FIGURE7, strategy="ts")
        assert bmc_patch.num_guards < ts_patch.num_guards

    def test_unknown_strategy_rejected(self, websari):
        with pytest.raises(ValueError):
            websari.patch_source(FIGURE7, strategy="magic")

    def test_patched_code_runs_and_blocks_injection(self, websari):
        source = """<?php
$ref = $HTTP_REFERER;
$sql = "INSERT INTO track_temp VALUES('$ref')";
mysql_query($sql);
"""
        _, patched = websari.patch_source(source, strategy="bmc")
        db = MockDatabase()
        db.create_table("users", [{"name": "a"}])
        db.create_table("track_temp", [])
        request = HttpRequest(referer="');DROP TABLE ('users")
        run_php(patched.source, request=request, database=db)
        assert db.dropped_tables == []

    def test_unpatched_code_allows_injection(self):
        source = """<?php
$ref = $HTTP_REFERER;
$sql = "INSERT INTO track_temp VALUES('$ref')";
mysql_query($sql);
"""
        db = MockDatabase()
        db.create_table("users", [{"name": "a"}])
        db.create_table("track_temp", [])
        request = HttpRequest(referer="');DROP TABLE ('users")
        run_php(source, request=request, database=db)
        assert "users" in db.dropped_tables

    def test_patch_preserves_benign_behaviour(self, websari):
        source = """<?php
$name = $_GET['name'];
echo "Hello, $name!";
"""
        _, patched = websari.patch_source(source, strategy="bmc")
        env = run_php(patched.source, request=HttpRequest(get={"name": "alice"}))
        assert "Hello, alice!" in env.response_body()

    def test_patch_neutralizes_xss(self, websari):
        source = """<?php
$name = $_GET['name'];
echo "Hello, $name!";
"""
        _, patched = websari.patch_source(source, strategy="bmc")
        request = HttpRequest(get={"name": "<script>evil()</script>"})
        env = run_php(patched.source, request=request)
        assert "<script>" not in env.response_body()


class TestVerifyProject:
    def test_multi_file_project(self, websari):
        project = SourceProject(
            {
                "index.php": "<?php include 'lib.php'; echo $config;",
                "lib.php": "<?php $config = 'static';",
                "vuln.php": "<?php echo $_GET['x'];",
            }
        )
        report = websari.verify_project(project)
        assert report.num_files == 3
        assert report.num_vulnerable_files == 1
        assert report.ts_error_count == 1

    def test_taint_flows_through_include(self, websari):
        project = SourceProject(
            {
                "index.php": "<?php include 'input.php'; echo $q;",
                "input.php": "<?php $q = $_GET['q'];",
            }
        )
        report = websari.verify_project(project, entries=["index.php"])
        assert report.num_vulnerable_files == 1

    def test_entries_restriction(self, websari):
        project = SourceProject(
            {
                "a.php": "<?php echo $_GET['x'];",
                "b.php": "<?php echo 'safe';",
            }
        )
        report = websari.verify_project(project, entries=["b.php"])
        assert report.safe
        assert len(report.reports) == 1

    def test_aggregate_counts(self, websari):
        project = SourceProject(
            {
                "one.php": "<?php $s = $_GET['s']; DoSQL($s); DoSQL($s);",
                "two.php": "<?php echo $_COOKIE['c'];",
            }
        )
        report = websari.verify_project(project)
        assert report.ts_error_count == 3
        assert report.bmc_group_count == 2
        assert report.num_statements > 0

    def test_top_level_import(self):
        import repro

        assert repro.WebSSARI is WebSSARI


class TestPatchProject:
    def test_patch_project_round_trip(self, websari):
        project = SourceProject(
            {
                "safe.php": "<?php echo 'ok';",
                "vuln.php": "<?php $sid = $_GET['s']; DoSQL($sid); DoSQL($sid);",
            }
        )
        report, patched_project, results = websari.patch_project(project)
        assert not report.safe
        assert set(results) == {"vuln.php"}
        assert results["vuln.php"].num_guards == 1
        # Safe file untouched.
        assert patched_project.source("safe.php") == project.source("safe.php")
        # Re-verification of the patched project is clean.
        re_report = websari.verify_project(patched_project)
        assert re_report.safe

    def test_patch_project_ts_strategy(self, websari):
        project = SourceProject({"v.php": "<?php echo $_GET['a']; echo $_GET['b'];"})
        report, patched_project, results = websari.patch_project(project, strategy="ts")
        assert results["v.php"].num_guards == 2
        assert websari.verify_project(patched_project).safe

    def test_patch_project_on_generated_corpus_project(self, websari):
        from repro.corpus import ProjectSpec, generate_project

        generated = generate_project(
            ProjectSpec(name="ppatch", ts_errors=7, bmc_groups=3, target_files=3)
        )
        report, patched_project, results = websari.patch_project(generated.project)
        assert sum(r.num_guards for r in results.values()) == 3
        assert websari.verify_project(patched_project).safe

    def test_patch_project_unknown_strategy(self, websari):
        project = SourceProject({"v.php": "<?php echo $_GET['a'];"})
        with pytest.raises(ValueError):
            websari.patch_project(project, strategy="nope")


def entry_tasks(project, whole=None):
    """Tasks for every entry of ``project`` through the shared builder."""
    whole = {} if whole is None else whole
    return [
        entry_task(i, path, project, scan_includes(project, path), whole)
        for i, path in enumerate(project.paths())
    ]


class TestOnePipeline:
    """The engine worker and ``verify_project`` run one stage sequence."""

    def test_worker_matches_sequential_verify_project(self):
        project = generate_catalog_project(FIGURE_10[0], seed=2004).project
        websari = WebSSARI()
        sequential = {r.filename: r for r in websari.verify_project(project).reports}
        tasks = entry_tasks(project)
        # The corpus exercises both bounded shapes.
        assert {t.source is not None for t in tasks} == {True, False}
        for task in tasks:
            outcome = execute_task(task, websari, want_report=True)
            report = sequential[task.filename]
            assert outcome.status == "ok", outcome.error
            assert outcome.summary == report.summary()
            assert outcome.detailed == report.detailed_report()
            assert outcome.warnings == report.warnings
            assert outcome.num_statements == report.num_statements
            assert outcome.ts_errors == report.ts_error_count
            assert outcome.bmc_groups == report.bmc_group_count


class TestParseOnce:
    def test_sequential_verify_project_parses_each_file_once(self, monkeypatch):
        import repro.php.parser as parser_module

        parsed = []
        real = parser_module.tokenize

        def counting(source, filename="<string>"):
            parsed.append((source, filename))
            return real(source, filename)

        monkeypatch.setattr(parser_module, "tokenize", counting)
        project = generate_catalog_project(FIGURE_10[0], seed=2004).project
        WebSSARI().verify_project(project)
        assert sorted(parsed) == sorted((project.source(p), p) for p in project.paths())


LIB = "<?php $x = $_GET['q'];\n"


class TestEntryTask:
    @pytest.mark.parametrize(
        "files, shape",
        [
            ({"a.php": "<?php echo 'x';\n", "lib.php": LIB}, "standalone"),
            ({"a.php": "<?php if (\n", "lib.php": LIB}, "standalone"),
            ({"a.php": "<?php include 'lib.php'; echo $x;\n", "lib.php": LIB}, "closure"),
            ({"a.php": "<?php include 'nope.php'; echo 1;\n", "lib.php": LIB}, "closure"),
            ({"a.php": "<?php include_once 'a.php'; echo 1;\n", "lib.php": LIB}, "closure"),
            ({"a.php": "<?php include $page; echo 1;\n", "lib.php": LIB}, "widened"),
            ({"a.php": "<?php include 'bad.php';\n", "bad.php": "<?php if (\n"}, "widened"),
        ],
        ids=["plain", "unparsable", "include", "missing", "self", "dynamic", "bad-member"],
    )
    def test_shapes(self, files, shape):
        project = SourceProject(files)
        task = entry_task(3, "shown/a.php", project, scan_includes(project, "a.php"), {})
        assert (task.index, task.filename) == (3, "shown/a.php")
        if shape == "standalone":
            assert task.source == files["a.php"]
            # Parsed under the scanned name, not the shown filename.
            assert task.project_files is None and task.entry == "a.php"
        elif shape == "closure":
            assert task.source is None and task.entry == "a.php"
            scan = scan_includes(project, "a.php")
            assert task.project_files == {p: files[p] for p in scan.closure}
            assert not task.closure_widened and task.project_digest is None
        else:
            assert task.project_files == files and task.entry == "a.php"
            assert task.closure_widened
            assert task.project_digest == project_content_digest(files)

    def test_widened_digest_computed_once_per_run(self, monkeypatch):
        calls = []

        def counting(files):
            calls.append(files)
            return project_content_digest(files)

        monkeypatch.setattr(worker_module, "project_content_digest", counting)
        files = {f"dyn{i}.php": f"<?php include $p{i};\n" for i in range(3)}
        files["lib.php"] = LIB
        tasks = entry_tasks(SourceProject(files))
        widened = [t for t in tasks if t.closure_widened]
        assert len(widened) == 3 and len(calls) == 1
        assert {t.project_digest for t in widened} == {project_content_digest(files)}

    def test_verify_project_and_watch_loop_build_identical_tasks(
        self, tmp_path, monkeypatch
    ):
        from daemonutil import FakeClock, TreeDriver

        from repro.daemon import WatchLoop

        project = generate_catalog_project(FIGURE_10[0], seed=2004).project
        files = {path: project.source(path) for path in project.paths()}
        files["dyn0.php"] = "<?php include $page; echo 'a';\n"
        files["dyn1.php"] = "<?php include $page; echo 'b';\n"
        captured = []
        real_run = AuditEngine.run

        def capture(engine, tasks):
            captured.append(list(tasks))
            return real_run(engine, tasks)

        monkeypatch.setattr(AuditEngine, "run", capture)
        WebSSARI().verify_project(SourceProject(files), jobs=2)

        clock = FakeClock()
        driver = TreeDriver(tmp_path / "tree", clock)
        for path, text in files.items():
            driver.write(path, text)
        loop = WatchLoop(driver.root, WebSSARI(), clock=clock, debounce=0.0)
        loop.run_cycle()

        # Both name the same entries; the process that runs each shapes
        # it by one rule, so the shaped tasks are identical too.
        def shaped(tasks, name):
            whole = {}
            return [
                entry_task(t.index, name(t.filename), t.project,
                           scan_includes(t.project, t.entry), whole)
                for t in tasks
            ]

        pooled, watched = captured
        assert [t.entry for t in pooled] == [t.entry for t in watched]
        pooled = shaped(pooled, str)
        assert pooled == shaped(watched, loop._rel)
        shapes = {(t.source is not None, t.closure_widened) for t in pooled}
        assert shapes == {(True, False), (False, False), (False, True)}
