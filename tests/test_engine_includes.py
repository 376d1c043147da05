"""Engine-path include semantics, closure-scoped cache keys, and entry
tasks scanned where they run.

The include resolver's unit semantics live in ``test_php_includes``;
here the same behaviours are exercised end to end through entry tasks
and the worker pool, plus the properties the closure work added: cache
keys that move only with an entry's true dependency set, and entry
tasks whose pooled verdicts equal the inline ones.
"""

import pytest

from repro.engine import AuditEngine, AuditTask, EngineConfig, EntryTask, ResultCache
from repro.engine.cache import cache_key, policy_fingerprint
from repro.engine.worker import execute_task, project_content_digest
from repro.php import SourceProject, scan_includes
from repro.php.parsecache import ParseCache
from repro.websari.pipeline import WebSSARI

VULN_ENTRY = "<?php include 'lib.php'; echo $tainted;\n"
LIB = "<?php $tainted = $_GET['q'];\n"
SAFE_LIB = "<?php $tainted = 'constant';\n"


def project_task(index, files, entry, **kwargs):
    return AuditTask(
        index=index, filename=entry, project_files=files, entry=entry, **kwargs
    )


def entry(files, name):
    """The engine task for entry ``name`` of the project ``files``."""
    return EntryTask(0, name, name, SourceProject(files))


def run(tasks, *, jobs=1, websari=None, cache=None):
    engine = AuditEngine(
        websari=websari or WebSSARI(),
        config=EngineConfig(jobs=jobs, cache=cache),
    )
    return engine.run(tasks)


class TestEngineIncludeSemantics:
    def test_taint_flows_through_spliced_include(self):
        files = {"index.php": VULN_ENTRY, "lib.php": LIB}
        result = run([entry(files, "index.php")], jobs=2)
        outcome = result.outcomes[0]
        assert outcome.status == "ok" and outcome.safe is False
        assert outcome.includes["edges"] == 1
        assert outcome.includes["included_files"] == 1
        assert outcome.includes["unresolved"] == 0

    def test_include_once_deduplicated_through_workers(self):
        files = {
            "index.php": "<?php include_once 'lib.php'; include_once 'lib.php'; echo $x;\n",
            "lib.php": "<?php $x = 'ok';\n",
        }
        result = run([entry(files, "index.php")], jobs=2)
        outcome = result.outcomes[0]
        assert outcome.status == "ok" and outcome.safe is True
        # Both include_once statements create edges; only one splice.
        assert outcome.includes["edges"] == 2
        assert outcome.includes["included_files"] == 1

    def test_include_cycle_is_a_frontend_error(self):
        files = {
            "a.php": "<?php include 'b.php';\n",
            "b.php": "<?php include 'a.php';\n",
        }
        result = run([entry(files, "a.php")], jobs=2)
        outcome = result.outcomes[0]
        assert outcome.status == "frontend-error"
        assert "cycle" in (outcome.error or "")

    def test_missing_require_is_a_frontend_error(self):
        files = {"index.php": "<?php require 'gone.php';\n"}
        result = run([entry(files, "index.php")], jobs=2)
        assert result.outcomes[0].status == "frontend-error"
        assert "not found" in (result.outcomes[0].error or "")

    def test_missing_include_warns_but_verifies(self):
        files = {"index.php": "<?php include 'gone.php'; echo 'hi';\n"}
        result = run([entry(files, "index.php")], jobs=2)
        outcome = result.outcomes[0]
        assert outcome.status == "ok" and outcome.safe is True
        assert any("gone.php" in w for w in outcome.warnings)

    def test_unresolved_dynamic_count_reaches_the_record(self):
        files = {"index.php": "<?php include $page; echo 'hi';\n"}
        result = run([entry(files, "index.php")])
        outcome = result.outcomes[0]
        assert outcome.includes["unresolved"] == 1
        record = outcome.to_record()
        assert record["includes"]["unresolved"] == 1
        assert result.stats.include_totals.get("unresolved") == 1

    def test_parse_cache_counters_surface_in_project_mode(self):
        websari = WebSSARI(parse_cache=ParseCache())
        files = {"index.php": VULN_ENTRY, "lib.php": SAFE_LIB}
        first = run([entry(files, "index.php")], websari=websari)
        second = run([entry(files, "index.php")], websari=websari)
        # The scan parses both files; the splice then hits on both.
        assert first.outcomes[0].includes["parse_cache_misses"] == 2
        assert first.outcomes[0].includes["parse_cache_hits"] == 2
        assert second.outcomes[0].includes["parse_cache_hits"] == 4
        assert second.outcomes[0].includes["parse_cache_misses"] == 0

    def test_standalone_records_carry_no_cache_counters(self):
        # Byte-determinism contract: a standalone record must not change
        # with cache warmth (the distributed merge comparison diffs
        # records produced by differently-warm processes).
        websari = WebSSARI(parse_cache=ParseCache())
        task = AuditTask(index=0, filename="a.php", source=SAFE_LIB)
        assert execute_task(task, websari).includes == {}
        # Warm: the same record.
        assert execute_task(task, websari).includes == {}


class TestClosureScopedCacheKeys:
    """Editing a file must invalidate exactly the entries that splice it."""

    @staticmethod
    def material(files, entry, edit=None):
        working = dict(files)
        if edit:
            working.update(edit)
        project = SourceProject(working)
        scan = scan_includes(project, entry)
        if scan.widened:
            return project_task(
                0,
                working,
                entry,
                closure_widened=True,
                project_digest=project_content_digest(working),
            ).cache_material()
        closure = {p: working[p] for p in sorted(scan.closure)}
        return project_task(0, closure, entry).cache_material()

    FILES = {
        "a.php": "<?php include 'common.php'; echo $c;\n",
        "b.php": "<?php include 'common.php'; echo 'b';\n",
        "common.php": "<?php $c = 'shared';\n",
        "leaf.php": "<?php echo 'leaf';\n",
    }

    def test_editing_shared_include_moves_only_its_includers(self):
        edit = {"common.php": "<?php $c = 'edited';\n"}
        for entry in ("a.php", "b.php"):
            assert self.material(self.FILES, entry) != self.material(
                self.FILES, entry, edit
            ), f"{entry} splices common.php and must re-key"
        assert self.material(self.FILES, "leaf.php") == self.material(
            self.FILES, "leaf.php", edit
        ), "leaf.php never reads common.php; its key must hold"

    def test_editing_a_leaf_moves_only_that_entry(self):
        edit = {"leaf.php": "<?php echo 'edited';\n"}
        assert self.material(self.FILES, "leaf.php") != self.material(
            self.FILES, "leaf.php", edit
        )
        for entry in ("a.php", "b.php"):
            assert self.material(self.FILES, entry) == self.material(
                self.FILES, entry, edit
            )

    def test_widened_entry_moves_on_any_project_edit(self):
        files = dict(self.FILES)
        files["dyn.php"] = "<?php include $page; echo 'dyn';\n"
        edit = {"leaf.php": "<?php echo 'edited';\n"}
        # A dynamic include could read anything: conservatively re-key on
        # every edit, even to files no static edge reaches.
        assert self.material(files, "dyn.php") != self.material(files, "dyn.php", edit)

    def test_closure_key_survives_cache_roundtrip(self, tmp_path):
        websari = WebSSARI()
        files = {"index.php": VULN_ENTRY, "lib.php": LIB}
        project = SourceProject(files)
        scan = scan_includes(project, "index.php")
        closure = {p: files[p] for p in sorted(scan.closure)}
        task = entry(closure, "index.php")
        cache = ResultCache(tmp_path / "cache")
        first = run([task], websari=websari, cache=cache)
        second = run([task], websari=websari, cache=cache)
        assert first.stats.cache_misses == 1
        assert second.stats.cache_hits == 1
        assert second.outcomes[0].safe is False

    def test_policy_fingerprint_ignores_the_parse_memo(self):
        # The memo is always on and never changes a record.
        assert policy_fingerprint(WebSSARI()) == policy_fingerprint(
            WebSSARI(parse_cache=ParseCache(max_entries=1))
        )


class TestPooledEntries:
    COMMON = "<?php\n" + "".join(
        f"$pad{i} = 'shared prelude text line {i}';\n" for i in range(50)
    ) + "$c = 'shared';\n"

    def entries(self):
        files = {"common.php": self.COMMON}
        for i in range(6):
            files[f"page{i}.php"] = "<?php include 'common.php'; echo $c;\n"
        project = SourceProject(files)
        return [EntryTask(i, f"page{i}.php", f"page{i}.php", project) for i in range(6)]

    def test_shared_include_entries_match_inline(self):
        tasks = self.entries()
        pooled = run(tasks, jobs=2)
        inline = run(tasks, jobs=1)
        assert [o.safe for o in pooled.outcomes] == [o.safe for o in inline.outcomes]
        assert [o.summary for o in pooled.outcomes] == [
            o.summary for o in inline.outcomes
        ]
        assert all(o.status == "ok" for o in pooled.outcomes)

    def test_each_worker_parses_each_file_once(self):
        # 7 distinct files: inline parses each once, and each of the two
        # workers at most once more.
        def misses(result):
            return sum(o.includes["parse_cache_misses"] for o in result.outcomes)

        tasks = self.entries()
        assert misses(run(tasks, jobs=1)) == 7
        assert misses(run(tasks, jobs=2)) <= 2 * 7

    def test_scan_is_the_first_stage(self):
        result = run(self.entries()[:1])
        outcome = result.outcomes[0]
        assert list(outcome.timings)[0] == "scan"
        assert result.stats.stage_seconds["scan"] >= 0.0
        assert outcome.scan.includes_by_file == {"page0.php": {"common.php"}, "common.php": set()}
        assert "scan" not in outcome.to_record()

    def test_entry_keys_equal_the_shaped_task_keys(self, tmp_path):
        """The key an entry derives where it runs is the key of its
        closure-shaped task, so inline and pooled runs serve each
        other's records."""
        cache = ResultCache(tmp_path / "cache")
        websari = WebSSARI()
        tasks = self.entries()[:2]
        project = tasks[0].project
        keys = []
        for task in tasks:
            scan = scan_includes(project, task.entry)
            closure = {p: project.source(p) for p in sorted(scan.closure)}
            material, extra = project_task(task.index, closure, task.entry).cache_material()
            keys.append(cache_key(material, policy_fingerprint(websari), extra))
        first = run(tasks, websari=websari, cache=cache)
        second = run(tasks, jobs=2, websari=websari, cache=cache)
        assert [o.cache_key for o in first.outcomes] == keys
        assert [o.cache_key for o in second.outcomes] == keys
        assert second.stats.cache_hits == 2
        # A hit carries this run's scan, and only that.
        assert all(set(o.timings) == {"scan"} for o in second.outcomes)
        assert set(second.stats.stage_seconds) == {"scan"}

    def test_missing_entry_is_unreadable(self):
        project = SourceProject({"a.php": "<?php echo 'a';\n"})
        result = run([EntryTask(0, "gone.php", "gone.php", project)], jobs=2)
        outcome = result.outcomes[0]
        assert outcome.status == "unreadable"
        assert "gone.php" in outcome.error
        assert result.stats.failed == 1

