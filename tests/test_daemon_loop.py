"""The daemon's re-audit loop: dirty-set batching, cache-hit accounting
across cycles, per-cycle streams, crash retry, graceful drain.

Cycles are stepped directly through ``WatchLoop.run_cycle`` with a
``daemonutil.FakeClock`` driving both the watcher clock and every mtime
— fully deterministic, no real sleeps.
"""

import json
import multiprocessing
import os
import threading

import pytest

from daemonutil import FakeClock, TreeDriver
from test_engine import patch_execute

from repro.daemon import WatchLoop
from repro.engine import HotResultCache
from repro.obs import diff_runs, load_audit
from repro.websari.pipeline import WebSSARI

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="crash injection requires the fork start method",
)

VULN = "<?php echo $_GET['q'];\n"
SAFE = "<?php echo 'hello';\n"


def make_loop(tmp_path, *, jobs=1, cache=True, out=True, **kwargs):
    clock = FakeClock()
    driver = TreeDriver(tmp_path / "tree", clock)
    loop = WatchLoop(
        driver.root,
        WebSSARI(),
        cache=HotResultCache(tmp_path / "cache") if cache else None,
        jobs=jobs,
        out_dir=(tmp_path / "cycles") if out else None,
        clock=clock,
        debounce=0.0,
        **kwargs,
    )
    return clock, driver, loop


class TestDirtyBatching:
    def test_only_the_dirty_file_is_reaudited(self, tmp_path):
        """Acceptance: one of N files changes → exactly that file goes
        through the engine; the verdict counters prove nothing else ran."""
        clock, driver, loop = make_loop(tmp_path)
        for i in range(5):
            driver.write(f"f{i}.php", SAFE)
        first = loop.run_cycle()
        assert first.result.stats.total == 5
        assert first.result.stats.cache_misses == 5

        clock.advance(10)
        driver.write("f2.php", VULN)
        second = loop.run_cycle()
        assert second.dirty == [str(driver.path("f2.php"))]
        assert second.result.stats.total == 1
        assert second.result.stats.cache_misses == 1
        assert second.result.stats.cache_hits == 0
        assert second.result.stats.vulnerable == 1

    def test_idle_poll_runs_no_engine_cycle(self, tmp_path):
        _, _driver, loop = make_loop(tmp_path)
        assert loop.run_cycle() is None  # empty tree
        assert loop.cycles == 0 and loop.polls == 1

    def test_touch_without_change_is_a_cache_hit(self, tmp_path):
        clock, driver, loop = make_loop(tmp_path)
        driver.write("a.php", SAFE)
        loop.run_cycle()
        clock.advance(10)
        driver.touch("a.php")
        cycle = loop.run_cycle()
        # Dirty by mtime, but the content-addressed key is unchanged:
        # the cycle costs one cache lookup, zero verifications.
        assert cycle.dirty == [str(driver.path("a.php"))]
        assert cycle.result.stats.cache_hits == 1
        assert cycle.result.stats.cache_misses == 0

    def test_revert_is_served_from_cache(self, tmp_path):
        clock, driver, loop = make_loop(tmp_path)
        driver.write("a.php", SAFE)
        loop.run_cycle()
        clock.advance(10)
        driver.write("a.php", VULN)
        assert loop.run_cycle().result.stats.cache_misses == 1
        clock.advance(10)
        driver.write("a.php", SAFE)  # back to cycle-1 content
        cycle = loop.run_cycle()
        assert cycle.result.stats.cache_hits == 1
        assert cycle.result.stats.cache_misses == 0


class TestHotCacheAccounting:
    def test_hot_layer_answers_repeat_probes_without_disk(self, tmp_path):
        clock, driver, loop = make_loop(tmp_path)
        driver.write("a.php", SAFE)
        loop.run_cycle()
        cache = loop.cache
        assert cache.hot_hits == 0
        clock.advance(10)
        driver.touch("a.php")
        loop.run_cycle()
        assert cache.hot_hits == 1, "put() must prime the in-memory layer"
        assert cache.disk_hits == 0

    def test_fresh_process_warms_from_disk_then_memory(self, tmp_path):
        clock, driver, loop = make_loop(tmp_path)
        driver.write("a.php", SAFE)
        loop.run_cycle()
        # A second daemon sharing the cache directory (restart story).
        loop2 = WatchLoop(
            driver.root,
            WebSSARI(),
            cache=HotResultCache(tmp_path / "cache"),
            out_dir=tmp_path / "cycles2",
            clock=clock,
            debounce=0.0,
        )
        loop2.run_cycle()
        assert loop2.cache.disk_hits == 1 and loop2.cache.hot_hits == 0
        clock.advance(10)
        driver.touch("a.php")
        loop2.run_cycle()
        assert loop2.cache.hot_hits == 1


class TestCycleStreams:
    def test_stream_merges_unchanged_records(self, tmp_path):
        clock, driver, loop = make_loop(tmp_path)
        driver.write("a.php", SAFE)
        driver.write("b.php", SAFE)
        loop.run_cycle()
        clock.advance(10)
        driver.write("a.php", VULN)
        cycle = loop.run_cycle()
        lines = [json.loads(l) for l in cycle.stream_path.read_text().splitlines()]
        files = {l["filename"]: l for l in lines if l["type"] == "file"}
        # Both files present: the dirty one fresh, the other carried over.
        assert set(files) == {str(driver.path("a.php")), str(driver.path("b.php"))}
        assert files[str(driver.path("a.php"))]["safe"] is False
        trailer = lines[-1]
        assert trailer["type"] == "stats"
        assert trailer["cycle"] == 2 and trailer["watched_files"] == 2
        assert "interrupted" not in trailer

    def test_deleted_file_drops_out_of_the_stream(self, tmp_path):
        clock, driver, loop = make_loop(tmp_path)
        driver.write("a.php", SAFE)
        driver.write("b.php", SAFE)
        loop.run_cycle()
        clock.advance(10)
        driver.remove("b.php")
        driver.write("a.php", VULN)
        cycle = loop.run_cycle()
        files = [
            json.loads(l)["filename"]
            for l in cycle.stream_path.read_text().splitlines()
            if json.loads(l)["type"] == "file"
        ]
        assert files == [str(driver.path("a.php"))]

    def test_report_diff_between_any_two_cycles(self, tmp_path):
        clock, driver, loop = make_loop(tmp_path)
        driver.write("a.php", SAFE)
        driver.write("b.php", SAFE)
        first = loop.run_cycle()
        clock.advance(10)
        driver.write("a.php", VULN)
        second = loop.run_cycle()
        diff = diff_runs(load_audit(first.stream_path), load_audit(second.stream_path))
        assert diff.regressed == [str(driver.path("a.php"))]
        assert diff.has_regressions


class TestCrashRetry:
    @needs_fork
    def test_worker_crash_mid_cycle_is_retried_and_isolated(self, tmp_path, monkeypatch):
        crash_marker = tmp_path / "crashed-once"
        import repro.engine.worker as worker_module

        real = worker_module.execute_task

        def flaky(task, websari, want_report=False):
            if not crash_marker.exists():
                crash_marker.write_text("x")
                os._exit(13)
            return real(task, websari, want_report)

        clock, driver, loop = make_loop(tmp_path, jobs=2)
        driver.write("flaky.php", VULN)
        driver.write("ok.php", SAFE)
        patch_execute(monkeypatch, {str(driver.path("flaky.php")): flaky})
        cycle = loop.run_cycle()
        outcomes = {o.filename: o for o in cycle.result.outcomes}
        flaky_outcome = outcomes[str(driver.path("flaky.php"))]
        assert flaky_outcome.status == "ok" and flaky_outcome.attempts == 2
        assert outcomes[str(driver.path("ok.php"))].status == "ok"
        assert cycle.result.stats.retries == 1 and cycle.result.stats.crashes == 0
        assert not cycle.interrupted


class TestGracefulDrain:
    def test_stop_event_drains_cycle_with_interrupted_trailer(self, tmp_path):
        stop = threading.Event()
        clock, driver, loop = make_loop(tmp_path, stop_event=stop)
        driver.write("a.php", SAFE)
        driver.write("b.php", SAFE)
        stop.set()  # signal arrives before dispatch: everything skips
        cycle = loop.run_cycle()
        assert cycle.interrupted
        assert all(o.status == "skipped" for o in cycle.result.outcomes)
        trailer = json.loads(cycle.stream_path.read_text().splitlines()[-1])
        assert trailer["type"] == "stats" and trailer["interrupted"] is True
        assert trailer["other_statuses"] == {"skipped": 2}

    def test_skipped_files_keep_their_last_known_record(self, tmp_path):
        stop = threading.Event()
        clock, driver, loop = make_loop(tmp_path, stop_event=stop)
        driver.write("a.php", SAFE)
        first = loop.run_cycle()
        assert not first.interrupted
        clock.advance(10)
        driver.write("a.php", VULN)
        stop.set()
        cycle = loop.run_cycle()
        files = [
            json.loads(l)
            for l in cycle.stream_path.read_text().splitlines()
            if json.loads(l)["type"] == "file"
        ]
        # The drained cycle must not lose the cycle-1 verdict (nor invent
        # a fresh one for a file that never ran).
        assert len(files) == 1 and files[0]["safe"] is True

    def test_run_forever_exits_zero_once_stopped(self, tmp_path):
        stop = threading.Event()
        _, driver, loop = make_loop(tmp_path, stop_event=stop)
        driver.write("a.php", SAFE)
        stop.set()
        assert loop.run_forever() == 0

    def test_skipped_outcomes_never_enter_the_cache(self, tmp_path):
        stop = threading.Event()
        clock, driver, loop = make_loop(tmp_path, stop_event=stop)
        driver.write("a.php", SAFE)
        stop.set()
        loop.run_cycle()
        assert len(loop.cache) == 0
        # After a restart (fresh event), the file is a genuine miss: the
        # drain left no poisoned "skipped" entry behind.
        loop2 = WatchLoop(
            driver.root,
            WebSSARI(),
            cache=loop.cache,
            out_dir=tmp_path / "cycles2",
            clock=clock,
            debounce=0.0,
        )
        cycle = loop2.run_cycle()
        assert cycle.result.stats.cache_misses == 1
        assert cycle.result.outcomes[0].status == "ok"


class TestIncludeInvalidation:
    """ROADMAP staleness fix: a shared include changes → every tracked
    entry that transitively splices it re-audits, others stay cached."""

    COMMON = "<?php $c = 'shared';\n"
    INCLUDER = "<?php include 'common.php'; echo $c;\n"

    def make_graph_loop(self, tmp_path, **kwargs):
        from repro.php.parsecache import IncludeGraph

        graph = IncludeGraph()
        clock, driver, loop = make_loop(tmp_path, include_graph=graph, **kwargs)
        return clock, driver, loop, graph

    def test_editing_shared_include_reaudits_includers_only(self, tmp_path):
        clock, driver, loop, _graph = self.make_graph_loop(tmp_path)
        driver.write("common.php", self.COMMON)
        driver.write("a.php", self.INCLUDER)
        driver.write("b.php", SAFE)
        first = loop.run_cycle()
        assert first.result.stats.total == 3
        assert first.invalidated == []

        clock.advance(10)
        driver.write("common.php", "<?php $c = $_GET['q'];\n")
        cycle = loop.run_cycle()
        # a.php's bytes did not change, but its spliced program did.
        assert cycle.invalidated == [str(driver.path("a.php"))]
        assert set(cycle.dirty) == {
            str(driver.path("a.php")),
            str(driver.path("common.php")),
        }
        assert cycle.result.stats.total == 2
        assert cycle.result.stats.cache_misses == 2  # closure keys moved
        outcomes = {o.filename: o for o in cycle.result.outcomes}
        assert outcomes[str(driver.path("a.php"))].safe is False
        # b.php never ran, but its record is carried into the stream.
        lines = [json.loads(l) for l in cycle.stream_path.read_text().splitlines()]
        files = {l["filename"] for l in lines if l["type"] == "file"}
        assert str(driver.path("b.php")) in files
        trailer = lines[-1]
        assert trailer["includers_invalidated"] == 1

    def test_invalidation_is_transitive(self, tmp_path):
        clock, driver, loop, _graph = self.make_graph_loop(tmp_path)
        driver.write("deep.php", "<?php $d = 1;\n")
        driver.write("mid.php", "<?php include 'deep.php'; $m = $d;\n")
        driver.write("page.php", "<?php include 'mid.php'; echo 'p';\n")
        loop.run_cycle()
        clock.advance(10)
        driver.write("deep.php", "<?php $d = 2;\n")
        cycle = loop.run_cycle()
        assert cycle.invalidated == [
            str(driver.path("mid.php")),
            str(driver.path("page.php")),
        ]
        assert cycle.result.stats.total == 3

    def test_deleting_shared_include_reaudits_includers(self, tmp_path):
        clock, driver, loop, _graph = self.make_graph_loop(tmp_path)
        driver.write("common.php", self.COMMON)
        driver.write("a.php", self.INCLUDER)
        loop.run_cycle()
        clock.advance(10)
        driver.remove("common.php")
        cycle = loop.run_cycle()
        assert cycle.invalidated == [str(driver.path("a.php"))]
        assert cycle.result.stats.total == 1
        outcome = cycle.result.outcomes[0]
        # The include is now missing: still verifies, with a warning.
        assert outcome.status == "ok"
        assert any("common.php" in w for w in outcome.warnings)

    def test_restarted_loop_rebuilds_the_graph_from_its_first_cycle(self, tmp_path):
        """The graph lives in memory only: a restarted loop re-audits every
        file on its first cycle (its watcher starts empty), which rebuilds
        the graph, and then invalidates the same includers after an edit."""
        from repro.php.parsecache import IncludeGraph

        clock, driver, loop, _graph = self.make_graph_loop(tmp_path)
        driver.write("common.php", self.COMMON)
        driver.write("a.php", self.INCLUDER)
        driver.write("b.php", SAFE)
        loop.run_cycle()

        graph = IncludeGraph()
        restarted = WatchLoop(
            driver.root,
            WebSSARI(),
            cache=loop.cache,
            out_dir=tmp_path / "cycles2",
            clock=clock,
            debounce=0.0,
            include_graph=graph,
        )
        first = restarted.run_cycle()
        assert sorted(first.dirty) == sorted(
            str(driver.path(name)) for name in ("a.php", "b.php", "common.php")
        )
        assert first.result.stats.cache_hits == 3
        assert graph.includes_of("a.php") == {"common.php"}

        clock.advance(10)
        driver.write("common.php", "<?php $c = $_GET['q'];\n")
        cycle = restarted.run_cycle()
        assert cycle.invalidated == [str(driver.path("a.php"))]
        outcomes = {o.filename: o for o in cycle.result.outcomes}
        assert outcomes[str(driver.path("a.php"))].safe is False

    @needs_fork
    def test_crashed_entry_still_enters_the_graph(self, tmp_path, monkeypatch):
        """A killed worker returns no scan; the loop scans that entry
        itself, so editing its include still invalidates it."""
        clock, driver, loop, graph = self.make_graph_loop(tmp_path, jobs=2)
        driver.write("common.php", self.COMMON)
        driver.write("a.php", self.INCLUDER)
        patch_execute(monkeypatch, {str(driver.path("a.php")): lambda *_: os._exit(13)})
        first = loop.run_cycle()
        statuses = {o.filename: o.status for o in first.result.outcomes}
        assert statuses[str(driver.path("a.php"))] == "crash"
        assert graph.includes_of("a.php") == {"common.php"}

        clock.advance(10)
        driver.write("common.php", "<?php $c = $_GET['q'];\n")
        assert loop.run_cycle().invalidated == [str(driver.path("a.php"))]

    def test_without_graph_only_byte_dirty_files_run(self, tmp_path):
        # The pre-graph behaviour (and the ROADMAP staleness bug this PR
        # fixes): no graph attached → includers of a dirty include stay
        # stale rather than re-auditing.
        clock, driver, loop = make_loop(tmp_path)
        driver.write("common.php", self.COMMON)
        driver.write("a.php", self.INCLUDER)
        loop.run_cycle()
        clock.advance(10)
        driver.write("common.php", "<?php $c = $_GET['q'];\n")
        cycle = loop.run_cycle()
        assert cycle.invalidated == []
        assert cycle.dirty == [str(driver.path("common.php"))]

    def test_include_free_files_key_apart_from_the_audit_cache(self, tmp_path):
        # A task without an entry renders spans under the path it was
        # given; the daemon verifies include-free files under their
        # tree-relative name, so its records differ and must not share
        # that task's key.
        from repro.engine import AuditTask, cache_key, execute_task, policy_fingerprint

        clock, driver, loop, _graph = self.make_graph_loop(tmp_path)
        driver.write("a.php", SAFE)
        websari = loop.websari
        source = driver.path("a.php").read_text()
        task = AuditTask(index=0, filename=str(driver.path("a.php")), source=source)
        material, extra = task.cache_material()
        key = cache_key(material, policy_fingerprint(websari), extra)
        loop.cache.put(key, execute_task(task, websari).to_record())
        assert len(loop.cache) == 1
        cycle = loop.run_cycle()
        assert cycle.result.stats.cache_misses == 1
        (outcome,) = cycle.result.outcomes
        assert outcome.filename == str(driver.path("a.php"))

    def test_health_and_metrics_expose_invalidations(self, tmp_path):
        from repro.obs import RunTotals, render_prometheus

        clock, driver, loop, _graph = self.make_graph_loop(tmp_path, metrics=RunTotals())
        driver.write("common.php", self.COMMON)
        driver.write("a.php", self.INCLUDER)
        loop.run_cycle()
        clock.advance(10)
        driver.write("common.php", "<?php $c = 'v2';\n")
        loop.run_cycle()
        assert loop.health()["includers_invalidated"] == 1
        text = render_prometheus(loop.metrics, loop.health())
        assert "repro_watch_includers_invalidated_total 1" in text


class TestMetricsWiring:
    def test_watch_metrics_exposed(self, tmp_path):
        from repro.obs import RunTotals, render_prometheus

        clock, driver, loop = make_loop(tmp_path, metrics=RunTotals())
        driver.write("a.php", VULN)
        loop.run_cycle()
        loop.run_cycle()  # idle
        text = render_prometheus(loop.metrics, loop.health())
        assert 'repro_watch_polls_total{outcome="dirty"} 1' in text
        assert 'repro_watch_polls_total{outcome="idle"} 1' in text
        assert "repro_watch_cycles_total 1" in text
        assert "repro_watch_dirty_files 1" in text
        assert 'repro_files_total{status="ok"} 1' in text

    def test_mid_cycle_scrape_shows_the_cycles_finished_files(self, tmp_path, monkeypatch):
        """A scrape while a cycle runs sees the files it finished, and
        counts the cycle only once its stream is written."""
        import repro.engine.worker as worker_module
        from repro.obs import RunTotals, render_prometheus

        clock, driver, loop = make_loop(tmp_path, metrics=RunTotals())
        driver.write("a.php", VULN)
        driver.write("b.php", VULN)
        scrapes = []
        real = worker_module.execute_task

        def scrape_then_run(task, websari, want_report=False):
            scrapes.append(render_prometheus(loop.metrics, loop.health()))
            return real(task, websari, want_report)

        monkeypatch.setattr(worker_module, "execute_task", scrape_then_run)
        cycle = loop.run_cycle()
        first, second = scrapes
        assert "repro_files_total{" not in first
        assert 'repro_files_total{status="ok"} 1' in second
        assert 'repro_watch_polls_total{outcome="dirty"} 1' in second
        assert "repro_watch_cycles_total 0" in second
        assert cycle.stream_path.exists()
        assert "repro_watch_cycles_total 1" in render_prometheus(loop.metrics, loop.health())
