"""Entry tasks scan where they verify.

``repro audit``, ``repro watch`` and ``verify_project`` hand the engine
:class:`~repro.engine.EntryTask` objects that name only a project and an
entry; the process that runs one scans its include closure, shapes and
keys it, probes the cache and verifies.  So ``--jobs 1``, fork ``--jobs
2`` and spawn ``--jobs 2`` reach the same records apart from telemetry,
a pooled run parses each file at most once per worker, and read failures
surface from whichever process scans.
"""

import contextlib
import io
import json
import multiprocessing
from pathlib import Path

import pytest

from daemonutil import FakeClock, TreeDriver

from repro.cli import main
from repro.daemon import WatchLoop
from repro.engine import HotResultCache
from repro.engine.sharding import assign_shard
from repro.websari.pipeline import WebSSARI

ROOT = Path(__file__).resolve().parent.parent

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs the fork start method",
)


def verdict(record):
    """(status, safe, ts_errors, bmc_groups, replay): a record minus telemetry."""
    return (record["status"], record["safe"], record["ts_errors"],
            record["bmc_groups"], json.dumps(record["replay"], sort_keys=True))


def audit_stream(stream, *argv):
    """``repro audit`` in-process; returns (exit code, file records, trailer)."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["audit", *map(str, argv), "--quiet", "--jsonl", str(stream)])
    records = [json.loads(line) for line in Path(stream).read_text().splitlines()]
    return code, [r for r in records if r["type"] == "file"], records[-1]


@pytest.fixture(scope="module")
def fig10_trees(tmp_path_factory):
    from repro.corpus import FIGURE_10, generate_catalog_project

    root = tmp_path_factory.mktemp("fig10-trees")
    trees = []
    for index, entry in enumerate(FIGURE_10):
        project = generate_catalog_project(entry, seed=2004).project
        tree = root / f"p{index:02d}"
        for path in project.paths():
            (tree / path).parent.mkdir(parents=True, exist_ok=True)
            (tree / path).write_text(project.source(path))
        trees.append(tree)
    return trees


@pytest.fixture(scope="module")
def fig10_runs(fig10_trees, tmp_path_factory):
    """The 38 trees audited with replay on at --jobs 1, fork and spawn
    --jobs 2, each into a fresh cache dir."""
    work = tmp_path_factory.mktemp("fig10-runs")
    methods = {"inline": ("--jobs", "1")}
    for method in ("fork", "spawn"):
        if method in multiprocessing.get_all_start_methods():
            methods[method] = ("--jobs", "2", "--start-method", method)
    runs = {}
    for name, options in methods.items():
        runs[name] = audit_stream(
            work / f"{name}.jsonl", *fig10_trees, *options, "--replay", "on",
            "--cache-dir", work / f"cache-{name}",
        )
    return runs


class TestStartMethodParity:
    def test_figure10_records_match_across_jobs_and_start_methods(self, fig10_runs):
        inline_code, inline, inline_stats = fig10_runs["inline"]
        assert inline_code == 1
        assert sum(r["ts_errors"] for r in inline) == 969
        assert sum(r["bmc_groups"] for r in inline) == 578
        replay = inline_stats["replay"]
        assert (replay["confirmed"], replay["patched_refuted"], replay["skipped"],
                replay["unsupported"]) == (998, 998, 44, 1)
        expected = {r["filename"]: verdict(r) for r in inline}
        for name, (code, files, stats) in fig10_runs.items():
            assert code == 1, name
            assert {r["filename"]: verdict(r) for r in files} == expected, name
            assert stats["replay"] == replay, name

    def test_pooled_runs_parse_each_file_at_most_once_per_worker(self, fig10_runs):
        inline = fig10_runs["inline"][2]["includes"]["parse_cache_misses"]
        assert inline > 0
        for name, (_code, _files, stats) in fig10_runs.items():
            assert stats["includes"]["parse_cache_misses"] <= 2 * inline, name
            # The scan is a stage of every record's pipeline.
            assert "scan" in stats["stage_seconds"], name

    @pytest.mark.parametrize("options", [
        pytest.param(("--jobs", "2", "--start-method", "fork"), marks=needs_fork),
        ("--jobs", "2", "--start-method", "spawn"),
    ], ids=["fork", "spawn"])
    def test_examples_match_the_inline_records(self, options, tmp_path):
        examples = ROOT / "examples"
        _code, inline, _ = audit_stream(tmp_path / "inline.jsonl", examples, "--jobs", "1",
                                        "--replay", "on", "--no-cache")
        _code, files, _ = audit_stream(tmp_path / "run.jsonl", examples, *options,
                                       "--replay", "on", "--no-cache")
        assert {r["filename"]: verdict(r) for r in files} == {
            r["filename"]: verdict(r) for r in inline
        }
        assert any(r["safe"] is False for r in files)


class TestReadFailures:
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_unreadable_audit_entry_prints_path_and_error(self, jobs, tmp_path, capsys):
        (tmp_path / "safe.php").write_text("<?php echo 'hello';\n")
        missing = tmp_path / "nope.php"
        code = main(["audit", str(tmp_path / "safe.php"), str(missing), "--jobs", jobs,
                     "--no-cache", "--quiet"])
        err = capsys.readouterr().err
        assert code == 2
        line = f"{missing}: [Errno 2] No such file or directory: '{missing}'"
        assert line in err.splitlines()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_file_deleted_between_poll_and_scan_is_skipped(self, jobs, tmp_path):
        clock = FakeClock()
        driver = TreeDriver(tmp_path / "tree", clock)
        stream = io.StringIO()
        loop = WatchLoop(
            driver.root, WebSSARI(), cache=HotResultCache(tmp_path / "cache"),
            jobs=jobs, out_dir=tmp_path / "cycles", clock=clock, debounce=0.0,
            quiet=False, stream=stream,
        )
        driver.write("a.php", "<?php echo 'a';\n")
        driver.write("b.php", "<?php echo 'b';\n")
        loop.run_cycle()

        clock.advance(10)
        driver.write("a.php", "<?php echo $_GET['q'];\n")
        poll = loop.watcher.poll

        def poll_then_delete():
            delta = poll()
            driver.remove("a.php")
            return delta

        loop.watcher.poll = poll_then_delete
        cycle = loop.run_cycle()
        gone = str(driver.path("a.php"))
        assert [o.status for o in cycle.result.outcomes] == ["unreadable"]
        assert gone not in loop._records
        records = [json.loads(line) for line in cycle.stream_path.read_text().splitlines()]
        assert [r["filename"] for r in records if r["type"] == "file"] == [
            str(driver.path("b.php"))
        ]
        assert f"watch: {gone}: " in stream.getvalue()
        assert "(skipping this cycle)" in stream.getvalue()


class TestShards:
    @pytest.mark.parametrize("count", [2, 3])
    def test_shards_assign_entries_by_their_source(self, count, fig10_trees, tmp_path):
        tree = fig10_trees[14]
        for index in range(1, count + 1):
            _code, files, _ = audit_stream(
                tmp_path / f"shard{index}.jsonl", tree, "--shard", f"{index}/{count}",
                "--no-cache",
            )
            expected = {
                str(path) for path in tree.rglob("*.php")
                if assign_shard(path.read_text(), count) == index - 1
            }
            assert {r["filename"] for r in files} == expected
