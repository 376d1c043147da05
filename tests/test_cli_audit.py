"""Tests for the ``repro audit`` subcommand and the verify/audit
exit-code contract (0 safe / 1 vulnerable wins / 2 errors only)."""

import contextlib
import io
import json
import os

import pytest

from repro.cli import _collect_entries, _tree_project, main

VULN = "<?php echo $_GET['q'];\n"
SAFE = "<?php echo 'hello';\n"
BROKEN = "<?php if (\n"


@pytest.fixture
def corpus(tmp_path):
    root = tmp_path / "corpus"
    (root / "sub").mkdir(parents=True)
    (root / "vuln.php").write_text(VULN)
    (root / "safe.php").write_text(SAFE)
    (root / "sub" / "inner.php").write_text(SAFE)
    return root


def audit(*argv):
    return main(["audit", *map(str, argv)])


def _collect_php_files(paths):
    """The PHP files of ``_collect_entries``, without their roots."""
    return [path for path, _root in _collect_entries(paths)]


class TestCollectPhpFiles:
    def test_directory_plus_member_deduplicates(self, corpus):
        files = _collect_php_files([corpus, corpus / "vuln.php"])
        names = [f.name for f in files]
        assert names.count("vuln.php") == 1
        assert len(files) == 3

    def test_symlinked_duplicate_deduplicates(self, corpus, tmp_path):
        link = tmp_path / "link.php"
        link.symlink_to(corpus / "vuln.php")
        files = _collect_php_files([corpus / "vuln.php", link])
        assert len(files) == 1

    def test_dangling_symlink_skipped_with_warning(self, corpus, capsys):
        (corpus / "dangling.php").symlink_to(corpus / "missing.php")
        files = _collect_php_files([corpus])
        assert all(f.name != "dangling.php" for f in files)
        assert "skipping" in capsys.readouterr().err

    def test_explicit_file_kept_even_if_missing(self, tmp_path):
        missing = tmp_path / "nope.php"
        assert _collect_php_files([missing]) == [missing]



class TestCollectEntries:
    """Each directory argument is the project root of the files under it;
    a file argument's root is its parent directory."""

    def test_directory_is_the_root_of_nested_files(self, corpus):
        entries = _collect_entries([corpus])
        assert entries == [
            (corpus / "safe.php", corpus),
            (corpus / "sub" / "inner.php", corpus),
            (corpus / "vuln.php", corpus),
        ]

    def test_file_root_is_its_parent(self, corpus):
        assert _collect_entries([corpus / "sub" / "inner.php"]) == [
            (corpus / "sub" / "inner.php", corpus / "sub")
        ]

    def test_directory_then_member_keeps_the_directory_root(self, corpus):
        entries = _collect_entries([corpus, corpus / "sub" / "inner.php"])
        assert (corpus / "sub" / "inner.php", corpus) in entries
        assert len(entries) == 3

    def test_member_then_directory_keeps_the_parent_root(self, corpus):
        entries = _collect_entries([corpus / "sub" / "inner.php", corpus])
        assert entries[0] == (corpus / "sub" / "inner.php", corpus / "sub")
        assert [path for path, _root in entries].count(corpus / "sub" / "inner.php") == 1
        assert len(entries) == 3

    def test_nested_directory_arguments_first_one_wins(self, corpus):
        outer_first = dict(_collect_entries([corpus, corpus / "sub"]))
        inner_first = dict(_collect_entries([corpus / "sub", corpus]))
        assert outer_first[corpus / "sub" / "inner.php"] == corpus
        assert inner_first[corpus / "sub" / "inner.php"] == corpus / "sub"
        assert inner_first[corpus / "vuln.php"] == corpus

    def test_non_php_files_only_when_named(self, corpus):
        (corpus / "notes.txt").write_text("not php")
        (corpus / "page.inc").write_text(SAFE)
        walked = [path.name for path, _root in _collect_entries([corpus])]
        assert "notes.txt" not in walked and "page.inc" not in walked
        assert _collect_entries([corpus / "page.inc"]) == [(corpus / "page.inc", corpus)]


class TestTreeProjectFromRoot:
    def test_maps_every_php_file_relative_to_the_root(self, corpus):
        project = _tree_project(corpus, [corpus / "vuln.php"])
        assert project.paths() == ["safe.php", "sub/inner.php", "vuln.php"]
        assert project.source("sub/inner.php") == SAFE

    def test_named_entries_join_whatever_their_suffix(self, corpus):
        (corpus / "page.inc").write_text(VULN)
        project = _tree_project(corpus, [corpus / "page.inc"])
        assert project.has("page.inc")
        assert project.source("page.inc") == VULN

class TestAuditExitCodes:
    def test_all_safe_exit_zero(self, corpus):
        (corpus / "vuln.php").unlink()
        assert audit(corpus, "--no-cache") == 0

    def test_vulnerable_exit_one(self, corpus):
        assert audit(corpus, "--no-cache") == 1

    def test_error_only_exit_two(self, tmp_path):
        (tmp_path / "broken.php").write_text(BROKEN)
        assert audit(tmp_path, "--no-cache") == 2

    def test_vulnerability_beats_error(self, corpus):
        (corpus / "broken.php").write_text(BROKEN)
        assert audit(corpus, "--no-cache") == 1

    def test_empty_exit_two(self, tmp_path):
        assert audit(tmp_path) == 2

    def test_missing_explicit_file_exit_two(self, tmp_path, capsys):
        (tmp_path / "safe.php").write_text(SAFE)
        code = audit(tmp_path / "safe.php", tmp_path / "nope.php", "--no-cache")
        assert code == 2
        assert "nope.php" in capsys.readouterr().err


class TestAuditOutput:
    def test_reports_and_stats_printed(self, corpus, capsys):
        audit(corpus, "--no-cache")
        out = capsys.readouterr().out
        assert "vuln.php" in out and "VULNERABLE" in out
        assert "safe.php" in out and "SAFE" in out
        assert "audited 3/3" in out
        assert "cache:" in out

    def test_quiet_suppresses_reports(self, corpus, capsys):
        audit(corpus, "--no-cache", "--quiet")
        out = capsys.readouterr().out
        assert "VULNERABLE" not in out
        assert "audited 3/3" in out

    def test_detailed_prints_counterexample(self, corpus, capsys):
        audit(corpus, "--no-cache", "--detailed")
        assert "counterexample" in capsys.readouterr().out

    def test_frontend_error_on_stderr(self, tmp_path, capsys):
        (tmp_path / "broken.php").write_text(BROKEN)
        audit(tmp_path, "--no-cache")
        captured = capsys.readouterr()
        assert "frontend-error" in captured.err


class TestAuditCache:
    def test_second_invocation_hits_cache(self, corpus, tmp_path, capsys):
        cache_dir = tmp_path / "cachedir"
        assert audit(corpus, "--cache-dir", cache_dir) == 1
        first = capsys.readouterr().out
        assert audit(corpus, "--cache-dir", cache_dir) == 1
        second = capsys.readouterr().out
        assert "3 hit(s)" in second and "0 miss(es)" in second
        # Byte-identical per-file verdict text between cold and warm runs.
        strip = lambda out: [l for l in out.splitlines() if not l.startswith(("audited", "cache:", "stage time:", "solver:", "sat-cache:", "slowest sat query:"))]
        assert strip(first) == strip(second)

    def test_no_cache_flag(self, corpus, tmp_path, capsys):
        cache_dir = tmp_path / "cachedir"
        audit(corpus, "--cache-dir", cache_dir)
        capsys.readouterr()
        audit(corpus, "--cache-dir", cache_dir, "--no-cache")
        assert "0 hit(s)" in capsys.readouterr().out

    def test_edited_file_is_reaudited(self, corpus, tmp_path, capsys):
        cache_dir = tmp_path / "cachedir"
        audit(corpus, "--cache-dir", cache_dir)
        capsys.readouterr()
        (corpus / "safe.php").write_text(VULN)
        audit(corpus, "--cache-dir", cache_dir)
        assert "2 hit(s)" in capsys.readouterr().out

    def test_unwritable_cache_leaves_the_run_uncached(self, corpus, tmp_path):
        # ``objects`` as a regular file cannot take a shard directory: the
        # audit must finish every file uncached, not abort mid-run.
        cache_dir = tmp_path / "cachedir"
        cache_dir.mkdir()
        (cache_dir / "objects").write_text("not a directory\n")

        def records(*options):
            stream = tmp_path / f"run{len(list(tmp_path.glob('run*.jsonl')))}.jsonl"
            code = audit(corpus, "--quiet", "--jsonl", stream, *options)
            lines = [json.loads(line) for line in stream.read_text().splitlines()]
            return code, [r for r in lines if r["type"] == "file"], lines[-1]

        code, files, trailer = records("--cache-dir", cache_dir)
        uncached_code, uncached_files, _ = records("--no-cache")
        assert code == uncached_code == 1
        assert len(files) == len(uncached_files) == 3
        assert all(r["status"] == "ok" and not r["cached"] for r in files)
        assert trailer["completed"] == 3 and "interrupted" not in trailer


class TestAuditSatPacks:
    def test_cold_writes_a_pack_per_file_at_most_and_warm_writes_none(self, corpus, tmp_path):
        cache_dir = tmp_path / "cachedir"

        def run(tag):
            out = tmp_path / f"{tag}.jsonl"
            audit(corpus, "--cache-dir", cache_dir, "--no-cache", "--sat-cache", "on",
                  "--jobs", "1", "--jsonl", out, "--quiet")
            return json.loads(out.read_text().splitlines()[-1])

        def packs():
            return sorted(
                (path, path.stat().st_ino, path.stat().st_mtime_ns)
                for path in (cache_dir / "sat").rglob("*.json")
            )

        cold = run("cold")
        written = packs()
        assert 0 < len(written) <= cold["completed"] == 3
        assert cold["solver"]["cache_misses"] > 0

        warm = run("warm")
        assert warm["solver"]["cache_misses"] == 0
        assert warm["solver"]["cache_hits"] > 0
        assert packs() == written, "a warm run must not write a pack"


class TestRunSummary:
    """``repro audit``'s trailer and closing lines and ``repro report``
    fold the same records by the same rule."""

    @staticmethod
    def report_json(stream, capsys):
        assert main(["report", str(stream), "--json"]) == 0
        return json.loads(capsys.readouterr().out)

    def test_warm_stream_reports_no_work_it_did_not_do(self, corpus, tmp_path, capsys):
        streams = [tmp_path / "cold.jsonl", tmp_path / "warm.jsonl"]
        for stream in streams:
            audit(corpus, "--replay", "on", "--cache-dir", tmp_path / "cache",
                  "--jsonl", stream, "--quiet")
        capsys.readouterr()
        cold, warm = (self.report_json(stream, capsys) for stream in streams)
        trailer = json.loads(streams[1].read_text().splitlines()[-1])
        assert warm["verdicts"]["cached"] == 3
        assert cold["solver"] and cold["stage_seconds"]
        for section in ("solver", "includes", "stage_seconds"):
            assert warm[section] == trailer[section] == {}, section
        verdicts = lambda summary: {k: v for k, v in summary["verdicts"].items() if k != "cached"}
        assert verdicts(warm) == verdicts(cold)
        assert warm["replay"] == cold["replay"] and warm["replay"]["confirmed"] >= 1
        main(["report", str(streams[1])])
        assert "solver:" not in capsys.readouterr().out

    def test_audit_and_report_print_the_same_totals_lines(self, corpus, tmp_path, capsys):
        stream = tmp_path / "audit.jsonl"
        audit(corpus, "--no-cache", "--replay", "on", "--jsonl", stream, "--quiet")
        audit_out = capsys.readouterr().out.splitlines()
        main(["report", str(stream)])
        report_out = capsys.readouterr().out.splitlines()
        prefixes = ("stage time:", "solver:", "includes:", "replay:", "patched replay:")
        shared = [line for line in audit_out if line.startswith(prefixes)]
        assert shared == [line for line in report_out if line.startswith(prefixes)]
        stage_line = next(line for line in shared if line.startswith("stage time:"))
        stages = [part.split()[0] for part in stage_line[len("stage time: "):].split(", ")]
        assert stages == ["parse", "filter", "ai", "sat", "replay"]
        latency = report_out[report_out.index(
            "stage latency p50/p90/p99 (bucket-interpolated):") + 1:][: len(stages)]
        assert [line.split()[0] for line in latency] == stages


class TestAuditJsonl:
    def test_jsonl_written(self, corpus, tmp_path):
        out = tmp_path / "audit.jsonl"
        audit(corpus, "--no-cache", "--jsonl", out)
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert lines[-1]["type"] == "stats"
        files = [l for l in lines if l["type"] == "file"]
        assert len(files) == 3
        assert {l["status"] for l in files} == {"ok"}


class TestAuditParallel:
    def test_jobs_two_matches_inline(self, corpus, capsys):
        assert audit(corpus, "--no-cache", "--jobs", "2") == 1
        parallel_out = capsys.readouterr().out
        assert audit(corpus, "--no-cache", "--jobs", "1") == 1
        inline_out = capsys.readouterr().out
        strip = lambda out: [l for l in out.splitlines() if not l.startswith(("audited", "cache:", "stage time:", "solver:", "sat-cache:", "slowest sat query:"))]
        assert strip(parallel_out) == strip(inline_out)


class TestAuditObservability:
    def test_trace_flag_writes_valid_chrome_trace(self, corpus, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        audit(corpus, "--no-cache", "--trace", trace, "--quiet")
        payload = json.loads(trace.read_text())
        events = payload["traceEvents"]
        names = {e["name"] for e in events}
        assert any(name.startswith("file:") for name in names)
        assert {"parse", "filter", "ai", "sat", "sat.solve", "audit"} <= names
        solve = next(e for e in events if e["name"] == "sat.solve")
        assert "decisions" in solve["args"]
        assert "wrote trace" in capsys.readouterr().err

    def test_metrics_flag_writes_prometheus_snapshot(self, corpus, tmp_path, capsys):
        prom = tmp_path / "metrics.prom"
        audit(corpus, "--no-cache", "--metrics", prom, "--quiet")
        text = prom.read_text()
        assert "# TYPE repro_files_total counter" in text
        assert 'repro_files_total{status="ok"} 3' in text
        assert "repro_file_seconds_count 3" in text
        assert "wrote metrics" in capsys.readouterr().err

    def test_solver_dpll_backend(self, corpus, capsys):
        assert audit(corpus, "--no-cache", "--solver", "dpll") == 1
        out = capsys.readouterr().out
        assert "VULNERABLE" in out and "solver:" in out


class TestVerifyObservability:
    def test_stats_prints_solver_and_formula_lines(self, corpus, capsys):
        assert main(["verify", str(corpus / "vuln.php"), "--stats"]) == 1
        out = capsys.readouterr().out
        assert "solver[cdcl]:" in out
        assert "solve call(s)" in out
        assert "formula:" in out

    def test_stats_with_dpll_backend(self, corpus, capsys):
        main(["verify", str(corpus / "safe.php"), "--stats", "--solver", "dpll"])
        assert "solver[dpll]:" in capsys.readouterr().out

    def test_trace_flag_writes_trace(self, corpus, tmp_path, capsys):
        trace = tmp_path / "verify-trace.json"
        main(["verify", str(corpus / "vuln.php"), "--trace", str(trace)])
        names = {e["name"] for e in json.loads(trace.read_text())["traceEvents"]}
        assert {"file", "parse", "sat", "sat.solve"} <= names

    def test_global_tracer_restored_after_verify(self, corpus, tmp_path):
        from repro.obs import NULL_TRACER, get_tracer

        main(["verify", str(corpus / "vuln.php"), "--trace", str(tmp_path / "t.json")])
        assert get_tracer() is NULL_TRACER


class TestVerifyExitCodes:
    def test_vulnerability_beats_frontend_error(self, tmp_path, capsys):
        (tmp_path / "vuln.php").write_text(VULN)
        (tmp_path / "broken.php").write_text(BROKEN)
        assert main(["verify", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "frontend error" in captured.err
        assert "precedence" in captured.err

    def test_error_only_still_exit_two(self, tmp_path):
        (tmp_path / "broken.php").write_text(BROKEN)
        assert main(["verify", str(tmp_path)]) == 2

    def test_exit_codes_documented_in_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--help"])
        assert "exit codes" in capsys.readouterr().out

    def test_audit_help_documents_exit_codes(self, capsys):
        with pytest.raises(SystemExit):
            main(["audit", "--help"])
        assert "exit codes" in capsys.readouterr().out


class TestFigure10Jobs:
    def test_figure10_accepts_jobs_flag(self):
        parser_args = ["figure10", "--jobs", "2"]
        from repro.cli import build_parser

        args = build_parser().parse_args(parser_args)
        assert args.jobs == 2


def write_fig10_trees(root):
    """The seed-2004 Figure 10 projects on disk, one tree per row."""
    from repro.corpus import FIGURE_10, generate_catalog_project

    trees = []
    for index, entry in enumerate(FIGURE_10):
        project = generate_catalog_project(entry, seed=2004).project
        tree = root / f"p{index:02d}"
        for path in project.paths():
            (tree / path).parent.mkdir(parents=True, exist_ok=True)
            (tree / path).write_text(project.source(path))
        trees.append(tree)
    return trees


def read_records(stream):
    lines = [json.loads(line) for line in stream.read_text().splitlines()]
    return [record for record in lines if record["type"] == "file"]


#: Per-run telemetry and cache bookkeeping, not part of the verdict.
VOLATILE = {"timings", "duration", "cache_key", "cached", "slow_queries"}


def verdict_fields(record):
    return {k: v for k, v in record.items() if k not in VOLATILE | {"filename"}}


@pytest.fixture(scope="module")
def fig10_audit(tmp_path_factory):
    """One `repro audit` over the Figure 10 trees, one argument each."""
    root = tmp_path_factory.mktemp("fig10")
    trees = write_fig10_trees(root / "trees")
    stream = root / "audit.jsonl"
    argv = [*trees, "--jobs", "1", "--quiet", "--no-cache",
            "--cache-dir", root / "audit-cache", "--jsonl", stream]
    with contextlib.redirect_stdout(io.StringIO()):
        assert audit(*argv) == 1
    return root, trees, read_records(stream)


class TestIncludeAwareAudit:
    def test_figure10_rows_exact(self, fig10_audit):
        from repro.corpus import FIGURE_10

        _root, trees, records = fig10_audit
        assert len(records) == 256
        for entry, tree in zip(FIGURE_10, trees):
            rows = [r for r in records if r["filename"].startswith(f"{tree}/")]
            assert sum(r["ts_errors"] for r in rows) == entry.ts_errors, entry.name
            assert sum(r["bmc_groups"] for r in rows) == entry.bmc_groups, entry.name
        assert sum(r["ts_errors"] for r in records) == 969
        assert sum(r["bmc_groups"] for r in records) == 578

    def test_records_equal_watch_once(self, fig10_audit, capsys):
        root, trees, records = fig10_audit
        watched = {}
        for tree in trees:
            out = root / "watch" / tree.name
            assert main(
                ["watch", str(tree), "--once", "--quiet", "--jobs", "1", "--no-cache",
                 "--cache-dir", str(root / "watch-cache"), "--out-dir", str(out)]
            ) == 0
            for record in read_records(out / "cycle-000001.jsonl"):
                watched[os.path.abspath(record["filename"])] = record
        capsys.readouterr()
        audited = {os.path.abspath(r["filename"]): r for r in records}
        assert audited.keys() == watched.keys()
        for name, record in audited.items():
            assert verdict_fields(record) == verdict_fields(watched[name]), name

    def test_file_argument_resolves_includes_against_its_parent(self, tmp_path, capsys):
        project = tmp_path / "project"
        (project / "sub").mkdir(parents=True)
        (project / "sub" / "lib.php").write_text("<?php $x = $_GET['q'];\n")
        (project / "sub" / "page.php").write_text("<?php include 'lib.php'; echo $x;\n")
        stream = tmp_path / "out.jsonl"
        rc = audit(project / "sub" / "page.php", "--jobs", "1", "--no-cache",
                   "--cache-dir", tmp_path / "cache", "--jsonl", stream)
        capsys.readouterr()
        assert rc == 1
        [record] = read_records(stream)
        assert record["filename"] == str(project / "sub" / "page.php")
        assert record["safe"] is False
        assert record["includes"]["edges"] == 1

    def test_shards_union_equals_unsharded(self, fig10_audit, tmp_path, capsys):
        _root, trees, _records = fig10_audit
        tree = trees[14]

        # No result or SAT cache, so no record depends on which entries
        # ran before it in the same process.
        def run(name, *extra):
            stream = tmp_path / f"{name}.jsonl"
            audit(tree, "--jobs", "1", "--no-cache", "--sat-cache", "off",
                  "--cache-dir", tmp_path / "cache", "--jsonl", stream, *extra)
            return read_records(stream)

        whole = run("whole")
        shards = [run(f"shard{i}", "--shard", f"{i}/3") for i in (1, 2, 3)]
        capsys.readouterr()
        assert any(r["includes"] for r in whole)
        assert all(shards), "every shard should own some entries of this tree"
        merged = sorted(
            (r for shard in shards for r in shard), key=lambda r: r["filename"]
        )
        # slow_queries hold solve seconds, so they are timings too.
        volatile = {"timings", "duration", "cached", "slow_queries"}
        strip = lambda r: {k: v for k, v in r.items() if k not in volatile}
        assert [strip(r) for r in merged] == [
            strip(r) for r in sorted(whole, key=lambda r: r["filename"])
        ]


class TestIncludeAwareVerify:
    def test_summaries_equal_audit_records(self, fig10_audit, capsys):
        _root, trees, records = fig10_audit
        assert main(["verify", *map(str, trees)]) == 1
        out = capsys.readouterr().out
        assert out == "".join(f"{record['summary']}\n\n" for record in records)

    def test_replay_runs_the_entry_with_its_includes(self, tmp_path, capsys):
        project = write_tree(tmp_path / "project", {
            "lib.php": "<?php $x = $_GET['q'];\n",
            "page.php": "<?php include 'lib.php'; echo $x;\n",
        })
        assert main(["verify", str(project / "page.php"), "--replay", "on"]) == 1
        out = capsys.readouterr().out
        assert "  replay: 1 confirmed, 0 refuted, 0 unsupported\n" in out

    def test_unparsable_include_is_the_entrys_frontend_error(self, tmp_path, capsys):
        project = write_tree(tmp_path / "project", {
            "broken.php": "<?php if (\n",
            "page.php": "<?php include 'broken.php'; echo $_GET['q'];\n",
        })
        assert main(["verify", str(project / "page.php")]) == 2
        err = capsys.readouterr().err
        assert f"{project / 'page.php'}: frontend error: " in err
        assert "broken.php" in err


def write_tree(root, files):
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    return root


#: A small project whose verdicts depend on its includes.
INCLUDE_TREE = {
    "lib.php": "<?php $x = $_GET['q'];\n",
    "clean.php": "<?php $x = htmlspecialchars($_GET['q']);\n",
    "sub/page.php": "<?php include '../lib.php'; echo $x;\n",
    "sub/safe_page.php": "<?php include '../clean.php'; echo $x;\n",
    "dynamic.php": "<?php include $where; echo 'x';\n",
    "plain.php": "<?php echo 'plain';\n",
}


def without_run_telemetry(record):
    """``record`` minus what depends on the run rather than the entry:
    timings, solve seconds, cache state, and the include section's
    parse-memo counters (which count hits on files that other entries
    of the same process parsed first)."""
    volatile = {"timings", "duration", "cached", "slow_queries"}
    view = {k: v for k, v in record.items() if k not in volatile}
    view["includes"] = {
        k: v for k, v in record["includes"].items()
        if k not in ("parse_cache_hits", "parse_cache_misses")
    }
    return view


def run_audit(tmp_path, name, *argv):
    """One audit writing ``<name>.jsonl``; returns (exit code, records)."""
    stream = tmp_path / f"{name}.jsonl"
    rc = audit(*argv, "--quiet", "--jsonl", stream)
    return rc, read_records(stream)


class TestIncludeAwareRecords:
    @pytest.fixture
    def tree(self, tmp_path):
        return write_tree(tmp_path / "project", INCLUDE_TREE)

    def by_name(self, records, root):
        return {os.path.relpath(r["filename"], root): r for r in records}

    def test_included_source_makes_the_entry_vulnerable(self, tree, tmp_path, capsys):
        rc, records = run_audit(tmp_path, "out", tree, "--no-cache",
                                "--cache-dir", tmp_path / "cache")
        capsys.readouterr()
        assert rc == 1
        records = self.by_name(records, tree)
        assert records["sub/page.php"]["safe"] is False
        assert records["sub/page.php"]["includes"]["edges"] == 1
        assert records["sub/safe_page.php"]["safe"] is True
        assert records["sub/safe_page.php"]["includes"]["edges"] == 1

    def test_include_free_entries_carry_no_include_section(self, tree, tmp_path, capsys):
        _rc, records = run_audit(tmp_path, "out", tree, "--no-cache",
                                 "--cache-dir", tmp_path / "cache")
        capsys.readouterr()
        records = self.by_name(records, tree)
        assert records["plain.php"]["includes"] == {}
        assert records["lib.php"]["includes"] == {}

    def test_dynamic_include_is_widened(self, tree, tmp_path, capsys):
        _rc, records = run_audit(tmp_path, "out", tree, "--no-cache",
                                 "--cache-dir", tmp_path / "cache")
        capsys.readouterr()
        includes = self.by_name(records, tree)["dynamic.php"]["includes"]
        assert includes["widened"] is True
        assert includes["unresolved"] == 1

    def test_file_argument_cannot_include_above_its_parent(self, tree, tmp_path, capsys):
        """The same entry under a directory argument sees ``../lib.php``;
        named alone, its root is ``sub/`` and the include is missing."""
        rc, [record] = run_audit(tmp_path, "alone", tree / "sub" / "page.php",
                                 "--no-cache", "--cache-dir", tmp_path / "cache")
        capsys.readouterr()
        assert rc == 0
        assert record["safe"] is True
        assert record["includes"]["edges"] == 0
        assert record["warnings"]

    def test_filename_keeps_the_users_spelling(self, tree, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        _rc, records = run_audit(tmp_path, "out", "project", "--no-cache",
                                 "--cache-dir", tmp_path / "cache")
        capsys.readouterr()
        names = sorted(r["filename"] for r in records)
        assert names == sorted(os.path.join("project", name) for name in INCLUDE_TREE)
        for record in records:
            assert record["summary"].startswith(f"{record['filename']}: ")

    def test_jobs_two_matches_jobs_one(self, tree, tmp_path, capsys):
        strip = without_run_telemetry
        runs = []
        for jobs in ("1", "2"):
            _rc, records = run_audit(tmp_path, f"jobs{jobs}", tree, "--jobs", jobs,
                                     "--no-cache", "--sat-cache", "off",
                                     "--cache-dir", tmp_path / f"cache{jobs}")
            runs.append(sorted((strip(r) for r in records), key=lambda r: r["filename"]))
        capsys.readouterr()
        assert runs[0] == runs[1]

    def test_second_spelling_hits_the_cache_under_its_own_names(
        self, tree, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        cache = tmp_path / "cache"
        _rc, first = run_audit(tmp_path, "relative", "project", "--cache-dir", cache)
        _rc, second = run_audit(tmp_path, "absolute", tree, "--cache-dir", cache)
        capsys.readouterr()
        assert not any(r["cached"] for r in first)
        assert all(r["cached"] for r in second)
        assert sorted(r["filename"] for r in second) == sorted(
            str(tree / name) for name in INCLUDE_TREE
        )
        for record in second:
            assert record["summary"].startswith(f"{record['filename']}: ")
            assert record["detailed"].startswith(f"{record['filename']}: ")

    def test_watch_after_audit_hits_under_the_watched_names(
        self, tree, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        cache = tmp_path / "cache"
        _rc, audited = run_audit(tmp_path, "audit", "project", "--cache-dir", cache)
        out = tmp_path / "cycles"
        main(["watch", str(tree), "--once", "--quiet", "--jobs", "1",
              "--cache-dir", str(cache), "--out-dir", str(out)])
        capsys.readouterr()
        watched = read_records(out / "cycle-000001.jsonl")
        assert len(watched) == len(audited) == len(INCLUDE_TREE)
        assert all(r["cached"] for r in watched)
        for record in watched:
            assert os.path.isabs(record["filename"])
            assert record["summary"].startswith(f"{record['filename']}: ")


class TestAuditShard:
    @pytest.fixture
    def tree(self, tmp_path):
        return write_tree(tmp_path / "project", INCLUDE_TREE)

    def shard_runs(self, tmp_path, tree, count):
        return [
            run_audit(tmp_path, f"shard{i}of{count}", tree, "--no-cache",
                      "--sat-cache", "off", "--cache-dir", tmp_path / "cache",
                      "--shard", f"{i}/{count}")[1]
            for i in range(1, count + 1)
        ]

    @pytest.mark.parametrize("count", [1, 2, 3, 5])
    def test_shards_are_disjoint_and_exhaustive(self, tree, tmp_path, capsys, count):
        _rc, whole = run_audit(tmp_path, "whole", tree, "--no-cache", "--sat-cache",
                               "off", "--cache-dir", tmp_path / "cache")
        merged = [r for shard in self.shard_runs(tmp_path, tree, count) for r in shard]
        capsys.readouterr()
        names = [r["filename"] for r in merged]
        assert len(names) == len(set(names))
        key = lambda r: r["filename"]
        assert [without_run_telemetry(r) for r in sorted(merged, key=key)] == [
            without_run_telemetry(r) for r in sorted(whole, key=key)
        ]

    def test_assignment_follows_the_entry_not_its_path(self, tree, tmp_path, capsys):
        """Renaming a directory moves no entry to another shard."""
        moved = write_tree(tmp_path / "moved", {
            name.replace("sub/", "renamed/"): text for name, text in INCLUDE_TREE.items()
        })
        owners = lambda root: {
            os.path.relpath(r["filename"], root).replace("renamed/", "sub/"): index
            for index, shard in enumerate(self.shard_runs(tmp_path, root, 3))
            for r in shard
        }
        before, after = owners(tree), owners(moved)
        capsys.readouterr()
        assert sorted(before) == sorted(INCLUDE_TREE)
        assert before == after

    def test_editing_an_included_file_moves_no_entry(self, tree, tmp_path, capsys):
        before = self.shard_runs(tmp_path, tree, 3)
        (tree / "lib.php").write_text("<?php $x = 'now constant';\n")
        after = self.shard_runs(tmp_path, tree, 3)
        capsys.readouterr()
        owner = lambda runs, name: next(
            i for i, shard in enumerate(runs)
            for r in shard if r["filename"] == str(tree / name)
        )
        assert owner(before, "sub/page.php") == owner(after, "sub/page.php")
        page = lambda runs: next(
            r for shard in runs for r in shard if r["filename"] == str(tree / "sub/page.php")
        )
        assert page(before)["safe"] is False and page(after)["safe"] is True

    def test_stderr_counts_the_entries_assigned_here(self, tree, tmp_path, capsys):
        counts = []
        for i in (1, 2):
            run_audit(tmp_path, f"s{i}", tree, "--no-cache",
                      "--cache-dir", tmp_path / "cache", "--shard", f"{i}/2")
            err = capsys.readouterr().err
            [line] = [l for l in err.splitlines() if l.startswith(f"shard {i}/2: ")]
            assigned, _of, total = line.split(": ")[1].split()[:3]
            assert int(total) == len(INCLUDE_TREE)
            counts.append(int(assigned))
        assert sum(counts) == len(INCLUDE_TREE)

    @pytest.mark.parametrize("spec", ["0/3", "4/3", "1/0", "two/3", "3"])
    def test_invalid_spec_exits_two(self, tree, tmp_path, capsys, spec):
        rc = audit(tree, "--no-cache", "--cache-dir", tmp_path / "cache", "--shard", spec)
        assert rc == 2
        assert "invalid shard spec" in capsys.readouterr().err


@pytest.fixture(scope="module")
def fig10_trees(tmp_path_factory):
    return write_fig10_trees(tmp_path_factory.mktemp("fig10-alone") / "trees")


def _fig10_rows():
    from repro.corpus import FIGURE_10

    return [pytest.param(index, id=entry.name) for index, entry in enumerate(FIGURE_10)]


class TestFigure10ProjectAlone:
    """Each project audited on its own, one argument, is its Figure 10
    row: a root's counts do not depend on the other arguments."""

    @pytest.mark.parametrize("index", _fig10_rows())
    def test_row_exact(self, fig10_trees, tmp_path, capsys, index):
        from repro.corpus import FIGURE_10

        entry = FIGURE_10[index]
        _rc, records = run_audit(tmp_path, "row", fig10_trees[index], "--jobs", "1",
                                 "--no-cache", "--cache-dir", tmp_path / "cache")
        capsys.readouterr()
        assert len(records) == len(list(fig10_trees[index].rglob("*.php")))
        assert sum(r["ts_errors"] for r in records) == entry.ts_errors
        assert sum(r["bmc_groups"] for r in records) == entry.bmc_groups
