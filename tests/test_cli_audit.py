"""Tests for the ``repro audit`` subcommand and the verify/audit
exit-code contract (0 safe / 1 vulnerable wins / 2 errors only)."""

import json

import pytest

from repro.cli import _collect_php_files, main

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
