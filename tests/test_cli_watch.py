"""Tests for the ``repro watch`` subcommand's CLI surface: argument
validation exit codes and the ``--once`` smoke mode.  The daemon's
behaviour itself is covered by ``test_daemon_watch.py`` /
``test_daemon_loop.py`` / ``test_metrics_server.py``; end-to-end signal
drain by the CI smoke step."""

import json

import pytest

from repro.cli import main

VULN = "<?php echo $_GET['q'];\n"
SAFE = "<?php echo 'hello';\n"


@pytest.fixture
def corpus(tmp_path):
    root = tmp_path / "tree"
    root.mkdir()
    (root / "vuln.php").write_text(VULN)
    (root / "safe.php").write_text(SAFE)
    return root


class TestArgumentValidation:
    def test_missing_root_exits_two(self, tmp_path, capsys):
        assert main(["watch", str(tmp_path / "absent")]) == 2
        assert "not a directory" in capsys.readouterr().err

    def test_file_root_exits_two(self, corpus):
        assert main(["watch", str(corpus / "vuln.php")]) == 2

    def test_bad_metrics_address_exits_two(self, corpus, capsys):
        assert main(["watch", str(corpus), "--serve-metrics", "nope"]) == 2
        assert "invalid metrics address" in capsys.readouterr().err


class TestOnceMode:
    def test_once_audits_a_fresh_corpus_despite_debounce(self, tmp_path, corpus, capsys):
        # A just-written corpus sits entirely inside the default 0.5s
        # debounce window; --once must override it (one-shot smoke would
        # otherwise audit nothing and still exit 0).
        out = tmp_path / "cycles"
        rc = main(
            ["watch", str(corpus), "--once", "--quiet",
             "--cache-dir", str(tmp_path / "cache"), "--out-dir", str(out)]
        )
        capsys.readouterr()
        assert rc == 0
        stream = out / "cycle-000001.jsonl"
        assert stream.exists()
        lines = [json.loads(l) for l in stream.read_text().splitlines()]
        files = {r["filename"]: r for r in lines if r["type"] == "file"}
        assert files[str(corpus / "vuln.php")]["safe"] is False
        assert files[str(corpus / "safe.php")]["safe"] is True
        trailer = lines[-1]
        assert trailer["type"] == "stats"
        assert trailer["cycle"] == 1 and trailer["watched_files"] == 2

    def test_once_parses_each_file_once(self, tmp_path, monkeypatch, capsys):
        import repro.php.parser as parser_module
        from repro.corpus import FIGURE_10, generate_catalog_project

        project = generate_catalog_project(FIGURE_10[0], seed=2004).project
        root = tmp_path / "tree"
        for path in project.paths():
            (root / path).parent.mkdir(parents=True, exist_ok=True)
            (root / path).write_text(project.source(path))
        parsed = []
        real = parser_module.tokenize

        def counting(source, filename="<string>"):
            parsed.append(source)
            return real(source, filename)

        monkeypatch.setattr(parser_module, "tokenize", counting)
        rc = main(
            ["watch", str(root), "--once", "--quiet", "--jobs", "1",
             "--cache-dir", str(tmp_path / "cache"), "--out-dir", str(tmp_path / "out")]
        )
        capsys.readouterr()
        assert rc == 0
        # The include scan and the verification share one parse per file.
        assert sorted(parsed) == sorted(project.source(p) for p in project.paths())

    def test_no_metrics_registry_without_a_server(self, tmp_path, corpus, monkeypatch, capsys):
        # Nothing could read the registry, so none is built, and the
        # cache dir holds no include graph either.
        import repro.daemon as daemon_module

        seen = []
        real = daemon_module.WatchLoop

        def capture(*args, **kwargs):
            seen.append(kwargs["metrics"])
            return real(*args, **kwargs)

        monkeypatch.setattr(daemon_module, "WatchLoop", capture)
        cache = tmp_path / "cache"
        rc = main(["watch", str(corpus), "--once", "--quiet", "--cache-dir", str(cache),
                   "--out-dir", str(tmp_path / "out")])
        capsys.readouterr()
        assert rc == 0 and seen == [None]
        assert not (cache / "include-graph.json").exists()

    def test_once_on_an_empty_tree_exits_zero(self, tmp_path, capsys):
        root = tmp_path / "empty"
        root.mkdir()
        rc = main(
            ["watch", str(root), "--once", "--quiet",
             "--cache-dir", str(tmp_path / "cache"),
             "--out-dir", str(tmp_path / "cycles")]
        )
        capsys.readouterr()
        assert rc == 0


class TestSharedCacheAcrossCopies:
    def test_cached_records_name_the_tree_that_was_watched(self, tmp_path, capsys):
        """Entry tasks key on the tree-relative entry, so a second copy of
        a tree hits every record of the first; the hits must still carry
        the second copy's filenames."""
        from repro.corpus import FIGURE_10, generate_catalog_project

        project = generate_catalog_project(FIGURE_10[14], seed=2004).project
        copies = [tmp_path / "dup" / "a", tmp_path / "dup" / "b"]
        for root in copies:
            for path in project.paths():
                (root / path).parent.mkdir(parents=True, exist_ok=True)
                (root / path).write_text(project.source(path))
        for root in copies:
            assert main(
                ["watch", str(root), "--once", "--quiet", "--jobs", "1",
                 "--cache-dir", str(tmp_path / "cache"),
                 "--out-dir", str(tmp_path / "out" / root.name)]
            ) == 0
        capsys.readouterr()
        stream = tmp_path / "out" / "b" / "cycle-000001.jsonl"
        records = [json.loads(line) for line in stream.read_text().splitlines()]
        files = [r for r in records if r["type"] == "file"]
        assert len(files) == len(project.paths()) == 21
        prefix = f"{copies[1]}/"
        for record in files:
            assert record["cached"] is True
            assert record["filename"].startswith(prefix)
            assert record["summary"].startswith(f"{record['filename']}: ")
            assert record["detailed"].startswith(f"{record['filename']}: ")
            assert all(q["file"] == record["filename"] for q in record["slow_queries"])
