"""Tests for the in-memory parse cache and the in-memory include graph."""

import pickle

import pytest

from repro.php import ast_nodes as ast
from repro.php.errors import ParseError
from repro.php.parsecache import IncludeGraph, ParseCache

SRC = "<?php $x = 1;\n"
OTHER = "<?php $y = 2;\n"


class TestParseCache:
    def test_miss_then_hit_returns_same_program(self):
        cache = ParseCache()
        first = cache.parse(SRC, "a.php")
        second = cache.parse(SRC, "a.php")
        assert first is second  # memo shares the immutable tree
        assert isinstance(first, ast.Program)
        assert cache.hits == 1 and cache.misses == 1

    def test_filename_is_part_of_the_key(self):
        cache = ParseCache()
        a = cache.parse(SRC, "a.php")
        b = cache.parse(SRC, "b.php")
        # Same text, different file: spans embed the filename, so the
        # trees must not be shared.
        assert a is not b
        assert cache.misses == 2 and cache.hits == 0
        assert ParseCache.key(SRC, "a.php") != ParseCache.key(SRC, "b.php")

    def test_lru_evicts_oldest(self):
        cache = ParseCache(max_entries=2)
        cache.parse(SRC, "a.php")
        cache.parse(SRC, "b.php")
        cache.parse(SRC, "c.php")  # evicts a.php
        cache.parse(SRC, "a.php")
        assert cache.misses == 4 and cache.hits == 0

    def test_parse_error_propagates_and_is_not_cached(self):
        cache = ParseCache()
        with pytest.raises(ParseError):
            cache.parse("<?php if (", "broken.php")
        with pytest.raises(ParseError):
            cache.parse("<?php if (", "broken.php")
        assert cache.misses == 2

    def test_pickle_drops_the_memo(self):
        cache = ParseCache(max_entries=7)
        cache.parse(SRC, "a.php")
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.max_entries == 7
        assert clone.hits == 0 and clone.misses == 0
        # The clone starts empty: nothing is shipped, nothing is on disk.
        clone.parse(SRC, "a.php")
        assert clone.misses == 1

    def test_persist_dir_is_ignored(self, tmp_path):
        cache = ParseCache(persist_dir=tmp_path / "parse")
        cache.parse(SRC, "a.php")
        assert cache.parse(SRC, "a.php") and cache.hits == 1
        assert not (tmp_path / "parse").exists()

    def test_memoryless_cache_still_parses(self):
        cache = ParseCache(persist_dir=None)
        assert isinstance(cache.parse(OTHER, "z.php"), ast.Program)


class TestNoTreesOnDisk:
    @pytest.mark.parametrize("command", ["audit", "watch"])
    def test_cold_run_leaves_no_parse_files(self, tmp_path, command, capsys):
        from repro.cli import main

        tree = tmp_path / "tree"
        tree.mkdir()
        (tree / "lib.php").write_text("<?php $x = $_GET['q'];\n")
        (tree / "page.php").write_text("<?php include 'lib.php'; echo $x;\n")
        (tree / "solo.php").write_text("<?php echo 'solo';\n")
        cache = tmp_path / "cache"
        argv = [command, str(tree), "--jobs", "1", "--quiet", "--cache-dir", str(cache)]
        if command == "watch":
            argv += ["--once", "--out-dir", str(tmp_path / "out")]
        # page.php echoes the $_GET value lib.php assigns: `audit` resolves
        # the include and exits 1; `watch --once` always exits 0.
        assert main(argv) == (1 if command == "audit" else 0)
        capsys.readouterr()
        assert cache.is_dir()
        assert not (cache / "parse").exists()
        assert not list(cache.rglob("*.pkl"))


class TestIncludeGraph:
    def test_update_and_query(self):
        graph = IncludeGraph()
        graph.update_file("a.php", ["lib.php"])
        assert graph.includes_of("a.php") == {"lib.php"}
        assert graph.edge_count == 1 and len(graph) == 1

    def test_update_replaces_out_edges_wholesale(self):
        graph = IncludeGraph()
        graph.update_file("a.php", ["old.php", "keep.php"])
        graph.update_file("a.php", ["keep.php", "new.php"])
        assert graph.includes_of("a.php") == {"keep.php", "new.php"}
        assert graph.includers_of(["old.php"]) == set()
        assert graph.includers_of(["new.php"]) == {"a.php"}

    def test_includers_of_is_transitive(self):
        graph = IncludeGraph()
        graph.update_file("page.php", ["mid.php"])
        graph.update_file("mid.php", ["deep.php"])
        graph.update_file("other.php", [])
        assert graph.includers_of(["deep.php"]) == {"mid.php", "page.php"}
        assert graph.includers_of(["mid.php"]) == {"page.php"}
        assert graph.includers_of(["page.php"]) == set()

    def test_includers_of_terminates_on_cycles(self):
        graph = IncludeGraph()
        graph.update_file("a.php", ["b.php"])
        graph.update_file("b.php", ["a.php"])
        assert graph.includers_of(["a.php"]) == {"a.php", "b.php"}

    def test_remove_file_keeps_reverse_edges_to_it(self):
        # Deleting a shared include must still invalidate its includers:
        # their splice result changes from "spliced lib" to "missing lib".
        graph = IncludeGraph()
        graph.update_file("page.php", ["lib.php"])
        graph.update_file("lib.php", [])
        graph.remove_file("lib.php")
        assert graph.includers_of(["lib.php"]) == {"page.php"}
        assert len(graph) == 1
