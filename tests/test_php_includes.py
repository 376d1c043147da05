"""Tests for include/require resolution across project files."""

import pytest

from repro.php import (
    IncludeError,
    SourceProject,
    TreeProject,
    resolve_includes,
    scan_includes,
)
from repro.php import ast_nodes as ast
from repro.php.parsecache import ParseCache


def project(**files):
    return SourceProject({name.replace("__", "/"): text for name, text in files.items()})


class TestSourceProject:
    def test_add_and_get(self):
        p = SourceProject({"a.php": "<?php $x;"})
        assert p.has("a.php")
        assert p.source("a.php") == "<?php $x;"

    def test_normalization(self):
        p = SourceProject({"./lib/a.php": "<?php $x;"})
        assert p.has("lib/a.php")
        assert p.has("lib/../lib/a.php")

    def test_from_directory(self, tmp_path):
        (tmp_path / "sub").mkdir()
        (tmp_path / "index.php").write_text("<?php $a;")
        (tmp_path / "sub" / "lib.php").write_text("<?php $b;")
        (tmp_path / "notes.txt").write_text("not php")
        p = SourceProject.from_directory(tmp_path)
        assert p.paths() == ["index.php", "sub/lib.php"]

    def test_len(self):
        assert len(project(**{"a.php": "<?php"})) == 1


def tree(root, **files):
    """Write ``files`` under ``root`` and map them as a :class:`TreeProject`."""
    disk = {}
    for name, text in files.items():
        rel = name.replace("__", "/")
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        disk[rel] = str(path)
    return TreeProject(disk)


class TestTreeProject:
    def test_is_a_source_project(self, tmp_path):
        assert isinstance(tree(tmp_path, **{"a.php": "<?php"}), SourceProject)

    def test_paths_sorted_and_len(self, tmp_path):
        p = tree(tmp_path, **{"b.php": "<?php", "a.php": "<?php", "sub__c.php": "<?php"})
        assert p.paths() == ["a.php", "b.php", "sub/c.php"]
        assert len(p) == 3

    def test_has_normalizes(self, tmp_path):
        p = tree(tmp_path, **{"lib__a.php": "<?php $x;"})
        assert p.has("lib/a.php")
        assert p.has("./lib/../lib/a.php")
        assert p.has("lib\\a.php")
        assert not p.has("a.php")

    def test_source_reads_the_mapped_file(self, tmp_path):
        p = tree(tmp_path, **{"lib__a.php": "<?php $x;"})
        assert p.source("./lib/a.php") == "<?php $x;"

    def test_reads_lazily_then_keeps_the_first_read(self, tmp_path):
        p = tree(tmp_path, **{"a.php": "<?php 1;"})
        # Nothing is read at construction: an edit before the first
        # access is what the project serves...
        (tmp_path / "a.php").write_text("<?php 2;")
        assert p.source("a.php") == "<?php 2;"
        # ...and the first read is the snapshot from then on.
        (tmp_path / "a.php").write_text("<?php 3;")
        assert p.source("a.php") == "<?php 2;"

    def test_vanished_file_raises_oserror(self, tmp_path):
        p = tree(tmp_path, **{"a.php": "<?php"})
        (tmp_path / "a.php").unlink()
        assert p.has("a.php")
        with pytest.raises(OSError):
            p.source("a.php")

    def test_unmapped_path_raises_keyerror(self, tmp_path):
        p = tree(tmp_path, **{"a.php": "<?php"})
        with pytest.raises(KeyError):
            p.source("b.php")

    def test_scan_reads_only_the_closure(self, tmp_path):
        p = tree(tmp_path, **{
            "index.php": "<?php include 'lib.php'; echo $x;",
            "lib.php": "<?php $x = 1;",
            "other.php": "<?php echo 'unrelated';",
        })
        # An unreadable file outside the closure does not matter.
        (tmp_path / "other.php").unlink()
        scan = scan_includes(p, "index.php")
        assert scan.closure == {"index.php", "lib.php"}

    def test_resolves_like_an_in_memory_project(self, tmp_path):
        files = {
            "index.php": "<?php include 'inc/db.php'; echo $q;",
            "inc__db.php": "<?php include 'util.php'; $q = $_GET['q'];",
            "inc__util.php": "<?php $u = 1;",
        }
        on_disk = resolve_includes(tree(tmp_path, **files), "index.php")
        in_memory = resolve_includes(project(**files), "index.php")
        assert on_disk.edges == in_memory.edges
        assert on_disk.program == in_memory.program


class TestResolveIncludes:
    def test_simple_include_spliced(self):
        p = project(**{
            "index.php": "<?php include 'lib.php'; echo $x;",
            "lib.php": "<?php $x = 1;",
        })
        result = resolve_includes(p, "index.php")
        kinds = [type(s).__name__ for s in result.program.statements]
        assert kinds == ["ExpressionStatement", "Echo"]
        assert result.included_files == ["lib.php"]

    def test_nested_includes(self):
        p = project(**{
            "a.php": "<?php include 'b.php'; $a = 1;",
            "b.php": "<?php include 'c.php'; $b = 1;",
            "c.php": "<?php $c = 1;",
        })
        result = resolve_includes(p, "a.php")
        assert result.included_files == ["b.php", "c.php"]
        assert len(result.program.statements) == 3

    def test_include_inside_if(self):
        p = project(**{
            "index.php": "<?php if ($admin) { include 'admin.php'; }",
            "admin.php": "<?php $secret = 1;",
        })
        result = resolve_includes(p, "index.php")
        branch = result.program.statements[0].then
        assert isinstance(branch.statements[0], ast.ExpressionStatement)

    def test_include_once_deduplicated(self):
        p = project(**{
            "index.php": "<?php include_once 'lib.php'; include_once 'lib.php';",
            "lib.php": "<?php $x = 1;",
        })
        result = resolve_includes(p, "index.php")
        assert result.included_files == ["lib.php"]
        assert len(result.program.statements) == 1

    def test_plain_include_duplicates(self):
        p = project(**{
            "index.php": "<?php include 'lib.php'; include 'lib.php';",
            "lib.php": "<?php $x = 1;",
        })
        result = resolve_includes(p, "index.php")
        assert len(result.program.statements) == 2

    def test_relative_to_including_file(self):
        p = project(**{
            "sub/page.php": "<?php include 'helper.php';",
            "sub/helper.php": "<?php $h = 1;",
        })
        result = resolve_includes(p, "sub/page.php")
        assert result.included_files == ["sub/helper.php"]

    def test_cycle_detected(self):
        p = project(**{
            "a.php": "<?php include 'b.php';",
            "b.php": "<?php include 'a.php';",
        })
        with pytest.raises(IncludeError, match="cycle"):
            resolve_includes(p, "a.php")

    def test_self_include_once_is_fine(self):
        p = project(**{"a.php": "<?php include_once 'a.php'; $x = 1;"})
        result = resolve_includes(p, "a.php")
        assert len(result.program.statements) == 1

    def test_missing_require_raises(self):
        p = project(**{"index.php": "<?php require 'gone.php';"})
        with pytest.raises(IncludeError, match="not found"):
            resolve_includes(p, "index.php")

    def test_missing_include_warns(self):
        p = project(**{"index.php": "<?php include 'gone.php'; $x = 1;"})
        result = resolve_includes(p, "index.php")
        assert len(result.warnings) == 1
        assert len(result.program.statements) == 1

    def test_dynamic_include_left_unresolved(self):
        p = project(**{"index.php": "<?php include $page; $x = 1;"})
        result = resolve_includes(p, "index.php")
        assert len(result.unresolved) == 1
        assert len(result.program.statements) == 2

    def test_constant_concatenation_resolves(self):
        p = project(**{
            "index.php": "<?php include 'li' . 'b.php';",
            "lib.php": "<?php $x = 1;",
        })
        result = resolve_includes(p, "index.php")
        assert result.included_files == ["lib.php"]

    def test_suppressed_include_resolves(self):
        p = project(**{
            "index.php": "<?php @include 'lib.php';",
            "lib.php": "<?php $x = 1;",
        })
        result = resolve_includes(p, "index.php")
        assert result.included_files == ["lib.php"]

    def test_missing_entry_raises(self):
        with pytest.raises(IncludeError, match="entry"):
            resolve_includes(project(), "nope.php")

    def test_include_inside_function_body(self):
        p = project(**{
            "index.php": "<?php function f() { include 'lib.php'; }",
            "lib.php": "<?php $x = 1;",
        })
        result = resolve_includes(p, "index.php")
        fn = result.program.statements[0]
        assert isinstance(fn, ast.FunctionDecl)
        assert isinstance(fn.body.statements[0], ast.ExpressionStatement)

    def test_edges_recorded_per_splice(self):
        p = project(**{
            "index.php": "<?php include 'mid.php';",
            "mid.php": "<?php include 'leaf.php';",
            "leaf.php": "<?php $x = 1;",
        })
        result = resolve_includes(p, "index.php")
        assert result.edges == [("index.php", "mid.php"), ("mid.php", "leaf.php")]

    def test_edges_survive_once_dedup(self):
        # A second include_once splices nothing, but the dependency edge
        # is still real — the graph must record it.
        p = project(**{
            "a.php": "<?php include_once 'lib.php'; include 'b.php';",
            "b.php": "<?php include_once 'lib.php';",
            "lib.php": "<?php $x = 1;",
        })
        result = resolve_includes(p, "a.php")
        assert ("b.php", "lib.php") in result.edges
        assert ("a.php", "lib.php") in result.edges

    def test_entry_program_is_the_unspliced_entry(self):
        p = project(**{
            "index.php": "<?php include 'lib.php'; echo $x;",
            "lib.php": "<?php $x = 1; $y = 2; $z = 3;",
        })
        result = resolve_includes(p, "index.php")
        assert result.entry_program is not None
        # Two own statements, regardless of how much the splice added.
        assert len(result.entry_program.statements) == 2
        assert len(result.program.statements) == 4

    def test_parse_hook_is_used_for_every_file(self):
        p = project(**{
            "index.php": "<?php include 'lib.php';",
            "lib.php": "<?php $x = 1;",
        })
        cache = ParseCache()
        resolve_includes(p, "index.php", parse_hook=cache.parse)
        assert cache.misses == 2
        resolve_includes(p, "index.php", parse_hook=cache.parse)
        assert cache.hits == 2


class TestScanIncludes:
    def test_closure_and_edges(self):
        p = project(**{
            "index.php": "<?php include 'mid.php'; echo $x;",
            "mid.php": "<?php include 'leaf.php';",
            "leaf.php": "<?php $x = 1;",
            "unrelated.php": "<?php $y = 2;",
        })
        scan = scan_includes(p, "index.php")
        assert scan.closure == {"index.php", "mid.php", "leaf.php"}
        assert set(scan.edges) == {("index.php", "mid.php"), ("mid.php", "leaf.php")}
        assert scan.includes_by_file["mid.php"] == {"leaf.php"}
        assert scan.includes_by_file["leaf.php"] == set()
        assert not scan.widened

    def test_missing_target_recorded_not_raised(self):
        p = project(**{"index.php": "<?php require 'gone.php'; $x = 1;"})
        scan = scan_includes(p, "index.php")
        assert scan.missing == ["gone.php"]
        # A missing file cannot widen the closure: the splice outcome is
        # still a pure function of the project snapshot.
        assert not scan.widened

    def test_dynamic_include_widens(self):
        p = project(**{"index.php": "<?php include $page;"})
        scan = scan_includes(p, "index.php")
        assert len(scan.unresolved) == 1
        assert scan.widened

    def test_parse_failure_widens_but_stays_in_closure(self):
        p = project(**{
            "index.php": "<?php include 'broken.php';",
            "broken.php": "<?php if (",
        })
        scan = scan_includes(p, "index.php")
        assert scan.closure == {"index.php", "broken.php"}
        assert scan.parse_failures == ["broken.php"]
        assert scan.widened

    def test_cycles_terminate(self):
        p = project(**{
            "a.php": "<?php include 'b.php';",
            "b.php": "<?php include 'a.php';",
        })
        scan = scan_includes(p, "a.php")
        assert scan.closure == {"a.php", "b.php"}
        assert not scan.widened

    def test_relative_resolution_matches_resolver(self):
        p = project(**{
            "sub/page.php": "<?php include 'helper.php';",
            "sub/helper.php": "<?php $h = 1;",
        })
        scan = scan_includes(p, "sub/page.php")
        assert scan.closure == {"sub/page.php", "sub/helper.php"}

    def test_includes_inside_nested_bodies_are_seen(self):
        p = project(**{
            "index.php": (
                "<?php if ($a) { include 'x.php'; } "
                "while ($b) { include 'y.php'; } "
                "function f() { include 'z.php'; }"
            ),
            "x.php": "<?php $x = 1;",
            "y.php": "<?php $y = 1;",
            "z.php": "<?php $z = 1;",
        })
        scan = scan_includes(p, "index.php")
        assert scan.closure == {"index.php", "x.php", "y.php", "z.php"}

    def test_missing_entry_raises(self):
        with pytest.raises(IncludeError, match="entry"):
            scan_includes(project(), "nope.php")

    def test_parse_hook_shares_parses_across_entries(self):
        p = project(**{
            "a.php": "<?php include 'common.php';",
            "b.php": "<?php include 'common.php';",
            "common.php": "<?php $c = 1;",
        })
        cache = ParseCache()
        scan_includes(p, "a.php", parse_hook=cache.parse)
        scan_includes(p, "b.php", parse_hook=cache.parse)
        # common.php parsed once, hit once; each entry parsed once.
        assert cache.misses == 3 and cache.hits == 1
