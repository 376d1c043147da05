"""Replay builds each patched program by splicing the BMC strategy's
guards into the original file's parsed tree.

The patched text stays what ``repro patch`` and ``instrument_bmc``
write; the spliced tree must be the tree that text parses to, up to
spans.  An edit with no statement boundary to land on makes that file's
patched run ``unsupported``, never a crash and never ``refuted``.
"""

from dataclasses import fields
from pathlib import Path

import pytest

from repro import WebSSARI
from repro.corpus import FIGURE_10, generate_catalog_project
from repro.instrument import instrument_bmc
from repro.instrument.instrumentor import (
    SpliceError,
    _Edit,
    apply_edits,
    collect_bmc_edits,
    splice_edits,
)
from repro.php import ast_nodes as ast
from repro.php import parser as php_parser
from repro.php.includes import SourceProject
from repro.php.parser import parse
from repro.replay import collect_input_keys, replay_counterexamples, replay_source
from repro.replay.conditions import _input_slot

EXAMPLES = Path(__file__).resolve().parent.parent / "examples" / "php"

#: The vulnerable samples of tests/test_php_alternative_syntax.py, and
#: tainted variants of its other shapes.
ALTERNATIVE_SYNTAX = [
    "<?php if ($c): $x = $_GET['q']; endif; echo $x;",
    (
        "<?php if ($_GET['greet'] == '1'): $name = $_GET['name']; ?>"
        "Hello <?= $name ?>!"
        "<?php endif; ?>"
    ),
    "<?php while ($c): $x = $_GET['q']; echo $x; endwhile;",
    "<?php foreach ($rows as $row): $x = $_GET['q']; ?><li><?= $x ?></li><?php endforeach; ?>",
    "<?php switch ($_GET['m']): case 1: $x = $_GET['q']; echo $x; break; endswitch;",
    "<?php if ($a): $x = 1; elseif ($b): $x = $_GET['q']; else: $x = 2; endif; echo $x;",
]

CLOSE_TAG = [
    "<?php $x = $_GET['a'] ?><p>&nbsp;</p><?php echo $x; ?>",
    "<?php\n$x = $_GET['a'] ?>\n<p>hi</p>\n<?php echo $x;",
]


def strip(node):
    """``node`` as plain data with every span left out."""
    if isinstance(node, ast.Node):
        return (type(node).__name__,) + tuple(
            strip(getattr(node, f.name)) for f in fields(node) if f.name != "span"
        )
    if isinstance(node, tuple):
        return tuple(strip(item) for item in node)
    return node


def patched_files(project: SourceProject, websari: WebSSARI):
    """``(path, source, edits)`` for every file a vulnerable entry's BMC
    grouping patches."""
    for report in websari.verify_project(project).reports:
        if report.safe:
            continue
        for path in project.paths():
            source = project.source(path)
            edits, _notes = collect_bmc_edits(source, report.grouping, path)
            if edits:
                yield path, source, edits


def assert_round_trip(source: str, edits, filename: str = "t.php") -> None:
    spliced = splice_edits(parse(source, filename), edits)
    assert strip(spliced) == strip(parse(apply_edits(source, edits), filename))


def standalone_edits(source: str, filename: str = "t.php"):
    report = WebSSARI().verify_source(source, filename)
    assert not report.safe
    edits, _notes = collect_bmc_edits(source, report.grouping, filename)
    assert edits
    return report, edits


def figure10_trees():
    for entry in FIGURE_10:
        project = generate_catalog_project(entry, seed=2004).project
        for path in project.paths():
            yield parse(project.source(path), path)


class TestChildFields:
    """The per-class child-field table that the splice and the input-key
    walk read instead of every field."""

    def test_every_node_sits_in_a_child_field(self):
        for tree in figure10_trees():
            stack = [tree]
            while stack:
                node = stack.pop()
                names = ast.child_fields(type(node))
                for f in fields(node):
                    value = getattr(node, f.name)
                    items = value if isinstance(value, tuple) else (value,)
                    nodes = [item for item in items if isinstance(item, ast.Node)]
                    if f.name not in names:
                        assert not nodes, (type(node).__name__, f.name)
                    stack.extend(nodes)

    def test_input_keys_match_a_recursive_walk(self):
        def walk(node):
            yield node
            for f in fields(node):
                value = getattr(node, f.name)
                for item in value if isinstance(value, tuple) else (value,):
                    if isinstance(item, ast.Node):
                        yield from walk(item)

        def reference(program):
            seen = {}
            for node in walk(program):
                slot = _input_slot(node)
                if slot is not None:
                    seen.setdefault(slot, None)
            return list(seen)

        sample = parse(
            "<?php list($a, , $b) = $_GET['l']; echo \"{$_POST['p']} $x\";"
            " $r = $HTTP_REFERER . $_COOKIE['c'] . $_SERVER['HTTP_USER_AGENT'];"
        )
        assert collect_input_keys(sample) == reference(sample)
        assert len(collect_input_keys(sample)) == 5
        for tree in figure10_trees():
            assert collect_input_keys(tree) == reference(tree)


class TestRoundTrip:
    def test_figure10_projects(self):
        websari = WebSSARI()
        patched = 0
        for entry in FIGURE_10:
            project = generate_catalog_project(entry, seed=2004).project
            for path, source, edits in patched_files(project, websari):
                assert_round_trip(source, edits, path)
                patched += 1
        assert patched > 100

    def test_examples(self):
        project = SourceProject.from_directory(EXAMPLES)
        patched = 0
        for path, source, edits in patched_files(project, WebSSARI()):
            assert_round_trip(source, edits, path)
            patched += 1
        assert patched > 0

    @pytest.mark.parametrize("source", ALTERNATIVE_SYNTAX)
    def test_alternative_syntax(self, source):
        _report, edits = standalone_edits(source)
        assert_round_trip(source, edits)


class TestEdgeCases:
    def test_while_body_start(self):
        source = (
            "<?php $r = mysql_query('x');\n"
            "while ($row = mysql_fetch_array($r)) { echo $row['a']; }\n"
        )
        _report, edits = standalone_edits(source)
        assert source[: edits[0].offset].endswith("{")
        assert_round_trip(source, edits)
        loop = splice_edits(parse(source, "t.php"), edits).statements[1]
        assert isinstance(loop, ast.While)
        guard = loop.body.statements[0]
        assert isinstance(guard, ast.ExpressionStatement)
        assert guard.expression.value.name == "__webssari_sanitize"

    def test_braceless_if(self):
        source = "<?php if ($_GET['go']) $x = $_GET['a']; echo $x;"
        report, edits = standalone_edits(source)
        assert_round_trip(source, edits)
        # The guard follows the whole `if`, as in the patched text.
        spliced = splice_edits(parse(source, "t.php"), edits)
        assert [type(s).__name__ for s in spliced.statements] == [
            "If", "ExpressionStatement", "Echo",
        ]
        assert [r.patched for r in replay_source(source, report, "t.php")] == ["refuted"]

    def test_two_guards_at_one_offset(self):
        source = "<?php $x = $y = $_GET['a']; echo $x; echo $y;"
        report, edits = standalone_edits(source)
        assert len({edit.offset for edit in edits}) == 1 < len(edits)
        assert_round_trip(source, edits)
        results = replay_source(source, report, "t.php")
        assert results and all(r.patched == "refuted" for r in results)

    def test_guards_at_one_offset_keep_the_text_order(self):
        source = "<?php $a = 1;$b = 2; echo $b;"
        offset = source.index("$b")
        edits = [
            _Edit(offset, "insert", " $a = __webssari_sanitize($a);"),
            _Edit(offset, "insert", " $b = __webssari_sanitize($b);"),
            _Edit(offset, "insert", " $a = __webssari_sanitize($a);"),
        ]
        assert_round_trip(source, edits)

    def test_wrap(self):
        source = "<?php echo 'a' . $_GET['q'] . 'b';"
        report, edits = standalone_edits(source)
        assert [edit.kind for edit in edits] == ["wrap"]
        assert_round_trip(source, edits)
        echo = splice_edits(parse(source, "t.php"), edits).statements[0]
        assert echo.arguments[0].name == "__webssari_sanitize"
        assert [r.patched for r in replay_source(source, report, "t.php")] == ["refuted"]

    def test_switch_case_body(self):
        source = (
            "<?php switch ($_GET['m']) { case 'a': $x = $_GET['a']; echo $x; "
            "break; default: echo 'n'; }"
        )
        report, edits = standalone_edits(source)
        assert_round_trip(source, edits)
        switch = splice_edits(parse(source, "t.php"), edits).statements[0]
        assert len(switch.cases[0].body) == 4 and len(switch.cases[1].body) == 1
        assert [r.patched for r in replay_source(source, report, "t.php")] == ["refuted"]

    @pytest.mark.parametrize("source", CLOSE_TAG)
    def test_close_tag_ends_the_statement(self, source):
        websari = WebSSARI()
        report, edits = standalone_edits(source)
        assert source[edits[0].offset :].startswith("?>")
        assert_round_trip(source, edits)
        patched = instrument_bmc(source, report.grouping, "t.php").source
        assert websari.verify_source(patched, "t.php").safe
        results = replay_source(source, report, "t.php")
        assert [(r.verdict, r.patched) for r in results] == [("confirmed", "refuted")]


class TestUnplaceable:
    @pytest.mark.parametrize(
        "source",
        [
            "<?php if ($_GET['go']) $x = $_GET['a']; else $x = 'b'; echo $x;",
            "<?php for ($i = $_GET['a']; $i != 'z'; $i = 'z') { echo $i; }",
        ],
        ids=["braceless-if-else", "for-header"],
    )
    def test_patched_run_is_unsupported(self, source):
        report, edits = standalone_edits(source)
        with pytest.raises(SpliceError, match=f"offset {edits[0].offset} of t.php"):
            splice_edits(parse(source, "t.php"), edits)
        results = replay_source(source, report, "t.php")
        assert results and all(r.verdict == "confirmed" for r in results)
        assert all(r.patched == "unsupported" for r in results)
        assert all(
            f"patched run: SpliceError: no statement boundary for the guard at offset "
            f"{edits[0].offset}" in r.reason
            for r in results
        )

    def test_wrap_without_an_expression(self):
        source = "<?php echo $a . $b;"
        with pytest.raises(SpliceError, match="no expression spans offsets 6-8"):
            splice_edits(parse(source, "t.php"), [_Edit(6, "wrap", "", 8)])


def test_replay_parses_no_patched_source(monkeypatch):
    """A replayed task parses each original once, through its hook, and
    never parses a patched source (only the guard snippets themselves)."""
    entry = "<?php include 'lib.php'; echo $x; $y = $_GET['b']; echo $y;\n"
    files = {"index.php": entry, "lib.php": "<?php $x = $_GET['x'];\n"}
    report, _includes = WebSSARI().verify_file(
        "index.php", project=SourceProject(files), entry="index.php"
    )
    assert {
        name for name, text in files.items()
        if collect_bmc_edits(text, report.grouping, name)[0]
    } == set(files)
    traces = report.bmc.all_counterexamples()

    parsed = []
    real = php_parser.Parser.parse_program

    def spy(self):
        parsed.append(self._filename)
        return real(self)

    hooked = []

    def hook(text, filename):
        hooked.append((text, filename))
        return parse(text, filename)

    monkeypatch.setattr(php_parser.Parser, "parse_program", spy)
    results = replay_counterexamples(
        files, "index.php", traces, report.grouping, parse_hook=hook
    )
    assert len(results) >= 2
    assert all(r.patched == "refuted" for r in results)
    assert sorted(hooked) == sorted((text, name) for name, text in files.items())
    assert [name for name in parsed if name != "<guard>"] == [name for _, name in hooked]
