"""The instrumentor: splicing runtime guards into PHP source.

Two strategies, matching the paper's comparison:

* :func:`instrument_ts` — the TS strategy: every violating sink argument
  is sanitized at the *call site* (symptom).  One guard per reported
  violation.
* :func:`instrument_bmc` — the BMC strategy: each error *group*'s fixing
  variable is sanitized where its offending value is introduced (cause).
  One guard per group — the 41.0% reduction of the paper's headline.

Both operate as pure text edits against the original source, so the
output remains runnable PHP (and re-analyzable: verifying an
instrumented file reports it safe, which the tests check).  The
``collect_*`` helpers return the edits; :func:`apply_edits` applies them
to the text, and :func:`splice_edits` applies the same edits, in the
same order, to the original file's parsed tree.  Witness replay runs the
patched program from the spliced tree, so it never parses patched text;
the spliced tree equals the parse of the patched text up to spans.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

from repro.analysis.grouping import GroupingResult
from repro.instrument.guards import GUARD_FUNCTION_NAME
from repro.php import ast_nodes as ast
from repro.php.parser import parse
from repro.php.span import Span
from repro.typestate.ts import TSReport

__all__ = [
    "InstrumentationResult",
    "SpliceError",
    "instrument_ts",
    "instrument_bmc",
    "apply_edits",
    "splice_edits",
]


@dataclass
class InstrumentationResult:
    """Patched source plus accounting."""

    source: str
    #: Number of guards in the paper's accounting: violations for TS,
    #: groups (fixing variables) for BMC.
    num_guards: int
    #: Number of physical text edits actually applied.
    num_edits: int
    notes: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class _Edit:
    offset: int
    #: 'insert' places text at offset; 'wrap' wraps [offset, end).
    kind: str
    text: str
    end: int = 0

    def sort_key(self) -> tuple[int, int]:
        return (self.offset, 0 if self.kind == "wrap" else 1)


def _ordered_edits(edits: list[_Edit]) -> list[_Edit]:
    """The distinct edits in the order they are applied: from the end of
    the file backwards, so earlier offsets stay valid.  Edits at one
    offset keep their collection order, so the text of the later one
    lands in front."""
    seen: set[tuple] = set()
    unique: list[_Edit] = []
    for edit in edits:
        key = (edit.kind, edit.offset, edit.end, edit.text)
        if key not in seen:
            seen.add(key)
            unique.append(edit)
    return sorted(unique, key=_Edit.sort_key, reverse=True)


def _apply_edits(source: str, edits: list[_Edit]) -> str:
    for edit in _ordered_edits(edits):
        if edit.kind == "insert":
            source = source[: edit.offset] + edit.text + source[edit.offset :]
        else:
            original = source[edit.offset : edit.end]
            source = (
                source[: edit.offset]
                + f"{GUARD_FUNCTION_NAME}({original})"
                + source[edit.end :]
            )
    return source


def _statement_end(source: str, span: Span) -> tuple[int, str]:
    """Where a guard goes after the statement at ``span`` ends, and the
    text that must precede the guard there.

    Normally just after the next ``;``.  When a ``{`` appears first, the
    span sits in the condition of a compound statement (``while ($row =
    ...) {``), and the insertion point is the start of that body so the
    guard runs each iteration, right after the assignment.  When a
    ``?>`` closing tag appears first, the tag ends the statement: the
    guard goes in front of the tag, after a ``;`` that ends the
    statement in its place.
    """
    after = span.end.offset
    candidates = [
        (index, kind)
        for index, kind in (
            (source.find(";", after), ";"),
            (source.find("{", after), "{"),
            (source.find("?>", after), "?>"),
        )
        if index != -1
    ]
    if not candidates:
        return len(source), ""
    index, kind = min(candidates)
    if kind == "?>":
        return index, ";"
    return index + 1, ""


def _statement_start(source: str, span: Span) -> int:
    """Offset just before the statement containing ``span`` begins.

    Scans backwards for the nearest statement boundary (``;``, ``{``,
    ``}``, or the ``<?php`` tag) so a guard inserted here runs after any
    earlier statements on the same line.  (A ``;`` inside a string
    literal of the *previous* statement could fool the scan; the corpus
    generator avoids that shape.)
    """
    boundary = max(
        source.rfind(";", 0, span.start.offset),
        source.rfind("{", 0, span.start.offset),
        source.rfind("}", 0, span.start.offset),
    )
    tag = source.rfind("<?php", 0, span.start.offset)
    if tag != -1:
        boundary = max(boundary, tag + len("<?php") - 1)
    return boundary + 1


def _guard_statement(target_text: str) -> str:
    return f" {target_text} = {GUARD_FUNCTION_NAME}({target_text});"


_LVALUE_RE = __import__("re").compile(
    r"^\$[A-Za-z_][A-Za-z0-9_]*(->[A-Za-z_][A-Za-z0-9_]*|\[[^\[\]]*\])*$"
)


def _assignment_target_text(source: str, span: Span) -> str | None:
    """The textual left-hand side of the assignment at ``span``.

    The introduction span of an error group covers an assignment like
    ``$this->title = $t`` or ``$sid = $_GET['sid']``; re-sanitizing that
    exact textual target in place is scope-correct even inside unfolded
    functions and methods, where the IR name (``p->title``,
    ``page@1::t``) would not be.
    """
    text = source[span.start.offset : span.end.offset]
    depth = 0
    for index, ch in enumerate(text):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch == "=" and depth == 0:
            if index + 1 < len(text) and text[index + 1] == "=":
                return None
            if index > 0 and text[index - 1] in "!<>+-*/.%&|^":
                return None
            candidate = text[:index].strip()
            return candidate if _LVALUE_RE.match(candidate) else None
    return None


def collect_ts_edits(
    source: str, report: TSReport, filename: str = "<string>"
) -> tuple[list[_Edit], list[str]]:
    """The text edits the TS strategy wants in ``filename`` (not applied)."""
    edits: list[_Edit] = []
    notes: list[str] = []
    for violation in report.violations:
        if violation.span.filename != filename:
            continue
        php_name = violation.php_name
        if violation.arg_span is not None and (
            php_name is None or "->" in violation.variable
        ):
            # Hoisted expressions and receiver-qualified names (whose
            # local spelling differs from the IR name) are sanitized by
            # wrapping the argument text in place.
            edits.append(
                _Edit(
                    offset=violation.arg_span.start.offset,
                    kind="wrap",
                    text="",
                    end=violation.arg_span.end.offset,
                )
            )
        elif php_name is not None:
            edits.append(
                _Edit(
                    offset=_statement_start(source, violation.span),
                    kind="insert",
                    text=_guard_statement(f"${php_name}"),
                )
            )
        else:
            notes.append(f"no patch point for {violation}")
    return edits, notes


def instrument_ts(source: str, report: TSReport, filename: str = "<string>") -> InstrumentationResult:
    """Symptom-site guards: sanitize each violating argument at its sink.

    A violation on a real variable inserts ``$v = sanitize($v);`` on the
    line before the sink call; a violation on a hoisted expression wraps
    the original argument text in the guard call.
    """
    edits, notes = collect_ts_edits(source, report, filename)
    patched = _apply_edits(source, edits)
    return InstrumentationResult(
        source=patched,
        num_guards=report.num_violations,
        num_edits=len(edits),
        notes=notes,
    )


def collect_bmc_edits(
    source: str, grouping: GroupingResult, filename: str = "<string>"
) -> tuple[list[_Edit], list[str]]:
    """The text edits the BMC strategy wants in ``filename`` (not applied)."""
    edits: list[_Edit] = []
    notes: list[str] = []
    for group in grouping.groups:
        spans = [s for s in group.introduction_spans if s.filename == filename]
        spans_elsewhere = [
            s for s in group.introduction_spans if s.filename != filename
        ]
        patched = False
        for span in spans:
            # Prefer the textual assignment target at the introduction
            # point — scope-correct even inside unfolded methods where
            # the IR name differs from the local spelling.
            target = _assignment_target_text(source, span)
            if target is None and group.php_name is not None and "->" not in group.fix_variable:
                target = f"${group.php_name}"
            if target is not None:
                offset, terminator = _statement_end(source, span)
                edits.append(
                    _Edit(
                        offset=offset,
                        kind="insert",
                        text=terminator + _guard_statement(target),
                    )
                )
                patched = True
        if not patched and not spans_elsewhere:
            # Hoisted expression (or no usable introduction text) and no
            # other file owns the introduction: wrap the sink argument
            # text of each trace in this file.
            for trace in group.traces:
                for span in _sink_arg_spans(trace, filename):
                    edits.append(
                        _Edit(offset=span.start.offset, kind="wrap", text="", end=span.end.offset)
                    )
                    patched = True
        if not patched and not spans_elsewhere:
            notes.append(f"no patch point for group {group.fix_variable} in {filename}")
    return edits, notes


def instrument_bmc(
    source: str, grouping: GroupingResult, filename: str = "<string>"
) -> InstrumentationResult:
    """Cause-site guards: sanitize each group's fixing variable where the
    offending value is introduced."""
    edits, notes = collect_bmc_edits(source, grouping, filename)
    patched = _apply_edits(source, edits)
    return InstrumentationResult(
        source=patched,
        num_guards=grouping.num_groups,
        num_edits=len(edits),
        notes=notes,
    )


def apply_edits(source: str, edits: list[_Edit]) -> str:
    """Apply (deduplicated) edits collected by the ``collect_*`` helpers."""
    return _apply_edits(source, edits)


class SpliceError(ValueError):
    """An edit that has no place in the parsed tree."""


def splice_edits(program: ast.Program, edits: list[_Edit]) -> ast.Program:
    """``program`` with ``edits`` applied to the tree instead of the text.

    The result equals ``parse(apply_edits(source, edits))`` up to spans,
    where ``program`` is the parse of ``source``: the edits are
    deduplicated and applied in the order :func:`apply_edits` uses.

    * An ``insert`` becomes its parsed guard statement, placed in the
      innermost statement list (of a ``Program``, ``Block`` or
      ``SwitchCase``) whose neighbours bracket the edit's offset.  The
      guard gets a point span at that offset (line and column 0), so a
      later guard at the same offset lands in front of it, as its text
      does.
    * A ``wrap`` replaces the outermost expression spanning exactly
      ``[offset, end)`` with a call of the guard function on it.

    Raises :class:`SpliceError` for an edit with no such place, for
    example a guard inside a ``for`` header or between a braceless
    ``if`` body and its ``else``.
    """
    filename = program.span.filename
    for edit in _ordered_edits(edits):
        if edit.kind == "insert":
            point = Span.point(filename, edit.offset, 0, 0)
            guards = tuple(
                replace(stmt, span=point) for stmt in _guard_statements(edit.text)
            )
            spliced = _insert(program, edit.offset, guards)
            where = f"no statement boundary for the guard at offset {edit.offset}"
        else:
            spliced = _wrap(program, edit.offset, edit.end)
            where = f"no expression spans offsets {edit.offset}-{edit.end}"
        if spliced is None:
            raise SpliceError(f"{where} of {filename}")
        program = spliced
    return program


@lru_cache(maxsize=256)
def _guard_statements(text: str) -> tuple[ast.Statement, ...]:
    return parse("<?php " + text, "<guard>").statements


def _children(node: ast.Node):
    """``(field, index, child)`` for each child node; ``index`` is None
    for a field that holds the node itself rather than a tuple."""
    for name in ast.child_fields(type(node)):
        value = getattr(node, name)
        if isinstance(value, ast.Node):
            yield name, None, value
        elif isinstance(value, tuple):
            for index, item in enumerate(value):
                if isinstance(item, ast.Node):
                    yield name, index, item


def _with_child(node: ast.Node, name: str, index: int | None, child: ast.Node):
    if index is None:
        return replace(node, **{name: child})
    items = getattr(node, name)
    return replace(node, **{name: items[:index] + (child,) + items[index + 1 :]})


def _insert(node: ast.Node, offset: int, guards: tuple) -> ast.Node | None:
    """``node`` with ``guards`` placed at ``offset``, or None."""
    if isinstance(node, ast.Switch):
        # A case's span covers only its keyword; its body runs up to the
        # next case's keyword.
        before = [
            i for i, case in enumerate(node.cases) if case.span.end.offset <= offset
        ]
        if not before:
            return None
        placed = _insert(node.cases[before[-1]], offset, guards)
        return None if placed is None else _with_child(node, "cases", before[-1], placed)
    for name, index, child in _children(node):
        if child.span.start.offset < offset < child.span.end.offset:
            placed = _insert(child, offset, guards)
            return None if placed is None else _with_child(node, name, index, placed)
    if isinstance(node, (ast.Program, ast.Block)):
        name = "statements"
    elif isinstance(node, ast.SwitchCase) and (
        node.test is None or node.test.span.end.offset <= offset
    ):
        name = "body"
    else:
        return None
    items = getattr(node, name)
    index = next(
        (i for i, stmt in enumerate(items) if stmt.span.start.offset >= offset),
        len(items),
    )
    return replace(node, **{name: items[:index] + guards + items[index:]})


def _wrap(node: ast.Node, start: int, end: int) -> ast.Node | None:
    """``node`` with the expression spanning ``[start, end)`` guarded, or None."""
    span = node.span
    if (
        isinstance(node, ast.Expression)
        and span.start.offset == start
        and span.end.offset == end
    ):
        return ast.FunctionCall(span, GUARD_FUNCTION_NAME, (node,))
    for name, index, child in _children(node):
        if child.span.start.offset <= start and end <= child.span.end.offset:
            wrapped = _wrap(child, start, end)
            if wrapped is not None:
                return _with_child(node, name, index, wrapped)
    return None


def _sink_arg_spans(trace, filename: str) -> list[Span]:
    """Best-effort argument spans for a trace's sink: the defining spans
    of the temp assignments feeding the violating variables."""
    spans = []
    violating_names = trace.violating_names
    for step in trace.steps:
        if step.target.name in violating_names and step.span.filename == filename:
            spans.append(step.span)
    return spans
