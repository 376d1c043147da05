"""Include/require resolution across a multi-file project.

The paper's AST maker "handles external file inclusions along the way"
(§4).  Here a :class:`SourceProject` maps relative paths to source text
(backed by a dict, or read lazily from disk by a :class:`TreeProject`), and :func:`resolve_includes`
splices each statically-resolvable ``include``/``require`` expression
statement with the parsed statements of the target file.

Semantics implemented:

* ``include_once``/``require_once`` splice each file at most once per
  resolution walk.
* Include cycles raise :class:`IncludeError` (rather than looping).
* Missing files raise for ``require``/``require_once`` but are skipped
  with a recorded warning for ``include``/``include_once`` — matching
  PHP's fatal-vs-warning distinction.
* Only constant include paths (string literals and concatenations of
  string literals) resolve statically; dynamic paths are recorded as
  unresolved and left in place, where the flow analysis treats them as
  no-ops.

Both :func:`resolve_includes` and the flat dependency scanner
:func:`scan_includes` accept a ``parse_hook`` — any callable with the
:func:`repro.php.parser.parse` signature, typically a
:class:`repro.php.parsecache.ParseCache` — so shared preludes are parsed
once per content hash instead of once per entry.
"""

from __future__ import annotations

import os
import posixpath
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.php import ast_nodes as ast
from repro.php.errors import IncludeError
from repro.php.parser import parse

__all__ = [
    "SourceProject",
    "TreeProject",
    "IncludeResolution",
    "IncludeScan",
    "resolve_includes",
    "scan_includes",
]

#: Anything parse-shaped: ``hook(source, filename) -> Program``.
ParseHook = Callable[[str, str], ast.Program]


class SourceProject:
    """A set of PHP source files addressed by normalized relative paths."""

    def __init__(self, files: dict[str, str] | None = None) -> None:
        self._files: dict[str, str] = {}
        if files:
            for path, text in files.items():
                self.add_file(path, text)

    @classmethod
    def from_directory(cls, root: str | Path, pattern: str = "**/*.php") -> "SourceProject":
        root = Path(root)
        project = cls()
        for path in sorted(root.glob(pattern)):
            if path.is_file():
                project.add_file(str(path.relative_to(root)), path.read_text())
        return project

    def add_file(self, path: str, text: str) -> None:
        self._files[self.normalize(path)] = text

    @staticmethod
    def normalize(path: str) -> str:
        return posixpath.normpath(path.replace("\\", "/"))

    def has(self, path: str) -> bool:
        return self.normalize(path) in self._files

    def source(self, path: str) -> str:
        return self._files[self.normalize(path)]

    def paths(self) -> list[str]:
        return sorted(self._files)

    def __len__(self) -> int:
        return len(self._files)


class TreeProject(SourceProject):
    """Lazy disk-backed project over a known set of files.

    Maps normalized project-relative paths to on-disk ones and reads file
    text on first access only — auditing two entries reads two closures,
    not the whole tree.  Read failures (file vanished, permission lost)
    surface as ``OSError`` from :meth:`source`, for the caller to report
    per entry.
    """

    def __init__(self, disk_paths: dict[str, str]) -> None:
        super().__init__()
        self._disk_paths = disk_paths

    def __getstate__(self) -> dict:
        # A pickled tree is its path map, made absolute here: the
        # receiving process reads the texts it needs itself, maybe from
        # another working directory.
        return {
            "disk_paths": {
                path: os.path.abspath(disk) for path, disk in self._disk_paths.items()
            }
        }

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["disk_paths"])

    def has(self, path: str) -> bool:
        return self.normalize(path) in self._disk_paths

    def source(self, path: str) -> str:
        normalized = self.normalize(path)
        if normalized not in self._files and normalized in self._disk_paths:
            self._files[normalized] = Path(self._disk_paths[normalized]).read_text()
        return self._files[normalized]

    def paths(self) -> list[str]:
        return sorted(self._disk_paths)

    def __len__(self) -> int:
        return len(self._disk_paths)


@dataclass
class IncludeResolution:
    """Outcome of resolving one entry file."""

    program: ast.Program
    included_files: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    unresolved: list[str] = field(default_factory=list)
    #: Direct ``(includer, included)`` edges observed during the walk,
    #: including re-includes skipped by ``_once`` dedup (the dependency
    #: exists even when the splice does not repeat the text).
    edges: list[tuple[str, str]] = field(default_factory=list)
    #: The entry file's own parsed program (before splicing) — callers
    #: that need per-file statement counts can reuse it instead of
    #: parsing the entry a second time.
    entry_program: ast.Program | None = None


def _constant_path(expr: ast.Expression) -> str | None:
    """Extract a compile-time constant include path, if any."""
    if isinstance(expr, ast.Literal) and isinstance(expr.value, str):
        return expr.value
    if isinstance(expr, ast.Binary) and expr.op == ".":
        left = _constant_path(expr.left)
        right = _constant_path(expr.right)
        if left is not None and right is not None:
            return left + right
    if isinstance(expr, ast.InterpolatedString) and all(
        isinstance(p, str) for p in expr.parts
    ):
        return "".join(expr.parts)  # type: ignore[arg-type]
    return None


def resolve_includes(
    project: SourceProject,
    entry: str,
    max_depth: int = 32,
    parse_hook: ParseHook | None = None,
) -> IncludeResolution:
    """Parse ``entry`` and splice statically-resolvable includes inline."""
    do_parse = parse_hook if parse_hook is not None else parse
    resolution = IncludeResolution(program=ast.Program(span=None, statements=()))  # type: ignore[arg-type]
    once_included: set[str] = set()
    active_stack: list[str] = []

    def load(path: str, depth: int) -> tuple[ast.Program, tuple[ast.Statement, ...]]:
        normalized = project.normalize(path)
        if depth > max_depth:
            raise IncludeError(f"include depth exceeds {max_depth} at {normalized!r}")
        if normalized in active_stack:
            cycle = " -> ".join(active_stack + [normalized])
            raise IncludeError(f"include cycle detected: {cycle}")
        program = do_parse(project.source(normalized), normalized)
        active_stack.append(normalized)
        try:
            statements = splice(program.statements, depth)
        finally:
            active_stack.pop()
        return program, statements

    def splice(statements: tuple[ast.Statement, ...], depth: int) -> tuple[ast.Statement, ...]:
        out: list[ast.Statement] = []
        for stmt in statements:
            include = _as_include_statement(stmt)
            if include is None:
                out.append(_rewrite_children(stmt, depth))
                continue
            path = _constant_path(include.path)
            if path is None:
                resolution.unresolved.append(str(include.span))
                out.append(stmt)
                continue
            current_dir = posixpath.dirname(active_stack[-1]) if active_stack else ""
            candidates = [path]
            if current_dir:
                candidates.insert(0, posixpath.join(current_dir, path))
            found = next((c for c in candidates if project.has(c)), None)
            if found is None:
                message = f"{include.kind} target {path!r} not found (from {include.span})"
                if include.kind.startswith("require"):
                    raise IncludeError(message, include.span)
                resolution.warnings.append(message)
                continue
            normalized = project.normalize(found)
            resolution.edges.append((active_stack[-1], normalized))
            if include.kind.endswith("_once") and normalized in once_included:
                continue
            once_included.add(normalized)
            resolution.included_files.append(normalized)
            out.extend(load(normalized, depth + 1)[1])
        return tuple(out)

    def _rewrite_children(stmt: ast.Statement, depth: int) -> ast.Statement:
        """Recursively resolve includes inside nested statement bodies."""
        if isinstance(stmt, ast.Block):
            return ast.Block(stmt.span, splice(stmt.statements, depth))
        if isinstance(stmt, ast.If):
            return ast.If(
                stmt.span,
                stmt.condition,
                _rewrite_children(stmt.then, depth),
                tuple(
                    ast.ElseIfClause(c.span, c.condition, _rewrite_children(c.body, depth))
                    for c in stmt.elseifs
                ),
                _rewrite_children(stmt.orelse, depth) if stmt.orelse else None,
            )
        if isinstance(stmt, ast.While):
            return ast.While(stmt.span, stmt.condition, _rewrite_children(stmt.body, depth))
        if isinstance(stmt, ast.DoWhile):
            return ast.DoWhile(stmt.span, _rewrite_children(stmt.body, depth), stmt.condition)
        if isinstance(stmt, ast.For):
            return ast.For(
                stmt.span, stmt.init, stmt.condition, stmt.update, _rewrite_children(stmt.body, depth)
            )
        if isinstance(stmt, ast.Foreach):
            return ast.Foreach(
                stmt.span,
                stmt.subject,
                stmt.key_var,
                stmt.value_var,
                _rewrite_children(stmt.body, depth),
                stmt.by_reference,
            )
        if isinstance(stmt, ast.FunctionDecl):
            body = _rewrite_children(stmt.body, depth)
            assert isinstance(body, ast.Block)
            return ast.FunctionDecl(stmt.span, stmt.name, stmt.parameters, body)
        if isinstance(stmt, ast.Switch):
            return ast.Switch(
                stmt.span,
                stmt.subject,
                tuple(
                    ast.SwitchCase(c.span, c.test, splice(c.body, depth))
                    for c in stmt.cases
                ),
            )
        return stmt

    entry_normalized = project.normalize(entry)
    if not project.has(entry_normalized):
        raise IncludeError(f"entry file {entry!r} not found in project")
    once_included.add(entry_normalized)
    entry_program, statements = load(entry_normalized, 0)
    resolution.entry_program = entry_program
    resolution.program = ast.Program(entry_program.span, statements)
    return resolution


def _as_include_statement(stmt: ast.Statement) -> ast.IncludeExpr | None:
    """Match ``include 'x';`` (possibly @-suppressed) as a statement."""
    if not isinstance(stmt, ast.ExpressionStatement):
        return None
    expr = stmt.expression
    if isinstance(expr, ast.ErrorSuppress):
        expr = expr.operand
    if isinstance(expr, ast.IncludeExpr):
        return expr
    return None


@dataclass
class IncludeScan:
    """Flat dependency view of one entry: its transitive include closure.

    Unlike :class:`IncludeResolution` this never splices, never raises
    for cycles or missing targets, and tolerates files that fail to
    parse — it answers "which project files can this entry's audit
    depend on?", which must be computable even when the audit itself
    will error.  Closure membership is a pure function of the project
    snapshot, so hashing the closure's contents is a sound cache key
    unless :attr:`widened` says the closure may be incomplete.
    """

    entry: str
    #: Entry plus every transitively reachable include target (files
    #: that failed to parse stay in the closure; their own includes are
    #: simply unknown — see :attr:`widened`).
    closure: set[str] = field(default_factory=set)
    #: Direct ``(includer, included)`` edges in discovery order.
    edges: list[tuple[str, str]] = field(default_factory=list)
    #: Per-file direct include targets — the exact shape
    #: :meth:`repro.php.parsecache.IncludeGraph.update_file` wants.
    includes_by_file: dict[str, set[str]] = field(default_factory=dict)
    #: Constant include paths with no matching project file.
    missing: list[str] = field(default_factory=list)
    #: Spans of dynamic (non-constant) include paths.
    unresolved: list[str] = field(default_factory=list)
    #: Files whose includes are unknown because they did not parse.
    parse_failures: list[str] = field(default_factory=list)
    #: Content digest of each closure member at scan time.
    digests: dict[str, str] = field(default_factory=dict)

    @property
    def widened(self) -> bool:
        """True when the closure may under-approximate the dependency
        set (dynamic includes or unparsable members), so callers must
        conservatively key on the whole project instead."""
        return bool(self.unresolved or self.parse_failures)


def _iter_statements(statements: tuple[ast.Statement, ...]):
    """Yield every statement in ``statements``, recursing into the same
    nested bodies ``resolve_includes`` rewrites."""
    for stmt in statements:
        yield stmt
        if isinstance(stmt, ast.Block):
            yield from _iter_statements(stmt.statements)
        elif isinstance(stmt, ast.If):
            yield from _iter_statements((stmt.then,))
            for clause in stmt.elseifs:
                yield from _iter_statements((clause.body,))
            if stmt.orelse is not None:
                yield from _iter_statements((stmt.orelse,))
        elif isinstance(stmt, (ast.While, ast.DoWhile, ast.For, ast.Foreach)):
            yield from _iter_statements((stmt.body,))
        elif isinstance(stmt, ast.FunctionDecl):
            yield from _iter_statements((stmt.body,))
        elif isinstance(stmt, ast.Switch):
            for case in stmt.cases:
                yield from _iter_statements(case.body)


def scan_includes(
    project: SourceProject,
    entry: str,
    parse_hook: ParseHook | None = None,
) -> IncludeScan:
    """Compute ``entry``'s transitive include closure without splicing.

    Raises :class:`IncludeError` only when the entry itself is missing
    (parity with :func:`resolve_includes`); every other irregularity —
    missing targets, dynamic paths, unparsable members, cycles — is
    recorded on the scan and the walk continues, because the scheduler
    needs a dependency answer even for files whose audit will fail.
    """
    from repro.php.parsecache import content_digest

    do_parse = parse_hook if parse_hook is not None else parse
    entry_normalized = project.normalize(entry)
    if not project.has(entry_normalized):
        raise IncludeError(f"entry file {entry!r} not found in project")
    scan = IncludeScan(entry=entry_normalized)
    scan.closure.add(entry_normalized)
    queue = [entry_normalized]
    while queue:
        current = queue.pop()
        text = project.source(current)
        scan.digests[current] = content_digest(text)
        targets: set[str] = set()
        scan.includes_by_file[current] = targets
        try:
            program = do_parse(text, current)
        except Exception:  # noqa: BLE001 - unparsable member: includes unknown
            scan.parse_failures.append(current)
            continue
        current_dir = posixpath.dirname(current)
        for stmt in _iter_statements(program.statements):
            include = _as_include_statement(stmt)
            if include is None:
                continue
            path = _constant_path(include.path)
            if path is None:
                scan.unresolved.append(str(include.span))
                continue
            candidates = [path]
            if current_dir:
                candidates.insert(0, posixpath.join(current_dir, path))
            found = next((c for c in candidates if project.has(c)), None)
            if found is None:
                scan.missing.append(path)
                continue
            normalized = project.normalize(found)
            targets.add(normalized)
            scan.edges.append((current, normalized))
            if normalized not in scan.closure:
                scan.closure.add(normalized)
                queue.append(normalized)
    return scan
