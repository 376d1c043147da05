"""Execution environment: simulated HTTP request, output buffer, mock DB.

The interpreter runs a PHP script the way a web server would serve one
request: superglobals are populated from a :class:`HttpRequest`, ``echo``
output accumulates into a response buffer, and the ``mysql_*`` functions
talk to a :class:`MockDatabase` — a tiny in-memory engine that
understands the ``INSERT INTO t (cols) VALUES (...)``, ``SELECT ... FROM
t [WHERE col=value]``, ``UPDATE``, ``DELETE`` and ``DROP TABLE`` shapes
the corpus and the paper's figures generate.  Every executed SQL string
is also appended verbatim to ``query_log`` so examples and tests can
detect injection (e.g. a smuggled ``DROP TABLE``) structurally.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.interp.values import PhpArray, to_string

__all__ = ["HttpRequest", "MockDatabase", "QueryResult", "ExecutionEnvironment"]

_STATEMENT = re.IGNORECASE | re.DOTALL
_INSERT = re.compile(
    r"insert\s+into\s+(\w+)\s*(?:\(([^)]*)\))?\s*values\s*\((.*)\)\s*$", _STATEMENT
)
_SELECT = re.compile(r"select\s+(.*?)\s+from\s+(\w+)(?:\s+where\s+(.*))?$", _STATEMENT)
_DROP = re.compile(r"drop\s+table\s+\(?'?\"?(\w+)", re.IGNORECASE)
_DELETE = re.compile(r"delete\s+from\s+(\w+)(?:\s+where\s+(.*))?$", _STATEMENT)
_UPDATE = re.compile(r"update\s+(\w+)\s+set\s+(.*?)(?:\s+where\s+(.*))?$", _STATEMENT)
_EQUALITY = re.compile(r"\s*(\w+(?:\.\w+)?)\s*=\s*(.+?)\s*$")


@dataclass
class HttpRequest:
    """One simulated HTTP request feeding the superglobals."""

    get: dict[str, str] = field(default_factory=dict)
    post: dict[str, str] = field(default_factory=dict)
    cookies: dict[str, str] = field(default_factory=dict)
    referer: str = ""
    user_agent: str = ""
    server: dict[str, str] = field(default_factory=dict)

    def superglobals(self) -> dict[str, object]:
        server = PhpArray(
            {
                "HTTP_REFERER": self.referer,
                "HTTP_USER_AGENT": self.user_agent,
                **self.server,
            }
        )
        request = PhpArray({**self.get, **self.post, **self.cookies})
        return {
            "_GET": PhpArray(dict(self.get)),
            "_POST": PhpArray(dict(self.post)),
            "_COOKIE": PhpArray(dict(self.cookies)),
            "_REQUEST": request,
            "_SERVER": server,
            "HTTP_GET_VARS": PhpArray(dict(self.get)),
            "HTTP_POST_VARS": PhpArray(dict(self.post)),
            "HTTP_REFERER": self.referer,
            "HTTP_USER_AGENT": self.user_agent,
        }


class QueryResult:
    """A mysql result resource: rows plus a cursor for fetch_array."""

    def __init__(self, rows: list[dict]) -> None:
        self.rows = rows
        self.cursor = 0

    def fetch(self) -> dict | None:
        if self.cursor >= len(self.rows):
            return None
        row = self.rows[self.cursor]
        self.cursor += 1
        return row


class SqlError(ValueError):
    pass


class MockDatabase:
    """In-memory tables plus a verbatim query log."""

    def __init__(self) -> None:
        self.tables: dict[str, list[dict]] = {}
        self.query_log: list[str] = []
        self.dropped_tables: list[str] = []

    def create_table(self, name: str, rows: list[dict] | None = None) -> None:
        self.tables[name] = list(rows or [])

    def execute(self, sql: str) -> QueryResult | bool:
        self.query_log.append(sql)
        results: QueryResult | bool = True
        # A smuggled statement separator executes each piece — this is
        # exactly what makes SQL injection observable at runtime.
        for statement in self._split_statements(sql):
            results = self._execute_one(statement)
        return results

    @staticmethod
    def _split_statements(sql: str) -> list[str]:
        """Split on ';' like a real engine would: separators inside quoted
        strings do not end a statement (so properly escaped input cannot
        smuggle a second statement, but quote-breakout injection can)."""
        if ";" not in sql:
            statement = sql.strip()
            return [statement] if statement else []
        pieces: list[str] = []
        start = 0
        quote: str | None = None
        i = 0
        while i < len(sql):
            ch = sql[i]
            if quote is not None:
                if ch == "\\":
                    i += 2  # the escaped character never ends the string
                    continue
                if ch == quote:
                    quote = None
            elif ch in ("'", '"'):
                quote = ch
            elif ch == ";":
                pieces.append(sql[start:i].strip())
                start = i + 1
            i += 1
        pieces.append(sql[start:].strip())
        return [p for p in pieces if p]

    def _execute_one(self, sql: str) -> QueryResult | bool:
        match = _INSERT.match(sql)
        if match:
            return self._insert(match.group(1), match.group(2), match.group(3))
        match = _SELECT.match(sql)
        if match:
            return self._select(match.group(1), match.group(2), match.group(3))
        match = _DROP.match(sql)
        if match:
            name = match.group(1)
            self.tables.pop(name, None)
            self.dropped_tables.append(name)
            return True
        match = _DELETE.match(sql)
        if match:
            table = match.group(1)
            predicate = self._predicate(match.group(2))
            rows = self.tables.get(table, [])
            self.tables[table] = [row for row in rows if not predicate(row)]
            return True
        match = _UPDATE.match(sql)
        if match:
            return self._update(match.group(1), match.group(2), match.group(3))
        # Unknown statements succeed silently (the corpus only needs the
        # shapes above); the verbatim log still captures them.
        return True

    def _insert(self, table: str, columns: str | None, values: str) -> bool:
        rows = self.tables.setdefault(table, [])
        parsed_values = self._parse_value_list(values)
        if columns:
            names = [c.strip().strip("`") for c in columns.split(",")]
        else:
            names = [f"col{i}" for i in range(len(parsed_values))]
        rows.append(dict(zip(names, parsed_values)))
        return True

    def _select(self, columns: str, table: str, where: str | None) -> QueryResult:
        rows = self.tables.get(table, [])
        predicate = self._predicate(where)
        selected = [row for row in rows if predicate(row)]
        columns = columns.strip()
        if columns == "*":
            return QueryResult([dict(row) for row in selected])
        names = [c.strip().strip("`").split(".")[-1] for c in columns.split(",")]
        return QueryResult([{n: row.get(n) for n in names} for row in selected])

    def _update(self, table: str, assignments: str, where: str | None) -> bool:
        predicate = self._predicate(where)
        updates: list[tuple[str, object]] = []
        for assignment in assignments.split(","):
            name, _, raw = assignment.partition("=")
            if raw:
                updates.append((name.strip().strip("`"), self._parse_scalar(raw)))
        for row in self.tables.get(table, []):
            if predicate(row):
                for name, value in updates:
                    row[name] = value
        return True

    def _predicate(self, where: str | None):
        if not where:
            return lambda row: True
        match = _EQUALITY.match(where)
        if not match:
            return lambda row: True
        column = match.group(1).split(".")[-1]
        value = self._parse_scalar(match.group(2))
        return lambda row: to_string(row.get(column)) == to_string(value)

    @staticmethod
    def _parse_scalar(text: str) -> object:
        text = text.strip()
        if len(text) >= 2 and text[0] == text[-1] and text[0] in ("'", '"'):
            return text[1:-1]
        try:
            return int(text)
        except ValueError:
            try:
                return float(text)
            except ValueError:
                return text

    def _parse_value_list(self, values: str) -> list[object]:
        out: list[object] = []
        current = ""
        was_quoted = False
        quote: str | None = None
        i = 0
        while i < len(values):
            ch = values[i]
            if quote is not None:
                if ch == "\\" and i + 1 < len(values):
                    current += values[i + 1]
                    i += 2
                    continue
                if ch == quote:
                    quote = None
                else:
                    current += ch
            elif ch in ("'", '"'):
                if not current.strip():
                    current = ""  # drop padding before the opening quote
                quote = ch
                was_quoted = True
            elif ch == ",":
                out.append(self._finish_value(current, was_quoted))
                current = ""
                was_quoted = False
            elif was_quoted and ch.isspace():
                pass  # padding after the closing quote
            else:
                current += ch
            i += 1
        if current.strip() or was_quoted or out:
            out.append(self._finish_value(current, was_quoted))
        return out

    @staticmethod
    def _finish_value(text: str, was_quoted: bool) -> object:
        if was_quoted:
            return text  # quoted values keep their exact contents
        stripped = text.strip()
        try:
            return int(stripped)
        except ValueError:
            try:
                return float(stripped)
            except ValueError:
                return stripped


@dataclass
class ExecutionEnvironment:
    """Everything one simulated request execution touches."""

    request: HttpRequest = field(default_factory=HttpRequest)
    database: MockDatabase = field(default_factory=MockDatabase)
    #: Server-side session store shared across requests; ``session_start()``
    #: exposes it as ``$_SESSION`` and changes are written back when the
    #: script finishes.
    session_store: dict = field(default_factory=dict)
    output: list[str] = field(default_factory=list)
    #: (function, stringified args) for every sensitive call executed.
    sink_log: list[tuple[str, tuple[str, ...]]] = field(default_factory=list)
    #: Commands passed to exec/system/... (never actually run).
    command_log: list[str] = field(default_factory=list)
    headers: list[str] = field(default_factory=list)

    def write(self, text: str) -> None:
        self.output.append(text)

    def response_body(self) -> str:
        return "".join(self.output)
