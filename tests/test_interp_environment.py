"""Tests for the execution environment: request, mock database."""

import random

import pytest

from repro.interp.environment import ExecutionEnvironment, HttpRequest, MockDatabase
from repro.interp.values import PhpArray


class TestHttpRequest:
    def test_superglobals_populated(self):
        request = HttpRequest(
            get={"q": "1"},
            post={"p": "2"},
            cookies={"c": "3"},
            referer="http://r/",
            user_agent="UA",
        )
        sg = request.superglobals()
        assert sg["_GET"].get("q") == "1"
        assert sg["_POST"].get("p") == "2"
        assert sg["_COOKIE"].get("c") == "3"
        assert sg["HTTP_REFERER"] == "http://r/"
        assert sg["_SERVER"].get("HTTP_USER_AGENT") == "UA"

    def test_request_merges_all(self):
        request = HttpRequest(get={"a": "g"}, post={"b": "p"}, cookies={"c": "k"})
        merged = request.superglobals()["_REQUEST"]
        assert merged.get("a") == "g"
        assert merged.get("b") == "p"
        assert merged.get("c") == "k"

    def test_legacy_register_globals_arrays(self):
        sg = HttpRequest(get={"x": "1"}).superglobals()
        assert sg["HTTP_GET_VARS"].get("x") == "1"

    def test_empty_request(self):
        sg = HttpRequest().superglobals()
        assert isinstance(sg["_GET"], PhpArray)
        assert len(sg["_GET"]) == 0


class TestMockDatabaseInsertSelect:
    def test_insert_with_columns(self):
        db = MockDatabase()
        db.execute("INSERT INTO t (a, b) VALUES ('x', 2)")
        assert db.tables["t"] == [{"a": "x", "b": 2}]

    def test_insert_without_columns(self):
        db = MockDatabase()
        db.execute("INSERT INTO t VALUES ('x', 'y')")
        assert db.tables["t"] == [{"col0": "x", "col1": "y"}]

    def test_select_star(self):
        db = MockDatabase()
        db.create_table("t", [{"a": 1}, {"a": 2}])
        result = db.execute("SELECT * FROM t")
        assert [row["a"] for row in result.rows] == [1, 2]

    def test_select_columns(self):
        db = MockDatabase()
        db.create_table("t", [{"a": 1, "b": 2}])
        result = db.execute("SELECT b FROM t")
        assert result.rows == [{"b": 2}]

    def test_select_qualified_column(self):
        db = MockDatabase()
        db.create_table("t", [{"a": 1}])
        result = db.execute("SELECT t.a FROM t")
        assert result.rows == [{"a": 1}]

    def test_select_where(self):
        db = MockDatabase()
        db.create_table("t", [{"id": 1, "v": "x"}, {"id": 2, "v": "y"}])
        result = db.execute("SELECT v FROM t WHERE id=2")
        assert result.rows == [{"v": "y"}]

    def test_where_string_comparison_is_loose(self):
        db = MockDatabase()
        db.create_table("t", [{"id": 1}])
        result = db.execute("SELECT * FROM t WHERE id='1'")
        assert len(result.rows) == 1

    def test_fetch_cursor(self):
        db = MockDatabase()
        db.create_table("t", [{"v": 1}, {"v": 2}])
        result = db.execute("SELECT * FROM t")
        assert result.fetch() == {"v": 1}
        assert result.fetch() == {"v": 2}
        assert result.fetch() is None


class TestMockDatabaseMutations:
    def test_update_with_where(self):
        db = MockDatabase()
        db.create_table("t", [{"id": 1, "v": "a"}, {"id": 2, "v": "b"}])
        db.execute("UPDATE t SET v='z' WHERE id=1")
        assert db.tables["t"][0]["v"] == "z"
        assert db.tables["t"][1]["v"] == "b"

    def test_update_all(self):
        db = MockDatabase()
        db.create_table("t", [{"v": 1}, {"v": 2}])
        db.execute("UPDATE t SET v=9")
        assert all(row["v"] == 9 for row in db.tables["t"])

    def test_delete_with_where(self):
        db = MockDatabase()
        db.create_table("t", [{"id": 1}, {"id": 2}])
        db.execute("DELETE FROM t WHERE id=1")
        assert db.tables["t"] == [{"id": 2}]

    def test_drop_table(self):
        db = MockDatabase()
        db.create_table("users", [{"u": 1}])
        db.execute("DROP TABLE users")
        assert "users" not in db.tables
        assert db.dropped_tables == ["users"]

    def test_unknown_statement_tolerated(self):
        db = MockDatabase()
        assert db.execute("OPTIMIZE TABLE t") is True


class TestInjectionSemantics:
    def test_semicolon_inside_quotes_is_data(self):
        db = MockDatabase()
        db.create_table("users", [{"u": 1}])
        db.execute("INSERT INTO log VALUES ('a; DROP TABLE users')")
        assert "users" in db.tables
        assert db.tables["log"][0]["col0"] == "a; DROP TABLE users"

    def test_quote_breakout_executes_second_statement(self):
        db = MockDatabase()
        db.create_table("users", [{"u": 1}])
        db.execute("INSERT INTO log VALUES (''); DROP TABLE users")
        assert "users" not in db.tables

    def test_escaped_quote_stays_inside(self):
        db = MockDatabase()
        db.create_table("users", [{"u": 1}])
        db.execute(r"INSERT INTO log VALUES ('a\'; DROP TABLE users')")
        assert "users" in db.tables

    def test_query_log_is_verbatim(self):
        db = MockDatabase()
        db.execute("SELECT 1; SELECT 2")
        assert db.query_log == ["SELECT 1; SELECT 2"]

    def test_value_list_with_commas_in_strings(self):
        db = MockDatabase()
        db.execute("INSERT INTO t VALUES ('a,b', 'c')")
        assert db.tables["t"][0] == {"col0": "a,b", "col1": "c"}


def reference_split(sql: str) -> list[str]:
    """The statement splitter as a plain character loop, with no fast
    path: the behaviour ``MockDatabase._split_statements`` must keep."""
    pieces: list[str] = []
    current = ""
    quote: str | None = None
    i = 0
    while i < len(sql):
        ch = sql[i]
        if quote is not None:
            current += ch
            if ch == "\\" and i + 1 < len(sql):
                current += sql[i + 1]
                i += 2
                continue
            if ch == quote:
                quote = None
        elif ch in ("'", '"'):
            quote = ch
            current += ch
        elif ch == ";":
            pieces.append(current.strip())
            current = ""
        else:
            current += ch
        i += 1
    pieces.append(current.strip())
    return [p for p in pieces if p]


class TestSplitStatements:
    @pytest.mark.parametrize(
        "sql",
        [
            "",
            "   ",
            "SELECT 1",
            "  SELECT 1  ",
            "SELECT 1; SELECT 2",
            ";;",
            " ; SELECT 1 ;",
            "INSERT INTO t VALUES ('a; b')",
            "INSERT INTO t VALUES ('a; b'); DROP TABLE t",
            r"INSERT INTO t VALUES ('a\'; DROP TABLE t')",
            r'SELECT "x\"; y"; SELECT 2',
            "SELECT 'a\\",
            "SELECT 1; 'a\\",
            "SELECT 'unterminated; DROP TABLE t",
            'SELECT "open; ',
        ],
    )
    def test_listed_shapes_match_the_reference(self, sql):
        assert MockDatabase._split_statements(sql) == reference_split(sql)

    def test_generated_strings_match_the_reference(self):
        rng = random.Random(2004)
        alphabet = ["a", "b", " ", "\t", ";", "'", '"', "\\", "SELECT ", "x = 1"]
        shapes = {"semicolon": 0, "quoted": 0, "escape": 0, "trailing": 0}
        for _ in range(4000):
            sql = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 14)))
            assert MockDatabase._split_statements(sql) == reference_split(sql), sql
            shapes["semicolon"] += ";" in sql
            shapes["quoted"] += "'" in sql or '"' in sql
            shapes["escape"] += "\\'" in sql or '\\"' in sql
            shapes["trailing"] += sql.endswith("\\")
        assert all(count > 100 for count in shapes.values()), shapes


class TestExecutionEnvironment:
    def test_output_accumulates(self):
        env = ExecutionEnvironment()
        env.write("a")
        env.write("b")
        assert env.response_body() == "ab"

    def test_default_factories_independent(self):
        first = ExecutionEnvironment()
        second = ExecutionEnvironment()
        first.write("x")
        first.sink_log.append(("echo", ("x",)))
        assert second.response_body() == ""
        assert second.sink_log == []
