"""The ``repro report --html`` dashboard: self-contained output, escaping,
and headless-parseable structure (verdict table, stage-latency section,
slow-query table)."""

import json
from html.parser import HTMLParser

import pytest

from repro.obs import load_audit, render_dashboard


class PageModel(HTMLParser):
    """Minimal headless parse: ids, table rows keyed by enclosing id."""

    def __init__(self):
        super().__init__()
        self.ids = []
        self._current_table = None
        self._row = None
        self._cell = None
        self.tables = {}

    def handle_starttag(self, tag, attrs):
        attrs = dict(attrs)
        if "id" in attrs:
            self.ids.append(attrs["id"])
            if tag == "table":
                self._current_table = attrs["id"]
                self.tables[self._current_table] = []
        if tag == "tr" and self._current_table:
            self._row = []
        if tag in ("td", "th") and self._row is not None:
            self._cell = []

    def handle_endtag(self, tag):
        if tag in ("td", "th") and self._cell is not None:
            self._row.append("".join(self._cell).strip())
            self._cell = None
        if tag == "tr" and self._row is not None:
            self.tables[self._current_table].append(self._row)
            self._row = None
        if tag == "table":
            self._current_table = None

    def handle_data(self, data):
        if self._cell is not None:
            self._cell.append(data)


def write_stream(path, records, trailers):
    lines = [json.dumps({"type": "file", **r}) for r in records]
    lines += [json.dumps({"type": "stats", **t}) for t in trailers]
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture
def ledger_run(tmp_path):
    records = [
        {
            "filename": "a.php", "status": "ok", "safe": True,
            "duration": 0.2, "timings": {"parse": 0.1, "sat": 0.1},
            "num_ai_assertions": 2,
            "slow_queries": [
                {"seconds": 0.08, "file": "a.php", "assert_id": 1,
                 "decisions": 5, "conflicts": 1, "fingerprint": "ab" * 32},
            ],
        },
        {
            "filename": "<evil>&.php", "status": "ok", "safe": False,
            "duration": 0.4,
            "timings": {"parse": 0.2, "sat": 0.2},
            "slow_queries": [
                {"seconds": 0.15, "file": "<evil>&.php", "assert_id": 3,
                 "decisions": 9, "conflicts": 2, "fingerprint": "cd" * 32},
            ],
        },
        {"filename": "broken.php", "status": "parse-error", "safe": None,
         "error": "unexpected token <script>"},
    ]
    trailers = [
        {"total": 3, "files": 3, "safe": 1, "vulnerable": 1, "failed": 1,
         "wall_seconds": 0.7,
         "slow_queries": records[1]["slow_queries"] + records[0]["slow_queries"]},
    ]
    return load_audit(write_stream(tmp_path / "run.jsonl", records, trailers))


class TestRenderDashboard:
    def test_self_contained(self, ledger_run):
        page = render_dashboard(ledger_run)
        assert page.startswith("<!DOCTYPE html>")
        assert "<script" not in page
        assert "http://" not in page and "https://" not in page
        assert "<style>" in page

    def test_required_sections_parseable(self, ledger_run):
        model = PageModel()
        model.feed(render_dashboard(ledger_run))
        for required in ("verdicts", "stage-latency", "slow-queries"):
            assert required in model.ids

    def test_verdict_table_rows(self, ledger_run):
        model = PageModel()
        model.feed(render_dashboard(ledger_run))
        rows = model.tables["verdicts"]
        assert rows[0][:3] == ["file", "verdict", "confirmed"]
        by_file = {row[0]: row for row in rows[1:]}
        assert by_file["a.php"][1] == "safe"
        assert by_file["<evil>&.php"][1] == "vulnerable"
        assert by_file["broken.php"][1] == "parse-error"
        assert by_file["a.php"][2] == "—"  # no replay section

    def test_stage_latency_section_has_quantiles_and_bars(self, ledger_run):
        page = render_dashboard(ledger_run)
        section = page[page.index("stage-latency"):]
        assert "p50" in section and "p99" in section
        assert "bucket-interpolated" in section
        assert "class='bar'" in section

    def test_slow_query_table(self, ledger_run):
        model = PageModel()
        model.feed(render_dashboard(ledger_run))
        rows = model.tables["slow-queries"]
        assert [row[1] for row in rows[1:]] == ["<evil>&.php", "a.php"]
        # Fingerprints are truncated for display.
        assert rows[1][5] == ("cd" * 32)[:12]

    def test_filenames_and_errors_escaped(self, ledger_run):
        page = render_dashboard(ledger_run)
        assert "&lt;evil&gt;&amp;.php" in page
        assert "<evil>" not in page
        assert "unexpected token &lt;script&gt;" in page

    def test_deterministic(self, ledger_run):
        assert render_dashboard(ledger_run) == render_dashboard(ledger_run)

    def test_truncated_stream_warns(self, tmp_path):
        path = tmp_path / "partial.jsonl"
        path.write_text(json.dumps(
            {"type": "file", "filename": "a.php", "status": "ok", "safe": True}
        ) + "\n")
        page = render_dashboard(load_audit(path))
        assert "no stats trailer" in page

    def test_empty_ledger_stream_renders(self, tmp_path):
        """A stream whose trailer carries an empty slow_queries list (a
        fast run) still renders, with an explicit no-ledger message."""
        path = write_stream(
            tmp_path / "fast.jsonl",
            [{"filename": "a.php", "status": "ok", "safe": True}],
            [{"total": 1, "files": 1, "safe": 1, "vulnerable": 0, "failed": 0,
              "wall_seconds": 0.1, "slow_queries": []}],
        )
        page = render_dashboard(load_audit(path))
        assert "no slow-query ledger" in page
