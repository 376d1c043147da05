"""One fold behind every metrics surface: the ``--metrics`` file and the
watch daemon's ``/metrics`` render the run totals that the run's JSONL
stream folds to, and every family they render is documented."""

import json
import re
import shutil
from pathlib import Path

import pytest

from repro.cli import main
from repro.daemon import WatchLoop
from repro.obs import RunTotals, load_audit, render_prometheus
from repro.websari.pipeline import WebSSARI

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "examples"


def audit(tmp_path, *args):
    """``repro audit ARGS --jsonl --metrics``; the stream and the text."""
    stream, prom = tmp_path / "a.jsonl", tmp_path / "m.prom"
    main(["audit", *map(str, args), "--quiet", "--jsonl", str(stream), "--metrics", str(prom)])
    return stream, prom.read_text()


def render_stream(stream) -> str:
    """The render of ``RunTotals.of(file records)`` plus the trailer."""
    run = load_audit(stream)
    totals = RunTotals.of(run.files)
    totals.add_trailer(run.stats)
    return render_prometheus(totals)


def families(text: str) -> set[str]:
    return set(re.findall(r"^# TYPE (\S+) ", text, re.MULTILINE))


def documented(doc: str, section: str) -> set[str]:
    """Metric names in the first column of ``section``'s table."""
    text = (ROOT / "docs" / doc).read_text()
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^\| `(repro_\w+)` \|", body, re.MULTILINE))


class TestOneFold:
    def test_examples_cold_and_warm(self, tmp_path):
        cache = tmp_path / "cache"
        for run in ("cold", "warm"):
            (tmp_path / run).mkdir()
            stream, text = audit(tmp_path / run, EXAMPLES, "--jobs", "2", "--cache-dir", cache)
            assert text == render_stream(stream), run
        assert 'repro_cache_lookups_total{result="hit"} 3' in text

    def test_figure10_trees_with_replay(self, tmp_path):
        from repro.corpus import FIGURE_10, generate_catalog_project

        roots = []
        for index, entry in enumerate(FIGURE_10):
            project = generate_catalog_project(entry, seed=2004).project
            root = tmp_path / "trees" / f"p{index:02d}"
            for path in project.paths():
                target = root / path
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_text(project.source(path))
            roots.append(root)
        stream, text = audit(tmp_path, *roots, "--jobs", "2", "--no-cache", "--replay", "on")
        assert text == render_stream(stream)
        trailer = load_audit(stream).stats
        confirmed = trailer["replay"]["confirmed"]
        assert f'repro_replay_total{{verdict="confirmed"}} {confirmed}\n' in text

    def test_stage_quantiles_equal_the_report(self, tmp_path, capsys):
        stream, text = audit(tmp_path, EXAMPLES, "--no-cache")
        capsys.readouterr()
        assert main(["report", str(stream), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)["stage_quantiles"]
        gauges = {
            (stage, float(q)): float(value)
            for stage, q, value in re.findall(
                r'^repro_stage_seconds_quantile\{stage="(\w+)",quantile="([\d.]+)"\} (\S+)$',
                text, re.MULTILINE,
            )
        }
        expected = {
            (stage, q): latency[f"p{int(q * 100)}"]
            for stage, latency in report.items()
            for q in (0.5, 0.9, 0.99)
        }
        assert gauges and gauges == expected


class TestDocumentedFamilies:
    @pytest.fixture
    def watch_text(self, tmp_path):
        shutil.copytree(EXAMPLES / "php", tmp_path / "tree")
        loop = WatchLoop(
            tmp_path / "tree", WebSSARI(), metrics=RunTotals(), debounce=0.0,
            out_dir=tmp_path / "cycles",
        )
        assert loop.run_cycle() is not None
        return render_prometheus(loop.metrics, loop.health())

    def test_families_are_the_documented_ones(self, tmp_path, watch_text):
        _stream, audit_text = audit(tmp_path, EXAMPLES, "--no-cache")
        engine = documented("OBSERVABILITY.md", "Metrics")
        watch = documented("DAEMON.md", "The metrics endpoint")
        assert families(audit_text) == engine
        assert families(watch_text) == engine | watch
        assert all(name.startswith("repro_watch_") for name in watch)
