"""Start-method agnosticism: the worker pool must produce identical
verdicts under fork and spawn.  The analyzer session is a process
argument of each worker: fork workers inherit it, with the parse memo
the parent's include scan filled, as copied memory, and spawn workers
unpickle a copy with empty caches.  Witness replay rides the same
session (the ``replay`` flag is an attribute of the ``WebSSARI`` it
carries), so its traces and synthesized requests must serialize
byte-identically too."""

import json
import multiprocessing

import pytest

from repro.engine import AuditEngine, EngineConfig, EntryTask, WorkerSession
from repro.php import SourceProject
from repro.replay import replay_source
from repro.websari.pipeline import WebSSARI

START_METHODS = [
    m for m in ("fork", "spawn") if m in multiprocessing.get_all_start_methods()
]

VULN = "<?php\nif ($_GET['go']) { echo $_GET['q']; }\n"
SAFE = "<?php echo 'hello';\n"

TASKS = [
    ("vuln.php", VULN),
    ("safe.php", SAFE),
]


def entry_tasks():
    project = SourceProject(dict(TASKS))
    return [EntryTask(i, name, name, project) for i, (name, _) in enumerate(TASKS)]


def run_with(start_method, replay=False):
    engine = AuditEngine(
        websari=WebSSARI(replay=replay),
        config=EngineConfig(jobs=2, start_method=start_method),
    )
    result = engine.run(entry_tasks())
    return {o.filename: (o.status, o.safe) for o in result.outcomes}


def verdicts():
    return {"vuln.php": ("ok", False), "safe.php": ("ok", True)}


class TestStartMethods:
    @pytest.mark.parametrize("method", START_METHODS)
    def test_same_verdicts_under_each_method(self, method):
        assert run_with(method) == verdicts()

    def test_default_matches_explicit(self):
        assert run_with(None) == verdicts()

    def test_unsupported_method_rejected_with_alternatives(self):
        with pytest.raises(ValueError, match="start method"):
            run_with("hyperthread")


def replay_sections(start_method):
    """Per-file ``replay`` sections, serialized for byte comparison."""
    engine = AuditEngine(
        websari=WebSSARI(replay=True),
        config=EngineConfig(jobs=2, start_method=start_method),
    )
    result = engine.run(entry_tasks())
    return {
        o.filename: json.dumps(o.replay, sort_keys=True) for o in result.outcomes
    }


class TestReplayDeterminism:
    def test_traces_and_requests_serialize_identically_across_runs(self):
        def once():
            report = WebSSARI().verify_source(VULN, "vuln.php")
            canonical_traces = "\n".join(
                trace.canonical() for trace in report.bmc.all_counterexamples()
            )
            requests = [
                json.dumps(result.request, sort_keys=True)
                for result in replay_source(VULN, report, "vuln.php")
            ]
            return canonical_traces, requests

        first, second = once(), once()
        assert first == second
        assert first[1], "vulnerable source must synthesize at least one request"

    @pytest.mark.parametrize("method", START_METHODS)
    def test_replay_sections_byte_identical_under_each_method(self, method):
        baseline = replay_sections(None)
        assert replay_sections(method) == baseline
        vuln = json.loads(baseline["vuln.php"])
        assert vuln["confirmed"] >= 1 and vuln["refuted"] == 0
        assert json.loads(baseline["safe.php"]) == {}


class TestWorkerSession:
    def test_session_is_picklable(self):
        """The setup message must survive a spawn pickle round-trip."""
        import pickle

        session = WorkerSession(websari=WebSSARI(), want_report=True)
        clone = pickle.loads(pickle.dumps(session))
        assert clone.want_report and clone.websari is not None

    def test_frozen(self):
        session = WorkerSession(websari=WebSSARI())
        with pytest.raises(Exception):
            session.want_report = True
