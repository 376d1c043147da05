"""Self-test of the benchmark in smoke mode (3 projects x 1 pass per workload).

Run from the repository root: ``PYTHONPATH=src python -m pytest bench -q``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys

import pytest

from bench.compare import judge
from bench.runner import ROOT
from bench.workloads import WORKLOADS

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")


def _smoke(*args: str) -> tuple[int, dict, str]:
    done = subprocess.run(
        [sys.executable, "-m", "bench", *args, "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    return done.returncode, json.loads(done.stdout.splitlines()[-1]), done.stdout


@pytest.fixture(scope="module")
def untraced():
    return _smoke("run")


@pytest.fixture(scope="module")
def traced():
    for workload in WORKLOADS:
        (ROOT / "bench" / "out" / f"{workload}.trace.json").unlink(missing_ok=True)
    return _smoke("trace")


def _check(result: tuple[int, dict, str], metrics: list[dict]) -> None:
    code, payload, stdout = result
    assert code == 0, stdout
    assert set(payload) == {"correct", "attempted", "failed", "metrics"}
    assert payload["correct"] is True and payload["failed"] == 0
    assert payload["attempted"] >= len(WORKLOADS)
    for workload in WORKLOADS:
        for metric in metrics:
            emitted = payload["metrics"][f"{workload}/{metric['name']}"]
            assert emitted["unit"] == metric["unit"]
            assert isinstance(emitted["value"], (int, float))
    emitted_names = {key.split("/", 1)[1] for key in payload["metrics"]}
    assert emitted_names == {m["name"] for m in metrics}


def test_run_emits_every_end_to_end_metric(untraced):
    _check(untraced, SPEC["end_to_end"])


def test_trace_emits_every_per_layer_metric_and_matches_run_verdicts(traced):
    # ``correct`` includes the replica-vs-run per-file verdict comparison.
    _check(traced, SPEC["per_layer"])
    for workload in WORKLOADS:
        assert (ROOT / "bench" / "out" / f"{workload}.trace.json").is_file()


def test_names_are_well_formed():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize(
    ("base", "head", "better", "label"),
    [
        ([10.0, 10.1, 9.9, 10.0], [11.0, 11.1, 10.9, 11.0], "higher", "improved"),
        ([10.0, 10.1, 9.9, 10.0], [8.0, 8.1, 7.9, 8.0], "higher", "regressed"),
        ([10.0, 10.1, 9.9, 10.0], [10.05, 9.95, 10.0, 10.1], "higher", "within bound"),
        ([10.0, 14.0, 7.0, 12.0], [10.0, 9.0, 13.0, 8.0], "lower", "unresolved"),
    ],
)
def test_compare_labels(base, head, better, label):
    assert judge(base, head, better, 0.1)[0] == label
