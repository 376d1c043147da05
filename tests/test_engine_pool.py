"""The worker pool outlives one engine run.

A pooled run leaves its idle workers alive, and the next run in the same
process reuses them when its pickled verifier, ``jobs``, start method,
``want_reports`` and tracing match; each reused worker is reset first,
so no cache state crosses runs.  Any other key replaces the pool.  Each
check drives in-process ``repro watch --once`` calls in a fresh
interpreter, where no earlier run has kept a pool, and reads the live
workers from ``multiprocessing.active_children()``.
"""

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs the fork start method",
)

#: Runs the steps in ``argv[1]`` (a JSON list) in one process.  A step is
#: ``["watch", tree, out, *options]`` or ``["kill"]`` (SIGKILL one live
#: worker and wait until it is gone).  Prints one result per step; every
#: result lists the live workers and, for each worker pid seen so far,
#: whether the pid still exists (a reaped worker's does not).
DRIVER = """
import json, multiprocessing, os, signal, sys, time
from pathlib import Path
from repro.cli import main

seen = set()

def workers():
    pids = sorted(p.pid for p in multiprocessing.active_children())
    seen.update(pids)
    return pids

def exists(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True

results = []
for step in json.loads(sys.argv[1]):
    if step[0] == "kill":
        pid = workers()[0]
        os.kill(pid, signal.SIGKILL)
        deadline = time.monotonic() + 30
        while pid in workers() and time.monotonic() < deadline:
            time.sleep(0.02)
        result = {"killed": pid}
    else:
        _, tree, out, *options = step
        code = main(["watch", tree, "--once", "--quiet", "--cache-dir", out + "-cache",
                     "--out-dir", out, *options])
        lines = Path(out, "cycle-000001.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        result = {
            "code": code,
            "files": [r for r in records if r["type"] == "file"],
            "stats": records[-1],
        }
    result["workers"] = workers()
    result["exists"] = {str(pid): exists(pid) for pid in sorted(seen)}
    results.append(result)
print(json.dumps(results))
"""


def drive(tmp_path, steps):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", DRIVER, json.dumps(steps)],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def write_tree(tmp_path, index):
    from repro.corpus import FIGURE_10, generate_catalog_project

    generated = generate_catalog_project(FIGURE_10[index], seed=2004)
    root = tmp_path / f"tree{index}"
    for path in generated.project.paths():
        target = root / path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(generated.project.source(path))
    return str(root)


def verdicts(result):
    return {
        r["filename"]: (r["status"], r["safe"], r["ts_errors"], r["bmc_groups"],
                        json.dumps(r["replay"], sort_keys=True))
        for r in result["files"]
    }


@pytest.fixture
def trees(tmp_path):
    return write_tree(tmp_path, 0), write_tree(tmp_path, 9)


def out(tmp_path, name):
    return str(tmp_path / name)


POOLED = ["--jobs", "2", "--replay", "on"]


def test_second_run_reuses_the_workers_with_reset_caches(tmp_path, trees):
    a, b = trees
    first, second, again, inline_a, inline_b = drive(tmp_path, [
        ["watch", a, out(tmp_path, "a"), *POOLED],
        ["watch", b, out(tmp_path, "b"), *POOLED],
        ["watch", a, out(tmp_path, "a2"), *POOLED],
        ["watch", a, out(tmp_path, "a1"), "--jobs", "1", "--replay", "on"],
        ["watch", b, out(tmp_path, "b1"), "--jobs", "1", "--replay", "on"],
    ])
    assert len(first["workers"]) == 2
    assert second["workers"] == again["workers"] == first["workers"]
    assert first["stats"]["workers_started"] == 2
    assert second["stats"]["workers_started"] == again["stats"]["workers_started"] == 0
    assert verdicts(first) == verdicts(again) == verdicts(inline_a)
    assert verdicts(second) == verdicts(inline_b)
    assert any(r["safe"] is False and r["replay"] for r in second["files"])
    # Reused workers start each run with an empty parse memo and file
    # store: they parse the closures of the run's tree themselves, even
    # the tree they audited two runs before.
    for result in (second, again):
        misses = [r["includes"].get("parse_cache_misses", 0) for r in result["files"]]
        assert sum(misses) > 0
    assert all(
        r["attempts"] == 1 and r["status"] == "ok"
        for r in first["files"] + second["files"] + again["files"]
    )


@pytest.mark.parametrize(
    "options",
    [
        ["--jobs", "2", "--replay", "off"],
        ["--jobs", "3", "--replay", "on"],
        ["--jobs", "2", "--replay", "on", "--start-method", "spawn"],
    ],
    ids=["replay", "jobs", "start-method"],
)
def test_another_key_replaces_the_pool(tmp_path, trees, options):
    a, b = trees
    first, second = drive(tmp_path, [
        ["watch", a, out(tmp_path, "a"), *POOLED],
        ["watch", b, out(tmp_path, "b"), *options],
    ])
    old, new = set(first["workers"]), set(second["workers"])
    assert len(old) == 2 and new and not old & new
    assert second["stats"]["workers_started"] == len(new)
    assert not any(second["exists"][str(pid)] for pid in old), "old workers not reaped"


def test_killed_kept_worker_is_replaced_without_charging_a_task(tmp_path, trees):
    a, b = trees
    first, killed, second = drive(tmp_path, [
        ["watch", a, out(tmp_path, "a"), *POOLED],
        ["kill"],
        ["watch", b, out(tmp_path, "b"), *POOLED],
    ])
    survivor = set(first["workers"]) - {killed["killed"]}
    assert len(survivor) == 1 and survivor <= set(second["workers"])
    assert len(second["workers"]) == 2
    assert second["stats"]["workers_started"] == 1
    assert all(r["attempts"] == 1 and r["status"] == "ok" for r in second["files"])
    assert second["stats"]["crashes"] == second["stats"]["retries"] == 0
