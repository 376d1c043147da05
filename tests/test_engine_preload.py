"""Forked workers inherit what the parent already holds.

With replay on, the pool's parent loads ``repro.replay`` (and the
interpreter it runs) before it forks its first worker, so no worker of
any run pays that import on its first vulnerable file.  ``import
repro.cli`` still loads neither, which keeps CLI start-up flat.  The
parent parses nothing: each worker scans the entries it verifies, so a
pooled run parses each file at most once per worker, under either start
method.  Each check runs in a fresh interpreter, where nothing has
imported the replay stage or parsed a file yet.
"""

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
VULNERABLE = ROOT / "examples" / "php" / "board.php"

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs the fork start method",
)

#: Audits one file at ``--jobs 2`` and prints the ``repro.*`` modules the
#: parent holds when it starts its first worker.
AUDIT = """
import json, sys
from pathlib import Path
from repro.engine import AuditEngine, EngineConfig, EntryTask
from repro.php import SourceProject
from repro.websari.pipeline import WebSSARI

at_first_spawn = []
spawn_worker = AuditEngine._spawn_worker

def spy(self, *args):
    if not at_first_spawn:
        at_first_spawn.append(sorted(m for m in sys.modules if m.startswith("repro")))
    return spawn_worker(self, *args)

AuditEngine._spawn_worker = spy
path = Path(sys.argv[1])
engine = AuditEngine(
    websari=WebSSARI(replay=sys.argv[2] == "on"), config=EngineConfig(jobs=2)
)
project = SourceProject({path.name: path.read_text()})
(outcome,) = engine.run([EntryTask(0, str(path), path.name, project)]).outcomes
print(json.dumps({
    "modules": at_first_spawn[0],
    "safe": outcome.safe,
    "replayed": bool(outcome.replay),
}))
"""


def run_fresh(code: str, *args: str):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return json.loads(result.stdout.strip().splitlines()[-1])


def modules_after_import(module: str) -> set[str]:
    return set(
        run_fresh(
            f"import json, sys, {module}\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro'))))"
        )
    )


def test_fork_workers_inherit_the_replay_stage():
    audit = run_fresh(AUDIT, str(VULNERABLE), "on")
    assert audit["safe"] is False and audit["replayed"]
    replay_stage = modules_after_import("repro.replay")
    assert {"repro.replay", "repro.interp"} <= replay_stage
    assert replay_stage <= set(audit["modules"])


def test_replay_off_leaves_the_parent_without_it():
    audit = run_fresh(AUDIT, str(VULNERABLE), "off")
    assert audit["safe"] is False and not audit["replayed"]
    assert "repro.replay" not in audit["modules"]


def test_cli_import_loads_no_replay_stage():
    loaded = modules_after_import("repro.cli")
    assert "repro.replay" not in loaded
    assert "repro.interp" not in loaded


def test_pooled_workers_parse_each_file_at_most_once(tmp_path):
    from repro.corpus import FIGURE_10, generate_catalog_project

    generated = generate_catalog_project(FIGURE_10[9], seed=2013)
    root = tmp_path / "tree"
    for path in generated.project.paths():
        target = root / path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(generated.project.source(path))

    def audit(name, *options):
        stream = tmp_path / f"{name}.jsonl"
        subprocess.run(
            [
                sys.executable, "-m", "repro", "audit", str(root), "--quiet",
                "--no-cache", "--cache-dir", str(tmp_path / name),
                "--replay", "on", "--jsonl", str(stream), *options,
            ],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True,
            timeout=300,
        )
        records = [json.loads(line) for line in stream.read_text().splitlines()]
        files = [r for r in records if r.get("type") == "file"]
        assert len(files) == len(generated.project.paths())
        return files

    def verdicts(files):
        return {
            r["filename"]: (r["status"], r["safe"], r["ts_errors"], r["bmc_groups"],
                            json.dumps(r["replay"], sort_keys=True))
            for r in files
        }

    def misses(files):
        return sum(r["includes"]["parse_cache_misses"] for r in files)

    inline = audit("inline", "--jobs", "1")
    forked = audit("fork", "--jobs", "2", "--start-method", "fork")
    spawned = audit("spawn", "--jobs", "2", "--start-method", "spawn")
    # Inline, every file parses once; each of two workers parses at most
    # the files its own entries reach.
    assert misses(inline) == len(generated.project.paths())
    assert misses(forked) <= 2 * misses(inline)
    assert misses(spawned) <= 2 * misses(inline)
    assert verdicts(forked) == verdicts(inline) == verdicts(spawned)
    assert any(r["safe"] is False for r in forked)
