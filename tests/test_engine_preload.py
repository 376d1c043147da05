"""Forked workers inherit the replay stage instead of importing it.

With replay on, the pool's parent loads ``repro.replay`` (and the
interpreter it runs) before it forks its first worker, so no worker of
any run pays that import on its first vulnerable file.  ``import
repro.cli`` still loads neither, which keeps CLI start-up flat.  Each
check runs in a fresh interpreter, where nothing has imported the replay
stage yet.
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
from repro.engine import AuditEngine, AuditTask, EngineConfig
from repro.websari.pipeline import WebSSARI

at_first_spawn = []
spawn_worker = AuditEngine._spawn_worker

def spy(self, ctx):
    if not at_first_spawn:
        at_first_spawn.append(sorted(m for m in sys.modules if m.startswith("repro")))
    return spawn_worker(self, ctx)

AuditEngine._spawn_worker = spy
path = Path(sys.argv[1])
engine = AuditEngine(
    websari=WebSSARI(replay=sys.argv[2] == "on"), config=EngineConfig(jobs=2)
)
(outcome,) = engine.run(
    [AuditTask(index=0, filename=str(path), source=path.read_text())]
).outcomes
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
