"""The untraced end-to-end run: one closed-loop client, one process.

One request is ``repro.cli.main(["watch", <project>, "--once", ...])``
called in-process, timed around that call alone; its verdicts are read
back from the cycle's JSONL stream.  A pass visits every project once, in
a seeded shuffled order.  Set-up (import timing, input generation, the
warm-up request, priming) and tree writing happen outside the timed
requests.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from bench.workloads import (
    FIG10_TOTALS,
    Project,
    Workload,
    apply_edit,
    build_projects,
    pass_order,
    write_tree,
)

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Fresh interpreters timed for ``setup_s``.
IMPORT_SAMPLES = 5

_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import repro.cli; "
    "print(time.perf_counter() - t)"
)

#: The end-to-end metrics and their units (BENCHMARK.json ``end_to_end``).
END_TO_END_UNITS = {
    "setup_s": "s",
    "requests_per_s": "req/s",
    "latency_p50_ms": "ms",
    "latency_p75_ms": "ms",
    "peak_rss_mb": "MB",
}


@dataclass
class RequestResult:
    project: str
    latency: float
    #: The request returned 0 and wrote a stream.
    ok: bool
    #: Relative path -> (status, safe, ts_errors, bmc_groups).
    files: dict[str, tuple] = field(default_factory=dict)
    confirmed: int = 0
    error: str = ""

    @property
    def ts(self) -> int:
        return sum(f[2] for f in self.files.values() if f[0] == "ok")

    @property
    def bmc(self) -> int:
        return sum(f[3] for f in self.files.values() if f[0] == "ok")

    @property
    def bad_records(self) -> int:
        return sum(1 for f in self.files.values() if f[0] != "ok")


@dataclass
class PassResult:
    index: int
    requests: list[RequestResult]
    #: Wall clock of the whole pass, tree writing included (time-boxing only).
    wall: float

    @property
    def seconds(self) -> float:
        """Time spent inside the pass's requests."""
        return sum(r.latency for r in self.requests)

    @property
    def totals(self) -> tuple[int, int]:
        return sum(r.ts for r in self.requests), sum(r.bmc for r in self.requests)

    @property
    def confirmed(self) -> int:
        return sum(r.confirmed for r in self.requests)


RequestFn = Callable[[Path, Path, Project], RequestResult]


def check_checkout() -> None:
    """Exit 2 (before any result is printed) when the program is missing."""
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"bench: no program to measure: {SRC / 'repro' / 'cli.py'} is missing",
              file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def measure_import_seconds() -> list[float]:
    """Time ``import repro.cli`` in :data:`IMPORT_SAMPLES` fresh interpreters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    samples = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def read_cycle(stream: Path, root: Path, project: str, latency: float, rc) -> RequestResult:
    """Per-file verdicts and the replay trailer of one ``watch --once`` cycle."""
    result = RequestResult(project=project, latency=latency, ok=rc == 0)
    if rc != 0:
        result.error = f"exit {rc}"
    try:
        lines = stream.read_text().splitlines()
    except OSError as exc:
        result.ok = False
        result.error = result.error or f"no cycle stream: {exc}"
        return result
    for line in lines:
        record = json.loads(line)
        if record.get("type") == "file":
            rel = os.path.relpath(record["filename"], root)
            result.files[rel] = (
                record.get("status"),
                record.get("safe"),
                int(record.get("ts_errors", 0)),
                int(record.get("bmc_groups", 0)),
            )
        elif record.get("type") == "stats":
            result.confirmed = int((record.get("replay") or {}).get("confirmed", 0))
    stream.unlink()
    return result


def cli_request(workload: Workload, out_dir: Path) -> RequestFn:
    """The measured request: ``repro watch <root> --once`` in-process."""
    from repro.cli import main

    def request(root: Path, cache: Path, project: Project) -> RequestResult:
        argv = [
            "watch", str(root), "--once", "--quiet",
            "--cache-dir", str(cache), "--out-dir", str(out_dir),
            "--jobs", str(workload.jobs), "--replay", "on" if workload.replay else "off",
        ]
        started = time.perf_counter()
        try:
            rc = main(argv)
        except (Exception, SystemExit) as exc:  # noqa: BLE001 - a failed request is a result
            rc = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - started
        return read_cycle(out_dir / "cycle-000001.jsonl", root, project.name, latency, rc)

    return request


class Session:
    """Inputs and scratch directories of one workload run."""

    def __init__(self, workload: Workload, seed: int, smoke: bool, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.work = work
        self.projects = build_projects(workload, seed, smoke)
        #: Edit mode: the persistent tree/ and cache/ of the run.
        self.state = work / "state"
        self.out_dir = work / "out"

    def request_fn(self) -> RequestFn:
        return cli_request(self.workload, self.out_dir)

    def warm_up(self) -> None:
        """One untimed request on a throwaway copy, so lazy imports are done."""
        base = self.work / "warm-up"
        project = self.projects[0]
        write_tree(base / "tree", project.files)
        self.request_fn()(base / "tree", base / "cache", project)
        shutil.rmtree(base)

    def prime(self) -> float:
        """Edit mode: write the tree and fill the shared cache with one cold
        pass; returns its wall seconds (part of ``setup_s``)."""
        started = time.perf_counter()
        request = self.request_fn()
        for project in self.projects:
            root = self.state / "tree" / project.name
            write_tree(root, project.files)
            result = request(root, self.state / "cache", project)
            if not result.ok:
                raise RuntimeError(f"priming {project.name} failed: {result.error}")
        return time.perf_counter() - started

    def run_pass(self, index: int, request: RequestFn) -> PassResult:
        """One pass over every project (cold mode: in fresh directories,
        deleted right after the pass, before most of what it wrote has been
        written back)."""
        started = time.perf_counter()
        edit = self.workload.mode == "edit"
        base = self.state if edit else self.work / "pass"
        if not edit:
            for project in self.projects:
                write_tree(base / "tree" / project.name, project.files)
        # Flush what was written before the pass (trees, the last pass's
        # cache files or deletion, the primed cache), so its writeback does
        # not land inside timed requests.
        os.sync()
        results = []
        order = pass_order(self.seed, index, len(self.projects))
        for position, i in enumerate(order):
            project = self.projects[i]
            root = base / "tree" / project.name
            if edit:
                apply_edit(root, project, self.seed, index,
                           index * len(self.projects) + position)
            results.append(request(root, base / "cache", project))
        if not edit:
            shutil.rmtree(base)
        return PassResult(index=index, requests=results, wall=time.perf_counter() - started)


def run_passes(session: Session, request: RequestFn, seconds: float) -> list[PassResult]:
    """Whole passes until the next one would end past ``seconds`` (at least
    one; exactly one in smoke mode)."""
    passes: list[PassResult] = []
    started = time.perf_counter()
    while True:
        passes.append(session.run_pass(len(passes), request))
        if session.smoke:
            return passes
        elapsed = time.perf_counter() - started
        if elapsed + max(p.wall for p in passes) > seconds:
            return passes


def verdict_problems(session: Session, passes: list[PassResult]) -> tuple[list[str], int]:
    """The correctness gate: (problems, verdict_mismatches)."""
    problems: list[str] = []
    mismatches = 0
    truth = {p.name: p for p in session.projects}
    expected = (sum(p.ts for p in session.projects), sum(p.bmc for p in session.projects))
    full_fig10 = session.workload.inputs == "fig10" and not session.smoke
    if full_fig10 and expected != FIG10_TOTALS:
        problems.append(f"generator truth {expected} is not Figure 10's {FIG10_TOTALS}")
    for result in passes:
        for r in result.requests:
            project = truth[r.project]
            if not r.ok or r.bad_records:
                problems.append(f"pass {result.index} {r.project}: failed ({r.error or 'non-ok record'})")
            if len(r.files) != len(project.files):
                problems.append(
                    f"pass {result.index} {r.project}: {len(r.files)} records "
                    f"for {len(project.files)} files"
                )
            if (r.ts, r.bmc) != (project.ts, project.bmc):
                mismatches += 1
                problems.append(
                    f"pass {result.index} {r.project}: TS/BMC {r.ts}/{r.bmc}, "
                    f"truth {project.ts}/{project.bmc}"
                )
        if result.totals != expected:
            problems.append(f"pass {result.index}: totals {result.totals}, expected {expected}")
    confirmed = {p.confirmed for p in passes}
    if len(confirmed) > 1:
        problems.append(f"replay_confirmed differs across passes: {sorted(confirmed)}")
    return problems, mismatches


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def measure(session: Session, seconds: float) -> dict:
    """The untraced run: set-up, warm-up, timed passes, correctness gate."""
    request = session.request_fn()  # imports repro in this process first
    import_samples = measure_import_seconds()
    session.warm_up()
    priming = session.prime() if session.workload.mode == "edit" else 0.0
    passes = run_passes(session, request, seconds)

    problems, mismatches = verdict_problems(session, passes)
    latencies_ms = [r.latency * 1000.0 for p in passes for r in p.requests]
    percentiles = statistics.quantiles(latencies_ms, n=100, method="inclusive")
    records = sum(len(r.files) for p in passes for r in p.requests)
    bad_records = sum(r.bad_records for p in passes for r in p.requests)
    failed = sum(1 for p in passes for r in p.requests if not r.ok or r.bad_records)
    values = {
        "setup_s": statistics.median(import_samples) + priming,
        "requests_per_s": len(session.projects) / statistics.median(p.seconds for p in passes),
        "latency_p50_ms": percentiles[49],
        "latency_p75_ms": percentiles[74],
        "peak_rss_mb": peak_rss_mb(),
    }
    return {
        "correct": not problems,
        "attempted": len(latencies_ms),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in values.items()
        },
        "info": {
            "passes": len(passes),
            "requests_per_pass": len(session.projects),
            "latency_samples": len(latencies_ms),
            "pass_seconds": [p.seconds for p in passes],
            "import_seconds": import_samples,
            "priming_seconds": priming,
            "fail_ratio": bad_records / records if records else 1.0,
            "verdict_mismatches": mismatches,
            "replay_confirmed": passes[0].confirmed,
            "pass_totals": list(passes[0].totals),
            "problems": problems[:20],
        },
    }
