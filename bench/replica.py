"""The traced run: a staged replica of one ``watch --once`` pass.

The replica calls each layer's public function in the order the watch
loop and the engine worker do, at ``--jobs 1``, and records a span around
every call.  Spans live only in this file; the program is not touched.
Each span is (name, start, end, parent, request id); a layer's time is the
self time of its spans, so the layer times of one request never add up to
more than the request.  The spans are written at exit as a Chrome
trace-event file, ``bench/out/<workload>.trace.json``.

The replica's per-file verdicts must equal those of the untraced run on
the same inputs, so the per-layer numbers describe the same work.
"""

from __future__ import annotations

import json
import shutil
import statistics
import time
from collections import defaultdict
from pathlib import Path

from bench.runner import (
    ROOT,
    PassResult,
    RequestResult,
    Session,
    run_passes,
    verdict_problems,
)
from repro.ai.renaming import rename
from repro.ai.translate import translate_filter_result
from repro.analysis.grouping import group_errors
from repro.bmc.checker import check_program
from repro.daemon.watcher import TreeWatcher
from repro.engine import AuditTask, FileOutcome, HotResultCache, cache_key, policy_fingerprint
from repro.engine.worker import project_content_digest
from repro.ir.commands import count_commands
from repro.ir.filter import filter_program
from repro.php.errors import FrontendError
from repro.php.includes import SourceProject, resolve_includes, scan_includes
from repro.php.lexer import tokenize
from repro.php.parsecache import ParseCache
from repro.php.parser import parse
from repro.replay import replay_for_task
from repro.sat.cache import SatQueryCache
from repro.typestate.ts import analyze_commands
from repro.websari.pipeline import VerificationReport, WebSSARI, count_statements

#: Spans whose self time is a per-layer metric, ``<span>_s``.
LAYER_SPANS = (
    "daemon.poll", "php.scan", "php.resolve", "php.parse_cache", "ir.filter",
    "typestate.ts", "ai.translate", "ai.rename", "bmc.check", "sat.cache",
    "analysis.group", "websari.render", "replay.replay", "engine.cache_get",
    "engine.cache_put",
)

COUNTS = (
    "php.parse_calls", "ir.commands", "ai.assertions", "bmc.clauses",
    "sat.solve_calls", "sat.conflicts", "sat.cache_puts", "replay.traces", "replay.confirmed",
)
RATIOS = ("php.parse_cache_hit_ratio", "sat.cache_hit_ratio", "engine.cache_hit_ratio",
          "engine.parallel_efficiency")
#: Time metrics that are not span self times.
OTHER_TIMES = ("php.lex_s", "php.parse_s", "bmc.solve_s", "engine.other_s")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric and its unit (BENCHMARK.json ``per_layer``)."""
    times = list(OTHER_TIMES) + [f"{span}_s" for span in LAYER_SPANS]
    units = {name: "s" for name in times}
    units.update({name[:-2] + "_share": "ratio" for name in times})
    units.update({name: "count" for name in COUNTS})
    units.update({name: "ratio" for name in RATIOS})
    units["replica.pass_s"] = "s"
    return units


class SpanRecorder:
    """In-memory spans: ``[name, start, end, parent index, request id]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.request: int | None = None

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += end - start - child[i]
        return totals

    def write_chrome_trace(self, path: Path) -> None:
        origin = min((s[1] for s in self.spans), default=0.0)
        events = [
            {
                "name": name, "ph": "X", "pid": 1, "tid": 1,
                "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                "args": {"request": request, "parent": parent},
            }
            for name, start, end, parent, request in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


class _Span:
    __slots__ = ("recorder", "record")

    def __init__(self, recorder: SpanRecorder, name: str) -> None:
        self.recorder = recorder
        stack = recorder._stack
        self.record = [name, 0.0, 0.0, stack[-1] if stack else -1, recorder.request]

    def __enter__(self) -> "_Span":
        recorder = self.recorder
        recorder._stack.append(len(recorder.spans))
        recorder.spans.append(self.record)
        self.record[1] = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.record[2] = time.perf_counter()
        self.recorder._stack.pop()

    @property
    def seconds(self) -> float:
        return self.record[2] - self.record[1]


class TimedParseCache(ParseCache):
    def __init__(self, recorder: SpanRecorder, persist_dir: Path) -> None:
        super().__init__(persist_dir=persist_dir)
        self.recorder = recorder

    def parse(self, source: str, filename: str = "<string>"):
        with self.recorder.span("php.parse_cache"):
            return super().parse(source, filename)


class TimedSatCache(SatQueryCache):
    """Reads and writes share one span name: on a primed cache every query
    hits and nothing is written."""

    def __init__(self, recorder: SpanRecorder, persist_dir: Path) -> None:
        super().__init__(persist_dir=persist_dir)
        self.recorder = recorder
        self.puts = 0

    def get(self, key):
        with self.recorder.span("sat.cache"):
            return super().get(key)

    def get_learned(self, key):
        with self.recorder.span("sat.cache"):
            return super().get_learned(key)

    def put(self, key, record):
        self.puts += 1
        with self.recorder.span("sat.cache"):
            super().put(key, record)


class Replica:
    """Runs requests layer by layer with a span around every call."""

    def __init__(self, replay: bool) -> None:
        self.replay = replay
        self.recorder = SpanRecorder()
        self.counts: dict[str, int] = defaultdict(int)
        #: Unique (path, text) pairs the pass read, for the lex/parse timing.
        self.sources: dict[tuple[str, str], None] = {}
        self._next_request = 0

    # -- one request ---------------------------------------------------------

    def request(self, root: Path, cache: Path, project) -> RequestResult:
        rec = self.recorder
        rec.request = self._next_request
        self._next_request += 1
        with rec.span("request") as whole:
            websari = WebSSARI(
                sat_cache=TimedSatCache(rec, cache / "sat"),
                parse_cache=TimedParseCache(rec, cache / "parse"),
                replay=self.replay,
            )
            results = HotResultCache(cache)
            with rec.span("daemon.poll"):
                dirty = TreeWatcher(root).poll().dirty
                files = {
                    SourceProject.normalize(str(Path(p).relative_to(root))): Path(p).read_text()
                    for p in dirty
                }
            tree = SourceProject(files)
            self.sources.update(dict.fromkeys(files.items()))
            tasks = [self._task(tree, rel, str(root / rel), websari, i)
                     for i, rel in enumerate(sorted(files))]

            with rec.span("engine.cache_get"):
                fingerprint = policy_fingerprint(websari)
            records: dict[str, dict] = {}
            misses = []
            for task in tasks:
                with rec.span("engine.cache_get"):
                    material, extra = task.cache_material()
                    key = cache_key(material, fingerprint, extra)
                    hit = results.get(key)
                if hit is None:
                    misses.append((task, key))
                else:
                    records[task.filename] = hit
            for task, key in misses:
                outcome = self._execute(task, websari)
                record = outcome.to_record()
                if outcome.status in ("ok", "frontend-error"):
                    with rec.span("engine.cache_put"):
                        results.put(key, record)
                records[task.filename] = record

            self.counts["engine.probes"] += len(tasks)
            self.counts["engine.hits"] += len(tasks) - len(misses)
            self.counts["php.parse_calls"] += websari.parse_cache.hits + websari.parse_cache.misses
            self.counts["php.parse_hits"] += websari.parse_cache.hits
            self.counts["sat.hits"] += websari.sat_cache.hits
            self.counts["sat.lookups"] += websari.sat_cache.hits + websari.sat_cache.misses
            self.counts["sat.cache_puts"] += websari.sat_cache.puts
        result = RequestResult(project=project.name, latency=whole.seconds, ok=True)
        for filename, record in records.items():
            result.files[str(Path(filename).relative_to(root))] = (
                record.get("status"), record.get("safe"),
                int(record.get("ts_errors", 0)), int(record.get("bmc_groups", 0)),
            )
            result.confirmed += int((record.get("replay") or {}).get("confirmed", 0))
        return result

    def _task(self, tree: SourceProject, entry: str, filename: str, websari, index: int) -> AuditTask:
        """Build the engine task the way the watch loop does."""
        with self.recorder.span("php.scan"):
            scan = scan_includes(tree, entry, parse_hook=websari.parse_cache.parse)
        if scan.closure == {entry} and not scan.missing and not scan.unresolved:
            return AuditTask(index=index, filename=filename, source=tree.source(entry))
        if not scan.widened:
            closure = {p: tree.source(p) for p in sorted(scan.closure)}
            return AuditTask(index=index, filename=filename, project_files=closure, entry=entry)
        whole = {p: tree.source(p) for p in tree.paths()}
        return AuditTask(index=index, filename=filename, project_files=whole, entry=entry,
                         closure_widened=True, project_digest=project_content_digest(whole))

    def _execute(self, task: AuditTask, websari: WebSSARI) -> FileOutcome:
        try:
            return self._stages(task, websari)
        except FrontendError as exc:
            return FileOutcome(filename=task.filename, status="frontend-error", error=str(exc))

    def _stages(self, task: AuditTask, websari: WebSSARI) -> FileOutcome:
        """The engine worker's stage sequence, one span per layer call."""
        rec = self.recorder
        do_parse = websari.parse_cache.parse
        warnings: list[str] = []
        includes: dict = {}
        with rec.span("php.resolve"):
            if task.project_files is not None:
                resolution = resolve_includes(
                    SourceProject(task.project_files), task.entry, parse_hook=do_parse
                )
                program = resolution.program
                warnings = list(resolution.warnings)
                num_statements = count_statements(resolution.entry_program)
                includes = {
                    "edges": len(resolution.edges),
                    "included_files": len(resolution.included_files),
                    "unresolved": len(resolution.unresolved),
                }
            else:
                program = do_parse(task.source or "", task.filename)
                num_statements = count_statements(program)
        with rec.span("ir.filter"):
            filtered = filter_program(
                program,
                prelude=websari.prelude,
                max_unfold_depth=websari.max_unfold_depth,
                sanitize_in_place=websari.sanitize_in_place,
            )
        with rec.span("typestate.ts"):
            ts_report = analyze_commands(filtered.commands, lattice=websari.lattice)
        with rec.span("ai.translate"):
            ai_program = translate_filter_result(filtered)
        with rec.span("ai.rename"):
            renamed = rename(ai_program)
        with rec.span("bmc.check"):
            bmc = check_program(
                renamed,
                lattice=websari.lattice,
                accumulate=websari.accumulate,
                max_counterexamples=websari.max_counterexamples,
                solver_backend=websari.solver,
                sat_cache=websari.sat_cache,
                restart_strategy=websari.restart_strategy,
                sat_seed=websari.sat_seed,
                sat_incremental=websari.sat_incremental,
            )
        with rec.span("analysis.group"):
            grouping = group_errors(bmc)
        report = VerificationReport(
            filename=task.filename,
            ts=ts_report,
            bmc=bmc,
            grouping=grouping,
            num_statements=num_statements,
            num_ai_branches=ai_program.num_branches,
            num_ai_assertions=ai_program.num_assertions,
            warnings=list(ai_program.warnings) + warnings,
        )
        with rec.span("websari.render"):
            summary = report.summary()
            detailed = report.detailed_report()
        # The stage boundary is crossed for every file, as in the worker;
        # with replay off (or a safe file) it costs only the test.
        with rec.span("replay.replay"):
            replay = replay_for_task(task, report) if websari.replay and not report.safe else {}

        counts = self.counts
        counts["ir.commands"] += count_commands(filtered.commands)
        counts["ai.assertions"] += ai_program.num_assertions
        counts["bmc.clauses"] += bmc.num_clauses
        counts["bmc.solve_us"] += round(bmc.solve_seconds * 1e6)
        counts["sat.solve_calls"] += bmc.num_solve_calls
        counts["sat.conflicts"] += int(bmc.solver_stats.get("conflicts", 0))
        for verdict in ("confirmed", "refuted", "unsupported"):
            counts["replay.traces"] += int(replay.get(verdict, 0))
        counts["replay.confirmed"] += int(replay.get("confirmed", 0))
        return FileOutcome(
            filename=task.filename,
            status="ok",
            safe=report.safe,
            ts_errors=report.ts_error_count,
            bmc_groups=report.bmc_group_count,
            num_statements=num_statements,
            num_ai_branches=report.num_ai_branches,
            num_ai_assertions=report.num_ai_assertions,
            warnings=list(report.warnings),
            summary=summary,
            detailed=detailed,
            includes=includes,
            solver={"backend": bmc.solver_backend, "solve_calls": bmc.num_solve_calls,
                    **bmc.solver_stats},
            slow_queries=[{**q, "file": task.filename} for q in bmc.slow_queries],
            replay=replay,
        )

    # -- front-end timing over the pass's unique sources -------------------------

    def time_front_end(self) -> tuple[float, float]:
        """(lex seconds, parse seconds) over the unique sources, no cache."""
        sources = list(self.sources)
        started = time.perf_counter()
        for path, text in sources:
            tokenize(text, path)
        lexed = time.perf_counter()
        for path, text in sources:
            try:
                parse(text, path)
            except FrontendError:
                pass
        return lexed - started, time.perf_counter() - lexed

    # -- metrics -------------------------------------------------------------------

    def metrics(self, replica_pass: PassResult, run_pass_s: float, jobs: int) -> dict[str, float]:
        pass_s = replica_pass.seconds
        self_times = self.recorder.self_times()
        counts = self.counts
        lex_s, parse_s = self.time_front_end()
        values: dict[str, float] = {"php.lex_s": lex_s, "php.parse_s": parse_s}
        for span in LAYER_SPANS:
            values[f"{span}_s"] = self_times.get(span, 0.0)
        values["bmc.solve_s"] = counts["bmc.solve_us"] / 1e6
        values["engine.other_s"] = run_pass_s - pass_s / jobs
        for name in list(values):
            values[name[:-2] + "_share"] = values[name] / pass_s
        for name in COUNTS:
            values[name] = counts[name]
        values["php.parse_cache_hit_ratio"] = _ratio(counts["php.parse_hits"], counts["php.parse_calls"])
        values["sat.cache_hit_ratio"] = _ratio(counts["sat.hits"], counts["sat.lookups"])
        values["engine.cache_hit_ratio"] = _ratio(counts["engine.hits"], counts["engine.probes"])
        values["engine.parallel_efficiency"] = pass_s / (jobs * run_pass_s)
        values["replica.pass_s"] = pass_s
        return values


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def verdict_differences(run: PassResult, replica: PassResult) -> list[str]:
    """Per-request, per-file verdicts of the replica against the run."""
    by_project = {r.project: r.files for r in run.requests}
    return [
        f"{r.project}: replica {r.files} != run {by_project.get(r.project)}"
        for r in replica.requests
        if r.files != by_project.get(r.project)
    ]


def trace(session: Session, seconds: float) -> dict:
    """Run passes untraced (half the time box), then one replica pass."""
    request = session.request_fn()
    session.warm_up()
    edit = session.workload.mode == "edit"
    if edit:
        session.prime()
        snapshot = session.work / "replica-state"
        shutil.copytree(session.state, snapshot)
    passes = run_passes(session, request, seconds / 2)
    if edit:
        # Cache keys embed the tree's path: the replica repeats pass 0 from
        # the primed state at the same place (cold passes reuse the path too).
        shutil.rmtree(session.state)
        snapshot.rename(session.state)

    replica = Replica(session.workload.replay)
    replica_pass = session.run_pass(0, replica.request)
    problems, _ = verdict_problems(session, passes + [replica_pass])
    problems += verdict_differences(passes[0], replica_pass)
    run_pass_s = statistics.median(p.seconds for p in passes)
    values = replica.metrics(replica_pass, run_pass_s, session.workload.jobs)
    units = per_layer_units()
    trace_path = ROOT / "bench" / "out" / f"{session.workload.name}.trace.json"
    replica.recorder.write_chrome_trace(trace_path)
    requests = [r for p in passes + [replica_pass] for r in p.requests]
    return {
        "correct": not problems,
        "attempted": len(requests),
        "failed": sum(1 for r in requests if not r.ok or r.bad_records),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        "info": {
            "run_passes": len(passes),
            "run_pass_seconds": [p.seconds for p in passes],
            "replica_requests": len(replica_pass.requests),
            "spans": len(replica.recorder.spans),
            "trace_file": str(trace_path.relative_to(ROOT)),
            "problems": problems[:20],
        },
    }
