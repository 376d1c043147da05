"""Per-file audit work unit: the code that runs inside a worker process.

An :class:`EntryTask` names one entry of a project; :func:`execute_entry`
runs it where it is scheduled — the calling process at ``--jobs 1``, a
pool worker at ``--jobs N`` — as one pipeline: scan the entry's include
closure through that process's parse memo (the ``scan`` stage), shape
the :class:`AuditTask` with :func:`entry_task`, derive its cache key,
probe the result cache, and verify on a miss with the closure's parses
already in the memo.  :func:`execute_task` runs the WebSSARI pipeline
(:meth:`~repro.websari.pipeline.WebSSARI.verify_file`) on a shaped task,
whose stage spans also fill the outcome's timings.  Both always return a
:class:`FileOutcome` — exceptions become structured error records rather
than aborting the batch.

Everything crossing the process boundary (task in, outcome out) is
picklable; the outcome additionally round-trips through JSON
(``to_record``/``from_record``) so it can live in the result cache and
the JSONL sink.  The full :class:`VerificationReport` object is attached
only when ``want_report`` is set (used by ``verify_project``), and the
entry's include scan only for the caller's include graph; both are
deliberately excluded from the JSON record.
"""

from __future__ import annotations

import hashlib
import signal
import time
import traceback
from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING

from repro.engine.cache import ResultCache, cache_key
from repro.obs import Tracer, set_tracer, stage
from repro.php.errors import FrontendError, IncludeError
from repro.php.includes import SourceProject, scan_includes

if TYPE_CHECKING:  # pragma: no cover
    from repro.php.includes import IncludeScan
    from repro.websari.pipeline import VerificationReport, WebSSARI

__all__ = [
    "AuditTask",
    "EntryTask",
    "FileOutcome",
    "WorkerSession",
    "entry_task",
    "execute_entry",
    "execute_task",
    "project_content_digest",
]


def project_content_digest(files: dict[str, str]) -> str:
    """One digest over a whole file set — the conservative cache
    material for entries whose include closure could not be trusted
    (dynamic includes, unparsable members).  Byte-compatible with
    hashing :meth:`AuditTask.cache_material`'s joined form."""
    joined = "\x00".join(f"{path}\x01{files[path]}" for path in sorted(files))
    return hashlib.sha256(joined.encode()).hexdigest()


def entry_task(
    index: int,
    filename: str,
    project: SourceProject,
    scan: "IncludeScan",
    whole: dict,
) -> "AuditTask":
    """The task for one project entry, shaped by its include scan.

    * No include statement resolved, missing or dynamic: a standalone
      source task, keyed on the entry's bytes.  It names the entry, so
      the worker parses it under the project-relative name the scan
      already parsed (one parse per file, and spans that read like a
      closure entry's).  An unparsable entry lands here too.
    * A bounded closure: a project task carrying exactly that closure,
      which is also what its cache key hashes.
    * A widened scan (dynamic include, unparsable member): a task
      carrying the whole project, keyed on its digest.  ``whole`` is the
      caller's per-run memo, so the project is read and hashed once.
    """
    entry = scan.entry
    if not (scan.edges or scan.missing or scan.unresolved):
        return AuditTask(
            index=index, filename=filename, source=project.source(entry), entry=entry
        )
    if not scan.widened:
        files = {path: project.source(path) for path in sorted(scan.closure)}
        return AuditTask(index=index, filename=filename, project_files=files, entry=entry)
    if not whole:
        files = {path: project.source(path) for path in project.paths()}
        whole.update(files=files, digest=project_content_digest(files))
    return AuditTask(
        index=index,
        filename=filename,
        project_files=whole["files"],
        entry=entry,
        closure_widened=True,
        project_digest=whole["digest"],
    )


@dataclass(frozen=True)
class WorkerSession:
    """What an executing process needs besides its tasks: the policy (the
    :class:`~repro.websari.pipeline.WebSSARI` instance with its prelude,
    lattice, solver options and parse memo), the run options, and the
    run's projects and cache.

    It is an argument of a worker process.  Under ``fork`` the worker
    inherits the parent's session as memory; under ``spawn`` the session
    is pickled, which drops the caches' contents.  Either way the worker
    fills its own parse memo with the closures it scans, so verdicts are
    identical under both start methods, and workers can live on hosts
    where fork is unavailable (macOS default, Windows).  A worker kept
    for a later run receives that run's session down its pipe, pickled
    like a spawn worker's.
    """

    websari: "WebSSARI"
    want_report: bool = False
    collect_trace: bool = False
    #: The run's projects, by slot: an :class:`EntryTask` on a worker
    #: pipe names its project by index here, so each project crosses
    #: each pipe at most once per run, with the session.  A
    #: :class:`~repro.php.includes.TreeProject` travels as its path map.
    projects: tuple[SourceProject, ...] = ()
    #: The policy fingerprint entry tasks key on (None: the run keeps no
    #: cache, so no key is derived) and the result cache they probe,
    #: read-only — the scheduler is the single writer.  No cache is
    #: probed when reports are wanted: a record cannot rebuild one.
    policy_fp: str | None = None
    cache: ResultCache | None = None


@dataclass(frozen=True)
class EntryTask:
    """One entry of a project, named but not yet scanned.

    The process that runs it scans its include closure and shapes the
    :class:`AuditTask` (:func:`execute_entry`), so the closure is parsed
    once, where it is verified.
    """

    index: int
    filename: str
    #: The entry's project-relative path.
    entry: str
    #: The project.  On a worker pipe: the project's slot in
    #: :attr:`WorkerSession.projects` instead.
    project: "SourceProject | int"


@dataclass(frozen=True)
class AuditTask:
    """One unit of work for the engine."""

    index: int
    filename: str
    #: Standalone mode: the PHP source text.
    source: str | None = None
    #: Project mode: the files this entry's audit may read (path → text).
    #: Historically the whole project; with closure-scoped scheduling it
    #: is the entry's transitive include closure — which is also exactly
    #: what ``cache_material`` hashes, so an edit to an included file
    #: invalidates precisely the entries that splice it.
    project_files: dict[str, str] | None = None
    #: Project mode: the entry's project-relative path.  Standalone mode:
    #: the name the source is parsed under, when it differs from
    #: ``filename`` (a project entry with no includes).
    entry: str | None = None
    #: True when the include scan could not bound this entry's
    #: dependency set (dynamic includes / unparsable members); the task
    #: then carries the whole project and keys on ``project_digest``.
    closure_widened: bool = False
    #: Precomputed whole-project content digest for widened tasks (the
    #: executing process computes it once per run instead of re-joining
    #: the full project per entry).
    project_digest: str | None = None

    def cache_material(self) -> tuple[str, str]:
        """(source-text, extra) pair feeding the content-addressed key.

        A task with an ``entry`` keys on that project-relative name,
        never on ``filename``: its spans render under the entry name, so
        the same tree reached through two path spellings (or copied
        elsewhere) shares its records, and the scheduler re-stamps the
        filename on a hit.  Only a task without an ``entry`` keys on
        ``file=``, because its spans render under the filename.  Project
        entries hash the file set they carry (their include closure);
        widened entries key on the precomputed whole-project digest so
        *any* project edit conservatively invalidates them.
        """
        if self.project_files is None:
            name = f"entry={self.entry}" if self.entry is not None else f"file={self.filename}"
            return self.source or "", name
        if self.project_digest is not None:
            return self.project_digest, f"entry={self.entry}|closure=widened"
        joined = "\x00".join(
            f"{path}\x01{self.project_files[path]}" for path in sorted(self.project_files)
        )
        return joined, f"entry={self.entry}"


@dataclass
class FileOutcome:
    """Everything the engine learned about one file.

    ``status`` is one of ``ok``, ``frontend-error``, ``error``,
    ``timeout``, ``crash``, or ``skipped`` (never started because the
    engine drained on shutdown); only ``ok`` carries a verdict
    (``safe``).
    """

    filename: str
    status: str
    safe: bool | None = None
    ts_errors: int = 0
    bmc_groups: int = 0
    num_statements: int = 0
    num_ai_branches: int = 0
    num_ai_assertions: int = 0
    warnings: list[str] = field(default_factory=list)
    summary: str = ""
    detailed: str = ""
    error: str | None = None
    #: Per-stage wall seconds measured inside the worker.
    timings: dict[str, float] = field(default_factory=dict)
    #: SAT-solver counters for this file: ``backend``, ``solve_calls``,
    #: and the aggregated :class:`~repro.sat.solver.SolverStats` fields
    #: (decisions, conflicts, propagations, restarts, ...).
    solver: dict = field(default_factory=dict)
    #: Hardest SAT queries of this file (ledger records from the BMC
    #: check, each stamped with ``file``; see :mod:`repro.obs.ledger`).
    slow_queries: list[dict] = field(default_factory=list)
    #: Include-layer facts for project entries: ``edges`` (direct
    #: includer→included edges seen while splicing), ``included_files``,
    #: ``unresolved`` (dynamic include paths), and the
    #: ``parse_cache_hits``/``parse_cache_misses`` deltas for this task
    #: (an entry task's include scan adds its own).  Empty for a shaped
    #: standalone task run on its own.
    includes: dict = field(default_factory=dict)
    #: Concrete witness replay results (``repro.replay``): per-trace
    #: verdicts plus confirmed/refuted/unsupported counts and the
    #: patched re-run tallies.  Empty unless the policy enables replay
    #: and the file verified vulnerable.
    replay: dict = field(default_factory=dict)
    #: End-to-end seconds for this file as seen by the scheduler.
    duration: float = 0.0
    cached: bool = False
    cache_key: str | None = None
    attempts: int = 1
    #: Serialized span trees (``Span.to_dict`` payloads) collected inside
    #: the worker when tracing is on; stitched by the scheduler and
    #: deliberately excluded from the JSON record (cache + JSONL stay lean).
    trace: list[dict] | None = None
    #: Full report object (pickled across the process boundary, never
    #: JSON-serialized); present only when the caller asked for it.
    report: "VerificationReport | None" = None
    #: The entry's include scan, for the caller's include graph.  Set on
    #: every outcome whose scan finished; never JSON-serialized.
    scan: "IncludeScan | None" = None

    _RECORD_FIELDS = (
        "filename",
        "status",
        "safe",
        "ts_errors",
        "bmc_groups",
        "num_statements",
        "num_ai_branches",
        "num_ai_assertions",
        "warnings",
        "summary",
        "detailed",
        "error",
        "timings",
        "solver",
        "slow_queries",
        "includes",
        "replay",
    )

    def to_record(self) -> dict:
        """JSON-safe record (cache entry / JSONL payload)."""
        record = {name: getattr(self, name) for name in self._RECORD_FIELDS}
        record["timings"] = {k: round(v, 6) for k, v in self.timings.items()}
        record["duration"] = round(self.duration, 6)
        record["cached"] = self.cached
        record["cache_key"] = self.cache_key
        record["attempts"] = self.attempts
        return record

    @classmethod
    def from_record(cls, record: dict) -> "FileOutcome":
        known = {f.name for f in fields(cls)} - {"report", "scan"}
        kwargs = {k: v for k, v in record.items() if k in known}
        return cls(**kwargs)


def execute_task(
    task: AuditTask, websari: "WebSSARI", want_report: bool = False
) -> FileOutcome:
    """Run the full pipeline on one task, timing each stage.

    Never raises for per-file analysis failures: frontend errors (parse,
    lex, include) map to ``frontend-error`` outcomes, anything else to
    ``error`` outcomes carrying the traceback tail.
    """
    timings: dict[str, float] = {}
    started = time.perf_counter()
    try:
        outcome = _run_stages(task, websari, timings, want_report)
    except FrontendError as exc:
        outcome = FileOutcome(filename=task.filename, status="frontend-error", error=str(exc))
    except RecursionError:
        outcome = FileOutcome(
            filename=task.filename, status="error", error="recursion limit exceeded"
        )
    except Exception as exc:  # noqa: BLE001 - isolation is the contract
        tail = traceback.format_exc(limit=5)
        outcome = FileOutcome(
            filename=task.filename, status="error", error=f"{type(exc).__name__}: {exc}\n{tail}"
        )
    outcome.timings = timings
    outcome.duration = time.perf_counter() - started
    return outcome


def _run_stages(
    task: AuditTask,
    websari: "WebSSARI",
    timings: dict[str, float],
    want_report: bool,
) -> FileOutcome:
    """The WebSSARI pipeline on one task, then replay and rendering."""
    if task.project_files is not None:
        report, includes = websari.verify_file(
            task.filename,
            project=SourceProject(task.project_files),
            entry=task.entry,
            timings=timings,
        )
        if task.closure_widened:
            includes["widened"] = True
    else:
        # Standalone tasks parse through the cache too (an entry under
        # the name its include scan parsed) but record no cache
        # counters: their JSONL records stay byte-deterministic
        # regardless of cache warmth.
        report, includes = websari.verify_file(
            task.filename, source=task.source, entry=task.entry, timings=timings
        )

    replay_info: dict = {}
    if websari.replay and not report.safe:
        # The original sources come from the parse stage's memo; patched
        # sources stay task-local (see repro.replay.replayer._TaskParses).
        # The import sits inside the stage so a worker that has to load
        # the replay stage times that load as replay, not between stages.
        with stage("replay", timings):
            from repro.replay import replay_for_task

            replay_info = replay_for_task(
                task, report, parse_hook=websari.parse_cache.parse
            )

    bmc_result = report.bmc
    return FileOutcome(
        filename=task.filename,
        status="ok",
        safe=report.safe,
        ts_errors=report.ts_error_count,
        bmc_groups=report.bmc_group_count,
        num_statements=report.num_statements,
        num_ai_branches=report.num_ai_branches,
        num_ai_assertions=report.num_ai_assertions,
        warnings=list(report.warnings),
        summary=report.summary(),
        detailed=report.detailed_report(),
        includes=includes,
        solver={
            "backend": bmc_result.solver_backend,
            "solve_calls": bmc_result.num_solve_calls,
            **bmc_result.solver_stats,
        },
        slow_queries=[
            {
                **query,
                "seconds": round(float(query.get("seconds", 0.0)), 6),
                "file": task.filename,
            }
            for query in bmc_result.slow_queries
        ],
        replay=replay_info,
        report=report if want_report else None,
    )


def restamp_filename(outcome: FileOutcome, filename: str) -> None:
    """Give a cached outcome the filename of the task that hit it.

    Entry tasks key on their project-relative entry, not on the path
    spelling, so a record cached through one spelling (or one copy of a
    tree) may serve another.  The filename shows in the record field,
    the header line both report texts start with, and each slow query's
    ``file`` stamp; everything else renders under the entry name.
    """
    cached = outcome.filename
    if cached == filename:
        return
    outcome.filename = filename
    header = f"{cached}: "
    for name in ("summary", "detailed"):
        text = getattr(outcome, name)
        if text.startswith(header):
            setattr(outcome, name, f"{filename}: {text[len(header):]}")
    for query in outcome.slow_queries:
        query["file"] = filename


def cached_outcome(record: dict, filename: str, key: str) -> FileOutcome:
    """The outcome a result-cache hit stands for: the stored record under
    the hitting task's filename, with no stage time of this run."""
    outcome = FileOutcome.from_record(record)
    restamp_filename(outcome, filename)
    outcome.cached = True
    outcome.cache_key = key
    outcome.timings = {}
    outcome.duration = 0.0
    outcome.attempts = 0
    return outcome


def execute_entry(
    task: EntryTask, session: WorkerSession, wholes: dict[int, dict] | None = None
) -> FileOutcome:
    """Scan, shape, key, probe and verify one project entry.

    The ``scan`` stage walks the entry's include closure through the
    verifier's parse memo and shapes the task by :func:`entry_task`; its
    parse hits and misses join the record's ``includes`` counters, and
    the scan itself rides on :attr:`FileOutcome.scan`.  An entry
    that cannot be read or scanned (deleted, permission lost) becomes an
    ``unreadable`` outcome.  With a cache fingerprint in the session the
    key is derived from the shaped task, and the cache is probed (read
    only): a hit carries the scan's timing and nothing else of this run.
    A miss is verified by :func:`execute_task` with the closure's parses
    already in the memo.  ``wholes`` is the caller's per-run memo of
    whole-project snapshots for widened entries, keyed by project id.
    """
    project = task.project
    assert isinstance(project, SourceProject)
    websari = session.websari
    memo = websari.parse_cache
    timings: dict[str, float] = {}
    started = time.perf_counter()
    hits, misses = memo.hits, memo.misses
    try:
        with stage("scan", timings):
            scan = scan_includes(project, task.entry, parse_hook=memo.parse)
            whole = {} if wholes is None else wholes.setdefault(id(project), {})
            shaped = entry_task(task.index, task.filename, project, scan, whole)
    except (OSError, IncludeError) as exc:
        return FileOutcome(
            filename=task.filename,
            status="unreadable",
            error=str(exc),
            duration=time.perf_counter() - started,
        )
    scan_hits, scan_misses = memo.hits - hits, memo.misses - misses

    key = None
    record = None
    if session.policy_fp is not None:
        material, extra = shaped.cache_material()
        key = cache_key(material, session.policy_fp, extra)
        if session.cache is not None:
            record = session.cache.get(key)
    if record is not None:
        outcome = cached_outcome(record, task.filename, key)
        outcome.timings = timings
    else:
        outcome = execute_task(shaped, websari, session.want_report)
        outcome.timings = {**timings, **outcome.timings}
        includes = outcome.includes
        includes["parse_cache_hits"] = includes.get("parse_cache_hits", 0) + scan_hits
        includes["parse_cache_misses"] = includes.get("parse_cache_misses", 0) + scan_misses
        outcome.cache_key = key
    outcome.scan = scan
    outcome.duration = time.perf_counter() - started
    return outcome


def safe_execute(
    task: "AuditTask | EntryTask",
    session: WorkerSession,
    wholes: dict[int, dict] | None = None,
) -> FileOutcome:
    """Run ``task`` (an :class:`EntryTask` through :func:`execute_entry`,
    an :class:`AuditTask` through :func:`execute_task`) with a
    last-resort catch: even a bug in the executor itself must yield a
    structured record, not an abort.

    With ``session.collect_trace``, a fresh enabled tracer is installed
    for the duration of the task and the finished span trees (the stage
    spans and everything the pipeline nested under them) are serialized
    onto ``outcome.trace`` for the scheduler to stitch.
    """
    tracer = Tracer(enabled=True) if session.collect_trace else None
    previous = set_tracer(tracer) if tracer is not None else None
    try:
        try:
            if isinstance(task, EntryTask):
                outcome = execute_entry(task, session, wholes)
            else:
                outcome = execute_task(task, session.websari, session.want_report)
        except Exception as exc:  # noqa: BLE001 - isolation is the contract
            outcome = FileOutcome(
                filename=task.filename,
                status="error",
                error=f"{type(exc).__name__}: {exc}",
            )
    finally:
        if tracer is not None:
            set_tracer(previous)
    if tracer is not None:
        outcome.trace = [span.to_dict() for span in tracer.take_roots()]
    return outcome


def _worker_loop(conn, session: WorkerSession) -> None:
    """Entry point of a persistent worker process.

    ``session`` carries the policy, the run options, the run's projects
    and its cache.  Under ``fork`` it is the parent's own object,
    inherited with the process memory; under ``spawn`` it arrives
    pickled, with empty caches.  The worker receives tasks and sends one
    :class:`FileOutcome` back per task until the scheduler shuts it down
    (``None`` sentinel or closed pipe).  An :class:`EntryTask` arrives
    naming its project by slot in the session, and the worker scans,
    keys, probes and verifies it through its own parse memo, so each
    file is parsed at most once per worker per run.  A worker that dies
    mid-task (hard crash, kill, unpicklable result) is detected by the
    scheduler through the broken pipe and replaced with a fresh process.

    The scheduler keeps idle workers between runs.  A later run that
    reuses one first sends it that run's :class:`WorkerSession` down the
    pipe: the worker swaps it in (a pickled copy, so its caches start
    empty, as a spawn worker's do) and drops its whole-project
    snapshots, so nothing cached crosses from one run into the next.
    """
    # The parent coordinates interrupts (drain + trailer): a terminal ^C
    # reaches the whole foreground process group, so workers must not
    # die mid-task from it and turn a clean drain into crash records.
    # Fork also copies any CLI signal handlers (e.g. `repro watch`'s
    # SIGTERM banner) — reset SIGTERM to the default so the scheduler's
    # terminate() actually terminates, silently.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass
    try:
        wholes: dict[int, dict] = {}
        while True:
            try:
                task = conn.recv()
            except EOFError:
                return
            if task is None:
                return
            if isinstance(task, WorkerSession):
                session = task
                wholes.clear()
                continue
            if isinstance(task, EntryTask) and isinstance(task.project, int):
                task = replace(task, project=session.projects[task.project])
            conn.send(safe_execute(task, session, wholes))
    finally:
        conn.close()
