"""The batch-audit scheduler: fan tasks over a worker pool, survive
anything a file can throw at it.

Design (persistent workers, pipelined two-deep):

* ``jobs`` long-lived worker processes are started once (fork where
  available, or ``spawn`` via :attr:`EngineConfig.start_method`), given
  the run's :class:`~repro.engine.worker.WorkerSession` (policy, options,
  projects, cache) as a process argument (inherited as memory under fork,
  pickled under spawn), and fed tasks over duplex pipes, so process
  start-up cost is paid per *pool*, not per file.
* An :class:`~repro.engine.worker.EntryTask` names only its project (by
  slot in the session) and entry: the worker that runs it scans the
  entry's include closure through its own parse memo, shapes the task,
  derives its cache key and probes the cache, and verifies on a miss —
  so a pooled run parses each file at most once per worker, and the
  parent parses nothing.  At ``jobs <= 1`` the calling process runs the
  same pipeline.  The parent stays the single cache writer.
* The pool outlives the run: its idle workers are kept for the next run
  in the same process (a ``repro watch`` cycle, a library caller's next
  audit), which reuses them when its pickled verifier, ``jobs``, start
  method, ``want_reports`` and tracing all match the kept pool's.  Each
  reused worker first gets the run's session down its pipe, which resets
  its caches, so its records' parse-cache counters count its own parses;
  any other run shuts the kept pool down and starts its own.
  :func:`shutdown_pool` (also registered with :mod:`atexit`) stops the
  kept workers.
* Each pipe holds up to :data:`_QUEUE_DEPTH` (2) tasks: while a worker
  computes its current file the next one is already buffered in the
  pipe, hiding the scheduler's wakeup latency (~1.3 ms/task round-trip
  measured on a 1-core box).  Tasks are dealt breadth-first — every
  worker gets a first task before any worker gets a second — so
  pipelining never starves an idle worker.
* Per-file wall-clock deadline: the clock for a task starts when it
  reaches the head of its worker's queue, so timeout semantics stay
  per-task despite pipelining.  An overdue worker is killed, the file
  recorded as ``timeout`` (deterministically slow files are not
  retried), its queued-but-unstarted tasks are requeued (they keep
  their attempt count — they never ran), and a fresh worker forked in
  its place.
* A worker that dies mid-task (hard crash, OOM kill) only ever takes its
  own file with it: the scheduler respawns the worker and retries the
  task once (``crash_retries``), then records it as ``crash``.
* Results are keyed by task index, so the final outcome list is in input
  order no matter how completion interleaves.
* With a :class:`~repro.engine.cache.ResultCache` attached, a shaped
  :class:`~repro.engine.worker.AuditTask`'s content-addressed key is
  probed in the parent first (hits skip the pool entirely); an entry
  task's key is derived and probed where it runs and comes back on its
  outcome.  Fresh ``ok``/``frontend-error`` outcomes (the deterministic
  statuses) are written back by the parent.

``jobs <= 1`` runs tasks inline in the calling process — same outcome
records and caching, no subprocess machinery (and therefore no timeout
or crash isolation); useful for debugging and on single-core boxes.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import pickle
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace
from multiprocessing import connection
from typing import TYPE_CHECKING

from repro.engine.cache import ResultCache, cache_key, policy_fingerprint
from repro.engine.jsonl import JsonlSink
from repro.engine.stats import EngineStats, ProgressPrinter
from repro.engine.worker import (
    AuditTask,
    EntryTask,
    FileOutcome,
    WorkerSession,
    _worker_loop,
    cached_outcome,
    safe_execute,
)
from repro.obs import MetricsRegistry, Span, Tracer, span_from_dict
from repro.obs.report import run_timings, verdict_of
from repro.sat.solver import MAX_STATS

if TYPE_CHECKING:  # pragma: no cover
    from repro.websari.pipeline import WebSSARI

__all__ = ["AuditEngine", "EngineConfig", "EngineResult", "shutdown_pool"]

#: Statuses whose outcome is a deterministic function of the inputs and
#: may therefore be cached.
_CACHEABLE_STATUSES = frozenset({"ok", "frontend-error"})

_POLL_INTERVAL = 0.05

#: What :meth:`AuditEngine.run` takes: shaped tasks, or project entries
#: that the executing process scans and shapes itself.
Task = AuditTask | EntryTask

#: Tasks buffered per worker pipe (1 executing + 1 queued).  Depth 2 is
#: enough to hide the scheduler round-trip; deeper queues only delay
#: crash/timeout requeueing without adding overlap.
_QUEUE_DEPTH = 2


@dataclass
class EngineConfig:
    """Knobs for one engine run."""

    jobs: int = 1
    #: Per-file wall-clock limit in seconds (None = unlimited).  Only
    #: enforced when ``jobs > 1`` (inline mode has no process to kill).
    timeout: float | None = None
    cache: ResultCache | None = None
    #: How many times to re-run a task whose worker died without a result.
    crash_retries: int = 1
    #: Attach the full VerificationReport to each outcome (pickled back
    #: from the worker).  Disables cache reads: reports cannot be
    #: reconstructed from JSON records.
    want_reports: bool = False
    progress: bool = False
    jsonl: JsonlSink | None = None
    #: Enabled tracer: workers collect per-stage span trees (down to
    #: per-assertion SAT solves) and the scheduler stitches them under a
    #: per-file root span on this tracer.  None (or a disabled tracer)
    #: keeps the whole path no-op.
    tracer: Tracer | None = None
    #: Metrics registry updated per finalized outcome (file/verdict
    #: counters, per-stage and solver totals, duration histogram).
    metrics: MetricsRegistry | None = None
    #: Graceful-shutdown hook: once this event is set, no further pending
    #: task is dispatched — tasks already executing (or buffered in a
    #: worker pipe) finish normally, everything else is finalized with
    #: status ``skipped``.  The ``repro watch`` daemon sets it from its
    #: SIGINT/SIGTERM handler so a signal drains the in-flight cycle
    #: instead of killing it mid-file.
    drain_event: threading.Event | None = None
    #: Multiprocessing start method for the pool: ``"fork"``, ``"spawn"``,
    #: or None to prefer fork where available (fastest) and fall back to
    #: the platform default.  Fork workers inherit the parent's session;
    #: spawn workers, and workers kept from an earlier run, get a pickled
    #: copy with empty caches.  Every worker parses the closures it scans
    #: itself, so both methods produce identical verdicts — ``spawn`` is
    #: the portable escape hatch for hosts without fork.
    start_method: str | None = None

    @property
    def tracing(self) -> bool:
        return self.tracer is not None and self.tracer.enabled

    @property
    def draining(self) -> bool:
        return self.drain_event is not None and self.drain_event.is_set()


@dataclass
class EngineResult:
    """Outcomes in input order, plus the run's aggregate counters."""

    outcomes: list[FileOutcome]
    stats: EngineStats

    @property
    def any_vulnerable(self) -> bool:
        return self.stats.vulnerable > 0

    @property
    def any_failed(self) -> bool:
        return self.stats.failed > 0


@dataclass
class _Worker:
    """One persistent worker process and its pipelined task queue.

    ``inflight[0]`` is the task the worker is (assumed to be) executing;
    later entries are buffered in the pipe behind it.  ``started`` and
    ``deadline`` always refer to the head task and are reset whenever the
    head changes.
    """

    process: multiprocessing.process.BaseProcess
    conn: connection.Connection
    inflight: deque[tuple[Task, int]] = field(default_factory=deque)
    started: float = 0.0
    deadline: float | None = None

    def discard(self) -> None:
        """Kill the process (whatever it is doing) and close its pipe."""
        self.process.terminate()
        self.process.join()
        self.conn.close()


@dataclass
class _Pool:
    """Idle workers one run left alive, kept for a later run whose
    :meth:`AuditEngine._pool_key` equals ``key``."""

    key: tuple
    workers: list[_Worker]


#: This process's kept pool: at most one, taken by the next pooled run.
#: Swapped only under ``_kept_lock``, so two engines running in threads
#: never share workers.
_kept: _Pool | None = None
_kept_lock = threading.Lock()

#: Seconds :func:`shutdown_pool` lets workers exit on the sentinel before
#: it terminates the stragglers.
_SHUTDOWN_GRACE = 5.0


def _send(worker: _Worker, message: object) -> bool:
    """Send ``message`` down the worker's pipe; False if the pipe is broken."""
    try:
        worker.conn.send(message)
    except OSError:
        return False
    return True


def _swap_kept(pool: _Pool | None) -> _Pool | None:
    """Make ``pool`` the kept pool; return the one it replaces."""
    global _kept
    with _kept_lock:
        previous, _kept = _kept, pool
    return previous


def _stop(workers: list[_Worker]) -> None:
    """Send every worker the ``None`` sentinel, join them all within
    :data:`_SHUTDOWN_GRACE` seconds, and terminate only the stragglers."""
    for worker in workers:
        _send(worker, None)
    deadline = time.monotonic() + _SHUTDOWN_GRACE
    for worker in workers:
        worker.process.join(max(0.0, deadline - time.monotonic()))
    for worker in workers:
        worker.discard()


def shutdown_pool() -> None:
    """Stop the kept worker pool, if there is one.

    Runs at interpreter exit.  Call it before patching what workers
    run: a kept worker was forked earlier and never sees the patch.
    """
    pool = _swap_kept(None)
    if pool is not None:
        _stop(pool.workers)


def _keep(key: tuple | None, workers: list[_Worker]) -> None:
    """Keep ``workers`` as this process's pool for runs keyed ``key``,
    stopping the pool they displace (and ``workers`` themselves when the
    key is None)."""
    if key is None:
        _stop(workers)
        workers = []
    displaced = _swap_kept(_Pool(key, workers) if workers else None)
    if displaced is not None:
        _stop(displaced.workers)


# atexit runs its hooks last-registered first, and importing
# ``multiprocessing.connection`` above registered multiprocessing's own
# exit hook (which terminates daemonic children), so the kept workers
# get their sentinel before that hook runs.
atexit.register(shutdown_pool)


def _projects(tasks: list[Task]) -> tuple:
    """The distinct projects of the run's entry tasks, in first-seen order."""
    seen: dict[int, object] = {}
    for task in tasks:
        if isinstance(task, EntryTask):
            seen.setdefault(id(task.project), task.project)
    return tuple(seen.values())


class AuditEngine:
    """Batch verifier: give it tasks, get ordered outcomes + stats."""

    def __init__(self, websari: "WebSSARI | None" = None, config: EngineConfig | None = None) -> None:
        if websari is None:
            from repro.websari.pipeline import WebSSARI

            websari = WebSSARI()
        self.websari = websari
        self.config = config if config is not None else EngineConfig()

    # -- public API ---------------------------------------------------------

    def run(self, tasks: list[Task]) -> EngineResult:
        config = self.config
        stats = EngineStats(total=len(tasks))
        progress = ProgressPrinter(total=len(tasks), enabled=config.progress)
        outcomes: dict[int, FileOutcome] = {}
        started = time.monotonic()
        tracer = config.tracer if config.tracing else None
        run_span = tracer.span("audit", files=len(tasks), jobs=config.jobs) if tracer else None

        keys: dict[int, str] = {}
        pending: deque[tuple[Task, int]] = deque()
        policy_fp = policy_fingerprint(self.websari) if config.cache is not None else None
        if policy_fp is not None:
            for task in tasks:
                if isinstance(task, AuditTask):
                    material, extra = task.cache_material()
                    keys[task.index] = cache_key(material, policy_fp, extra)

        completed = False
        if run_span is not None:
            run_span.__enter__()
        try:
            for task in tasks:
                hit = self._probe_cache(task, keys)
                if hit is not None:
                    self._finalize(hit, task, stats, progress, outcomes, keys)
                else:
                    pending.append((task, 1))
            try:
                if config.jobs <= 1:
                    session = self._session(policy_fp, inline=True)
                    self._run_inline(session, pending, stats, progress, outcomes, keys)
                else:
                    session = self._session(policy_fp, projects=_projects(tasks))
                    self._run_pool(session, pending, stats, progress, outcomes, keys)
            finally:
                progress.close()
            completed = True
        finally:
            # The trailer is written even on SIGINT / early termination:
            # an interrupted audit must still leave a well-formed stream
            # (every line standalone JSON, exactly one stats record).
            stats.wall_seconds = time.monotonic() - started
            if run_span is not None:
                run_span.__exit__(None, None, None)
            if config.jsonl is not None:
                payload = stats.as_dict()
                if not completed:
                    payload["interrupted"] = True
                config.jsonl.write_stats(payload)

        ordered = [outcomes[task.index] for task in tasks]
        return EngineResult(outcomes=ordered, stats=stats)

    # -- cache --------------------------------------------------------------

    def _probe_cache(self, task: Task, keys: dict[int, str]) -> FileOutcome | None:
        """A shaped task's cache hit, probed before dispatch (an entry
        task probes where it runs)."""
        config = self.config
        key = keys.get(task.index)
        if key is None or config.cache is None or config.want_reports:
            return None
        record = config.cache.get(key)
        return None if record is None else cached_outcome(record, task.filename, key)

    def _finalize(
        self,
        outcome: FileOutcome,
        task: Task,
        stats: EngineStats,
        progress: ProgressPrinter,
        outcomes: dict[int, FileOutcome],
        keys: dict[int, str],
    ) -> None:
        config = self.config
        # A shaped task's key was derived here; an entry task's comes
        # back on its outcome from the process that scanned it.
        key = keys.get(task.index, outcome.cache_key)
        if key is not None and config.cache is not None:
            outcome.cache_key = key
            if not outcome.cached and outcome.status in _CACHEABLE_STATUSES:
                config.cache.put(key, outcome.to_record())
        outcomes[task.index] = outcome
        stats.record(outcome)
        if config.tracing:
            self._stitch_trace(outcome)
        if config.metrics is not None:
            self._observe(outcome)
        if config.jsonl is not None:
            config.jsonl.write_file(outcome.to_record())
        progress.update(stats)

    # -- observability -------------------------------------------------------

    def _stitch_trace(self, outcome: FileOutcome) -> None:
        """Reparent the worker's serialized span trees under one per-file
        root span on the scheduler's tracer (children keep their worker
        pid/tid, so multi-process audits render one track per worker)."""
        tracer = self.config.tracer
        assert tracer is not None
        children = [span_from_dict(payload) for payload in outcome.trace or []]
        start = min((child.start for child in children), default=tracer.now())
        root = Span(
            "file:" + outcome.filename,
            start=start,
            duration=max(
                outcome.duration,
                max((child.end for child in children), default=start) - start,
            ),
            attrs={
                "filename": outcome.filename,
                "status": outcome.status,
                "cached": outcome.cached,
                "attempts": outcome.attempts,
            },
            pid=os.getpid(),
        )
        if outcome.safe is not None:
            root.attrs["safe"] = outcome.safe
        root.children = children
        tracer.add(root)

    def _observe(self, outcome: FileOutcome) -> None:
        metrics = self.config.metrics
        assert metrics is not None
        metrics.counter("repro_files_total", "audited files by outcome status").inc(
            status=outcome.status
        )
        verdict = verdict_of(vars(outcome))
        if verdict in ("safe", "vulnerable"):
            metrics.counter("repro_verdicts_total", "verdicts by kind").inc(verdict=verdict)
            if outcome.num_ai_assertions:
                metrics.counter(
                    "repro_assertions_total", "AI assertions checked by the BMC stage"
                ).inc(outcome.num_ai_assertions)
        metrics.counter("repro_cache_lookups_total", "result-cache probes").inc(
            result="hit" if outcome.cached else "miss"
        )
        replay = getattr(outcome, "replay", None) or {}
        replay_counter = metrics.counter(
            "repro_replay_total", "witness-replay traces by verdict"
        )
        for verdict in ("confirmed", "refuted", "unsupported"):
            if replay.get(verdict):
                replay_counter.inc(replay[verdict], verdict=verdict)
        for patched in ("refuted", "confirmed", "unsupported"):
            if replay.get(f"patched_{patched}"):
                metrics.counter(
                    "repro_replay_patched_total",
                    "patched witness re-runs by verdict",
                ).inc(replay[f"patched_{patched}"], verdict=patched)
        metrics.histogram(
            "repro_file_seconds", "end-to-end wall seconds per file"
        ).observe(outcome.duration)
        stage_counter = metrics.counter(
            "repro_stage_seconds_total", "worker CPU seconds by pipeline stage"
        )
        stage_histogram = metrics.histogram(
            "repro_stage_seconds", "per-file wall seconds by pipeline stage"
        )
        for stage, seconds in run_timings(vars(outcome)).items():
            stage_counter.inc(seconds, stage=stage)
            stage_histogram.observe(seconds, stage=stage)
        if outcome.cached:
            return
        solver_counter = metrics.counter(
            "repro_solver_events_total", "aggregated SAT-solver counters"
        )
        backend = str(outcome.solver.get("backend", "unknown")) if outcome.solver else "unknown"
        for name, value in (outcome.solver or {}).items():
            # A per-file maximum is not an event count: it has no _total.
            if name == "backend" or name in MAX_STATS or not isinstance(value, int):
                continue
            solver_counter.inc(value, kind=name, backend=backend)
        includes = getattr(outcome, "includes", None) or {}
        if includes.get("edges"):
            metrics.counter(
                "repro_include_edges_total", "include edges seen while splicing"
            ).inc(includes["edges"])
        if includes.get("unresolved"):
            metrics.counter(
                "repro_unresolved_includes",
                "dynamic include paths left unresolved (coverage gap)",
            ).inc(includes["unresolved"])
        parse_hits = includes.get("parse_cache_hits", 0)
        parse_misses = includes.get("parse_cache_misses", 0)
        if parse_hits or parse_misses:
            parse_counter = metrics.counter(
                "repro_parse_cache_total", "parse-cache probes by result"
            )
            if parse_hits:
                parse_counter.inc(parse_hits, result="hit")
            if parse_misses:
                parse_counter.inc(parse_misses, result="miss")

    # -- graceful drain -----------------------------------------------------

    def _skip_pending(self, pending, stats, progress, outcomes, keys) -> None:
        """Finalize every not-yet-started task as ``skipped`` (drain path)."""
        while pending:
            task, attempt = pending.popleft()
            outcome = FileOutcome(
                filename=task.filename,
                status="skipped",
                error="not started: engine drained before dispatch",
            )
            outcome.attempts = attempt - 1  # it never ran
            self._finalize(outcome, task, stats, progress, outcomes, keys)

    # -- inline execution ---------------------------------------------------

    def _run_inline(self, session, pending, stats, progress, outcomes, keys) -> None:
        wholes: dict[int, dict] = {}
        while pending:
            if self.config.draining:
                self._skip_pending(pending, stats, progress, outcomes, keys)
                return
            task, attempt = pending.popleft()
            outcome = safe_execute(task, session, wholes)
            outcome.attempts = attempt
            self._finalize(outcome, task, stats, progress, outcomes, keys)

    # -- pool execution -----------------------------------------------------

    def _mp_context(self):
        methods = multiprocessing.get_all_start_methods()
        method = self.config.start_method
        if method is None:
            method = "fork" if "fork" in methods else None
        elif method not in methods:
            raise ValueError(
                f"start method {method!r} unavailable on this platform "
                f"(have: {', '.join(methods)})"
            )
        return multiprocessing.get_context(method)

    def _session(
        self,
        policy_fp: str | None,
        projects: tuple = (),
        inline: bool = False,
    ) -> WorkerSession:
        """The run's session.  Inline, entry tasks probe the configured
        cache itself (a hot layer included); a worker probes the same
        directory through a plain disk cache."""
        cache = None if self.config.want_reports else self.config.cache
        if cache is not None and not inline:
            cache = ResultCache(cache.root)
        return WorkerSession(
            websari=self.websari,
            want_report=self.config.want_reports,
            collect_trace=self.config.tracing,
            projects=projects,
            policy_fp=policy_fp,
            cache=cache,
        )

    def _spawn_worker(self, ctx, session: WorkerSession) -> _Worker:
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        # The session rides on the process arguments: a forked worker
        # inherits it as memory, a spawned one unpickles a copy whose
        # caches start empty.  Either way the worker runs the same loop
        # and reaches the same verdicts.
        process = ctx.Process(
            target=_worker_loop, args=(child_conn, session), daemon=True
        )
        process.start()
        child_conn.close()
        return _Worker(process, parent_conn)

    def _pool_key(self, ctx) -> tuple | None:
        """What a kept pool must match to serve this run; None when the
        verifier cannot be pickled, so no later run can reset to it."""
        try:
            websari = pickle.dumps(self.websari)
        except Exception:  # noqa: BLE001 - any pickling failure means "not keyable"
            return None
        config = self.config
        return (websari, config.jobs, ctx.get_start_method(), config.want_reports, config.tracing)

    def _take_pool(self, key: tuple | None, session: WorkerSession) -> list[_Worker]:
        """The kept pool's live workers, reset to ``session``, when its key
        is ``key``; otherwise stop the kept pool (if any) and return []."""
        pool = _swap_kept(None)
        if pool is None:
            return []
        if key is None or pool.key != key:
            _stop(pool.workers)
            return []
        workers = []
        for worker in pool.workers:
            if worker.process.is_alive() and _send(worker, session):
                workers.append(worker)
            else:
                worker.discard()
        return workers

    def _run_pool(self, session, pending, stats, progress, outcomes, keys) -> None:
        config = self.config
        ctx = self._mp_context()
        if self.websari.replay and ctx.get_start_method() == "fork":
            # Forked workers inherit the parent's modules: load the lazily
            # imported replay stage once here, not in every worker of every
            # run on its first vulnerable file.  Spawn workers inherit
            # nothing and import it on first use.
            import repro.replay  # noqa: F401
        key = self._pool_key(ctx)
        workers = self._take_pool(key, session)
        slots = {id(project): slot for slot, project in enumerate(session.projects)}

        def payload(task: Task) -> Task:
            """An entry task goes down a pipe naming its project's slot."""
            if isinstance(task, EntryTask):
                return replace(task, project=slots[id(task.project)])
            return task

        def discard(worker: _Worker) -> None:
            worker.discard()
            workers.remove(worker)

        def rearm(worker: _Worker) -> None:
            """The head of the queue changed: restart its task clock."""
            worker.started = time.monotonic()
            worker.deadline = worker.started + config.timeout if config.timeout else None

        def requeue_tail(worker: _Worker) -> None:
            """Return queued-but-unstarted tasks to the front of pending,
            preserving order and attempt counts (they never ran)."""
            while worker.inflight:
                pending.appendleft(worker.inflight.pop())

        def finish(worker: _Worker, outcome: FileOutcome) -> None:
            task, attempt = worker.inflight.popleft()
            outcome.attempts = attempt
            if not outcome.duration:
                outcome.duration = time.monotonic() - worker.started
            if worker.inflight:
                rearm(worker)
            self._finalize(outcome, task, stats, progress, outcomes, keys)

        def crashed(worker: _Worker) -> None:
            """Pipe broke with no payload: the worker died mid-task.

            Only the head task was executing — it gets the retry/crash
            accounting; anything buffered behind it is requeued untouched.
            """
            task, attempt = worker.inflight.popleft()
            requeue_tail(worker)
            worker.process.join()
            code = worker.process.exitcode
            if attempt <= config.crash_retries:
                pending.appendleft((task, attempt + 1))
            else:
                worker.inflight.appendleft((task, attempt))
                finish(
                    worker,
                    FileOutcome(
                        filename=task.filename,
                        status="crash",
                        error=f"worker exited with code {code} before reporting a result",
                    ),
                )
            discard(worker)

        def drain(worker: _Worker) -> None:
            try:
                outcome: FileOutcome = worker.conn.recv()
            except (EOFError, OSError):
                crashed(worker)
            else:
                finish(worker, outcome)

        try:
            while pending or any(w.inflight for w in workers):
                if config.draining:
                    # Graceful shutdown: whatever is buffered in a worker
                    # pipe still runs to completion, but nothing new is
                    # dispatched — undispatched tasks become ``skipped``.
                    self._skip_pending(pending, stats, progress, outcomes, keys)
                    if not any(w.inflight for w in workers):
                        break
                else:
                    # Keep the pool at strength: one worker per pending or
                    # busy slot, capped at ``jobs`` (covers both initial
                    # spawn and replacement after crash/timeout discards).
                    busy_count = sum(1 for w in workers if w.inflight)
                    desired = min(config.jobs, len(pending) + busy_count)
                    while len(workers) < desired:
                        workers.append(self._spawn_worker(ctx, session))
                        stats.totals.workers_started += 1
                        if config.metrics is not None:
                            config.metrics.counter(
                                "repro_worker_starts_total", "worker processes started"
                            ).inc()

                    # Deal tasks breadth-first: fill every worker's first
                    # slot before buffering a second task behind anyone, so
                    # the pipeline never starves an idle worker.
                    for depth in range(1, _QUEUE_DEPTH + 1):
                        for worker in list(workers):
                            if len(worker.inflight) >= depth or not pending:
                                continue
                            if not worker.process.is_alive():
                                if worker.inflight:
                                    continue  # let the drain path handle it
                                discard(worker)
                                continue
                            task, attempt = pending.popleft()
                            was_idle = not worker.inflight
                            worker.inflight.append((task, attempt))
                            if was_idle:
                                rearm(worker)
                            try:
                                worker.conn.send(payload(task))
                            except (BrokenPipeError, OSError):
                                crashed(worker)

                busy = [w for w in workers if w.inflight]
                if not busy:
                    continue
                ready = connection.wait([w.conn for w in busy], timeout=_POLL_INTERVAL)
                for worker in busy:
                    if worker not in workers:  # replaced earlier this round
                        continue
                    if worker.conn in ready:
                        drain(worker)
                        continue
                    if worker.deadline is not None and time.monotonic() > worker.deadline:
                        head_task = worker.inflight[0][0]
                        finish(
                            worker,
                            FileOutcome(
                                filename=head_task.filename,
                                status="timeout",
                                error=f"exceeded {config.timeout:g}s wall-clock limit",
                            ),
                        )
                        requeue_tail(worker)
                        discard(worker)
                        continue
                    if not worker.process.is_alive():
                        # Died between wait() and now; a payload may still be
                        # buffered (poll() is also True at bare EOF, in which
                        # case drain() routes to crash handling).
                        if worker.conn.poll():
                            drain(worker)
                        else:
                            crashed(worker)
        finally:
            # Idle live workers are kept for the next run; a worker with a
            # task still in flight (an interrupted run) or a dead one is not.
            for worker in [w for w in workers if w.inflight or not w.process.is_alive()]:
                discard(worker)
            _keep(key, workers)
