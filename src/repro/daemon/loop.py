"""The re-audit loop: poll → dirty set → engine → per-cycle JSONL.

One :class:`WatchLoop` owns a :class:`~repro.daemon.watcher.TreeWatcher`
and a long-lived verifier + cache pair.  Each cycle:

1. :meth:`TreeWatcher.poll` classifies changes; nothing dirty → the
   cycle is free (no engine run, no JSONL file).
2. Dirty files go through the ordinary
   :class:`~repro.engine.AuditEngine` — same per-file timeouts, crash
   isolation, and content-addressed caching as ``repro audit``.  With a
   :class:`~repro.engine.HotResultCache` the unchanged 99% of a tree
   never even touches the disk cache after the first cycle.
3. The cycle's JSONL stream merges the fresh outcomes with the last
   known record of every unchanged file (deleted files drop out), so
   ``repro report --diff cycle-A.jsonl cycle-B.jsonl`` between *any* two
   cycles shows exactly the verdict movement in between.

Include-aware invalidation: with an in-memory
:class:`~repro.php.parsecache.IncludeGraph` attached, each cycle adds
every transitive *includer* of a dirty (or deleted) file to the audit
set — editing a shared library re-verifies exactly the entries that
splice it instead of silently leaving them stale.  Files are audited as
project entries (:class:`~repro.engine.worker.EntryTask`): the process
that verifies an entry scans its include closure first, so cache keys
scope to what each entry can actually read, and the scan's per-file
facts come back on the outcome to update the graph.  The graph is never
written to disk: a new process's first cycle audits every file, which
rebuilds it.

Graceful shutdown: ``stop_event`` doubles as the engine's
``drain_event`` — a SIGINT/SIGTERM mid-cycle lets in-flight files
finish, marks undispatched ones ``skipped``, and the cycle trailer
carries ``interrupted: true``.  Caches need no explicit flush (both the
result cache and the SAT cache write through on every put).
"""

from __future__ import annotations

import os
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.daemon.watcher import TreeWatcher
from repro.engine import AuditEngine, EngineConfig, EngineResult, EntryTask, JsonlSink
from repro.engine.cache import ResultCache
from repro.obs import RunTotals
from repro.php.errors import IncludeError
from repro.php.includes import SourceProject, TreeProject, scan_includes
from repro.php.parsecache import IncludeGraph

__all__ = ["CycleResult", "WatchLoop"]


@dataclass
class CycleResult:
    """What one non-idle cycle did."""

    number: int
    dirty: list[str]
    deleted: list[str]
    result: EngineResult
    #: The cycle's JSONL stream (None when no out_dir is configured).
    stream_path: Path | None
    interrupted: bool
    #: Files audited only because the include graph named them as
    #: transitive includers of something dirty (subset of ``dirty``).
    invalidated: list[str] = field(default_factory=list)


class WatchLoop:
    """Re-audit a tree forever (or cycle by cycle, under a test driver)."""

    def __init__(
        self,
        root: str | Path,
        websari,
        *,
        cache: ResultCache | None = None,
        jobs: int = 1,
        timeout: float | None = None,
        start_method: str | None = None,
        interval: float = 2.0,
        debounce: float = 0.5,
        out_dir: str | Path | None = None,
        metrics: RunTotals | None = None,
        stop_event: threading.Event | None = None,
        clock=time.time,
        pattern: str = "*.php",
        quiet: bool = True,
        stream=None,
        include_graph: IncludeGraph | None = None,
    ) -> None:
        self.watcher = TreeWatcher(root, pattern=pattern, debounce=debounce, clock=clock)
        self.websari = websari
        self.cache = cache
        #: In-memory includer→included edges; None disables reverse-graph
        #: invalidation (dirty set stays per-file).
        self.include_graph = include_graph
        self.jobs = max(1, jobs)
        self.timeout = timeout
        self.start_method = start_method
        self.interval = interval
        self.out_dir = Path(out_dir) if out_dir is not None else None
        #: Caller-owned run totals every cycle's outcomes fold into (the
        #: engine's ``EngineConfig.metrics``); None folds nothing extra.
        self.metrics = metrics
        self.stop_event = stop_event if stop_event is not None else threading.Event()
        self.quiet = quiet
        self.stream = stream if stream is not None else sys.stderr
        #: Completed (non-idle) cycles; cycle JSONL files are numbered by it.
        self.cycles = 0
        #: Polls that found nothing to audit / that started a cycle (two
        #: counters, so a reader on another thread sees each only grow).
        self.idle_polls = 0
        self.dirty_polls = 0
        self.last_dirty = 0
        self.last_cycle_seconds = 0.0
        #: Includers pulled in by the graph in the last cycle / in total.
        self.last_invalidated = 0
        self.includers_invalidated = 0
        #: Last known JSON record per live path (feeds every cycle stream).
        self._records: dict[str, dict] = {}

    @property
    def polls(self) -> int:
        """Total polls, idle ones included."""
        return self.idle_polls + self.dirty_polls

    # -- path mapping -------------------------------------------------------

    def _rel(self, path: str) -> str:
        """Watcher (absolute-ish) path → normalized tree-relative path —
        the namespace the include graph and task entries live in."""
        return SourceProject.normalize(os.path.relpath(path, str(self.watcher.root)))

    def _abs(self, rel: str) -> str:
        """Inverse of :meth:`_rel` (matches the watcher's path spelling)."""
        return str(Path(self.watcher.root) / rel)

    # -- one cycle ----------------------------------------------------------

    def run_cycle(self) -> CycleResult | None:
        """Poll once; audit and emit a stream if anything changed.

        Returns None for an idle poll.  Drives everything through
        injectable clocks, so tests step cycles without real sleeps.
        """
        delta = self.watcher.poll()
        if not delta:
            self.idle_polls += 1
            return None
        self.dirty_polls += 1

        for path in delta.gone:
            self._records.pop(path, None)

        # Reverse-graph invalidation: every tracked file that transitively
        # includes something dirty (or deleted) must re-audit too — its
        # spliced program changed even though its own bytes did not.
        tracked = set(self.watcher.paths())
        invalidated: list[str] = []
        if self.include_graph is not None:
            changed_rel = {self._rel(p) for p in delta.dirty + delta.gone}
            for rel in sorted(self.include_graph.includers_of(changed_rel)):
                includer = self._abs(rel)
                if includer in tracked and includer not in delta.dirty:
                    invalidated.append(includer)
            for path in delta.gone:
                self.include_graph.remove_file(self._rel(path))
        dirty = sorted(set(delta.dirty) | set(invalidated))

        project = TreeProject({self._rel(path): path for path in sorted(tracked)})
        tasks = [
            EntryTask(index, path, self._rel(path), project)
            for index, path in enumerate(dirty)
        ]

        number = self.cycles + 1
        # The engine folds each file into the long-lived totals as it
        # finishes, so a scrape mid-cycle sees the cycle's progress.
        config = EngineConfig(
            jobs=self.jobs,
            timeout=self.timeout,
            start_method=self.start_method,
            cache=self.cache,
            metrics=self.metrics,
            drain_event=self.stop_event,
        )
        result = AuditEngine(websari=self.websari, config=config).run(tasks)
        skipped = [o for o in result.outcomes if o.status == "skipped"]
        interrupted = bool(skipped) or self.stop_event.is_set()
        for outcome in result.outcomes:
            self._update_graph(project, outcome)
            if outcome.status == "skipped":
                continue  # keep the last known record, if any
            if outcome.status == "unreadable":
                # Raced away between poll and scan; it will be reported
                # deleted next poll.  Drop any stale record now.
                self._records.pop(outcome.filename, None)
                self._say(f"watch: {outcome.filename}: {outcome.error} (skipping this cycle)")
                continue
            self._records[outcome.filename] = outcome.to_record()

        stream_path = self._write_stream(number, result, interrupted, invalidated)
        self.last_dirty = len(dirty)
        self.last_cycle_seconds = result.stats.wall_seconds
        self.last_invalidated = len(invalidated)
        self.includers_invalidated += len(invalidated)
        # Counted once its stream exists: a reader that sees the count
        # can open the stream.
        self.cycles = number
        stats = result.stats
        self._say(
            f"watch: cycle {number}: {len(dirty)} dirty"
            + (f" ({len(invalidated)} via includes)" if invalidated else "")
            + f", {len(delta.gone)} gone; {stats.safe} safe, "
            f"{stats.vulnerable} vulnerable, {stats.failed} failed "
            f"({stats.cache_hits} cached)"
            + (" [interrupted]" if interrupted else "")
        )
        return CycleResult(
            number=number,
            dirty=dirty,
            deleted=delta.gone,
            result=result,
            stream_path=stream_path,
            interrupted=interrupted,
            invalidated=invalidated,
        )

    def _update_graph(self, project: TreeProject, outcome) -> None:
        """Fold the entry scan carried back on ``outcome`` into the include
        graph.  A worker killed mid-task (timeout, crash) returns no scan,
        so its entry is scanned here: the graph must still learn what
        that entry includes."""
        if self.include_graph is None:
            return
        scan = outcome.scan
        if scan is None and outcome.status in ("timeout", "crash"):
            try:
                scan = scan_includes(
                    project, self._rel(outcome.filename),
                    parse_hook=self.websari.parse_cache.parse,
                )
            except (OSError, IncludeError):
                return
        if scan is not None:
            for path, targets in scan.includes_by_file.items():
                self.include_graph.update_file(path, targets)

    def _write_stream(
        self, number: int, result: EngineResult, interrupted: bool, invalidated: list[str]
    ) -> Path | None:
        """One merged JSONL per cycle: fresh records for dirty files plus
        carried-over records for everything unchanged, then the engine
        trailer — the same shape ``repro audit --jsonl`` writes, so
        ``repro report`` (and ``--diff``) consume cycles directly.  The
        trailer counts this cycle's files only; carried-over records
        keep the telemetry of the cycle that produced them."""
        if self.out_dir is None:
            return None
        path = self.out_dir / f"cycle-{number:06d}.jsonl"
        with JsonlSink(path) as sink:
            for filename in sorted(self._records):
                sink.write_file(self._records[filename])
            trailer = result.stats.as_dict()
            trailer["cycle"] = number
            trailer["watched_files"] = self.watcher.tracked
            if invalidated:
                trailer["includers_invalidated"] = len(invalidated)
            if interrupted:
                trailer["interrupted"] = True
            sink.write_stats(trailer)
        return path

    # -- the daemon ---------------------------------------------------------

    def run_forever(self) -> int:
        """Cycle until ``stop_event`` is set; always exits 0 on a drain."""
        while not self.stop_event.is_set():
            self.run_cycle()
            if self.stop_event.wait(self.interval):
                break
        return 0

    def health(self) -> dict:
        """JSON payload for the metrics server's ``/healthz`` endpoint;
        its counters are also the ``repro_watch_*`` metric families."""
        idle, dirty = self.idle_polls, self.dirty_polls
        return {
            "status": "draining" if self.stop_event.is_set() else "ok",
            "cycles": self.cycles,
            "polls": idle + dirty,
            "idle_polls": idle,
            "tracked_files": self.watcher.tracked,
            "last_dirty": self.last_dirty,
            "last_cycle_seconds": round(self.last_cycle_seconds, 6),
            "includers_invalidated": self.includers_invalidated,
            "interval": self.interval,
        }

    def _say(self, message: str) -> None:
        if not self.quiet:
            print(message, file=self.stream)
