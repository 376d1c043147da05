"""Parallel batch-audit engine with content-addressed result caching.

The paper's evaluation sweeps 230 SourceForge projects (~1.1M
statements); this subsystem makes that kind of corpus sweep a
first-class engineered operation instead of a for-loop:

* :class:`AuditEngine` fans per-file verification tasks over a
  ``multiprocessing`` worker pool (one process per file, bounded live
  set) with per-file wall-clock timeouts, crash isolation with
  retry-once, and structured error records instead of audit-wide aborts.
  An :class:`EntryTask` names a project entry; the process that runs it
  scans its include closure, keys and probes the cache, and verifies.
* :class:`ResultCache` stores verdicts content-addressed by SHA-256 of
  source + policy fingerprint + engine version, so re-auditing an
  unchanged corpus is pure cache lookups.
* :class:`EngineStats` folds outcomes into run totals — per-stage
  timings, cache hit/miss counters, verdict tallies — by the same rule
  ``repro report`` applies to the records;
  :class:`JsonlSink` streams per-file records for machine consumption.

Entry points: the ``repro audit`` CLI subcommand, or::

    from repro.engine import AuditEngine, EngineConfig, EntryTask
    from repro.php import SourceProject

    project = SourceProject({"a.php": "<?php ..."})
    engine = AuditEngine(config=EngineConfig(jobs=4, timeout=30.0))
    result = engine.run([EntryTask(0, "a.php", "a.php", project)])
    print(result.stats.summary_lines())
"""

from repro.engine.cache import (
    ENGINE_VERSION,
    HotResultCache,
    ResultCache,
    cache_key,
    default_cache_dir,
    policy_fingerprint,
)
from repro.engine.jsonl import JsonlSink
from repro.engine.scheduler import AuditEngine, EngineConfig, EngineResult
from repro.engine.stats import EngineStats, ProgressPrinter
from repro.engine.worker import (
    AuditTask,
    EntryTask,
    FileOutcome,
    WorkerSession,
    execute_entry,
    execute_task,
)

__all__ = [
    "ENGINE_VERSION",
    "AuditEngine",
    "AuditTask",
    "EngineConfig",
    "EngineResult",
    "EngineStats",
    "EntryTask",
    "FileOutcome",
    "HotResultCache",
    "JsonlSink",
    "ProgressPrinter",
    "ResultCache",
    "WorkerSession",
    "cache_key",
    "default_cache_dir",
    "execute_entry",
    "execute_task",
    "policy_fingerprint",
]
