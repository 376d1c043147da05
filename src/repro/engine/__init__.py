"""Parallel batch-audit engine with content-addressed result caching.

The paper's evaluation sweeps 230 SourceForge projects (~1.1M
statements); this subsystem makes that kind of corpus sweep a
first-class engineered operation instead of a for-loop:

* :class:`AuditEngine` fans per-file verification tasks over a
  ``multiprocessing`` worker pool (one process per file, bounded live
  set) with per-file wall-clock timeouts, crash isolation with
  retry-once, and structured error records instead of audit-wide aborts.
* :class:`ResultCache` stores verdicts content-addressed by SHA-256 of
  source + policy fingerprint + engine version, so re-auditing an
  unchanged corpus is pure cache lookups.
* :class:`EngineStats` folds outcomes into run totals — per-stage
  timings, cache hit/miss counters, verdict tallies — by the same rule
  ``repro report`` applies to the records;
  :class:`JsonlSink` streams per-file records for machine consumption.

Entry points: the ``repro audit`` CLI subcommand, or::

    from repro.engine import AuditEngine, EngineConfig
    from repro.engine.worker import entry_task
    from repro.php import SourceProject, scan_includes

    project = SourceProject({"a.php": "<?php ..."})
    scan = scan_includes(project, "a.php")
    engine = AuditEngine(config=EngineConfig(jobs=4, timeout=30.0))
    result = engine.run([entry_task(0, "a.php", project, scan, {})])
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
from repro.engine.worker import AuditTask, FileOutcome, WorkerSession, execute_task

__all__ = [
    "ENGINE_VERSION",
    "AuditEngine",
    "AuditTask",
    "EngineConfig",
    "EngineResult",
    "EngineStats",
    "FileOutcome",
    "HotResultCache",
    "JsonlSink",
    "ProgressPrinter",
    "ResultCache",
    "WorkerSession",
    "cache_key",
    "default_cache_dir",
    "execute_task",
    "policy_fingerprint",
]
