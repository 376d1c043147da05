"""Incremental re-audit daemon (``repro watch``).

The paper's deployment story re-runs WebSSARI per release; this
subsystem closes the loop for live trees: a long-running watcher polls a
directory for changed ``.php`` files and pushes only the dirty set
through the batch-audit engine, so an idle cycle over N files costs N
stat calls and a changed file costs one verification.

* :class:`~repro.daemon.watcher.TreeWatcher` — mtime-polling snapshot
  differ (no inotify dependency): created / modified / deleted / moved
  classification, debounce for in-progress writes, symlink-loop and
  permission-loss tolerance.
* :class:`~repro.daemon.loop.WatchLoop` — the re-audit loop: dirty set →
  ``repro.engine`` scheduler with a process-lifetime-hot
  :class:`~repro.engine.cache.HotResultCache` and the persistent SAT
  query cache, one merged JSONL stream per cycle (``repro report
  --diff`` works between any two cycles), graceful signal drain.
* :class:`~repro.daemon.metrics_server.MetricsServer` — stdlib HTTP
  endpoint on a daemon thread serving the live Prometheus text (the
  loop's run totals and counters, rendered by
  :func:`~repro.obs.metrics.render_prometheus`) plus a ``/healthz``
  JSON probe.

See docs/DAEMON.md for the full operational story.
"""

from repro.daemon.loop import CycleResult, WatchLoop
from repro.daemon.metrics_server import MetricsServer
from repro.daemon.watcher import FileStamp, TreeDelta, TreeWatcher, diff_snapshots

__all__ = [
    "CycleResult",
    "FileStamp",
    "MetricsServer",
    "TreeDelta",
    "TreeWatcher",
    "WatchLoop",
    "diff_snapshots",
]
