"""Pipeline-wide observability: span tracing, metrics, trace export,
audit-report tooling.

The verifier's interesting story at corpus scale is *where time and
verdicts come from* — per-phase cost of parse → filter → AI → BMC → SAT
and per-assertion counterexample enumeration.  This package makes that
inspectable with zero dependencies and (by design) zero cost when
disabled:

* :mod:`repro.obs.tracer` — hierarchical span tracer with a
  context-manager API, monotonic clocks, thread/process-safe ids, and a
  free no-op mode (:data:`NULL_TRACER` / :data:`NULL_SPAN`).
* :mod:`repro.obs.metrics` — the Prometheus text rendering of run
  totals, behind ``repro audit --metrics`` and the watch daemon's
  ``/metrics``.
* :mod:`repro.obs.export` — Chrome trace-event JSON export (loadable in
  Perfetto or ``chrome://tracing``).
* :mod:`repro.obs.report` — consumers for ``repro audit`` JSONL streams:
  the one fold of file records into run totals, run summaries (text
  and JSON) and new/fixed/regressed diffs.
* :mod:`repro.obs.ledger` — bounded top-K ledger of the hardest SAT
  queries, carried in each file record's ``slow_queries``.
* :mod:`repro.obs.html` — self-contained HTML audit dashboard
  (``repro report --html``).

See ``docs/OBSERVABILITY.md`` for the span model and CLI usage.
"""

from repro.obs.export import chrome_trace_events, write_chrome_trace
from repro.obs.html import render_dashboard
from repro.obs.ledger import SlowQueryLedger
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    DEFAULT_QUANTILES,
    estimate_quantile,
    render_prometheus,
)
from repro.obs.report import (
    AuditDiff,
    AuditRun,
    ReportError,
    RunTotals,
    diff_runs,
    load_audit,
    render_diff,
    render_report,
    replay_disagreements,
    summarize_run,
)
from repro.obs.tracer import (
    NULL_SPAN,
    NULL_TRACER,
    Span,
    Tracer,
    get_tracer,
    set_tracer,
    span_from_dict,
    stage,
)

__all__ = [
    "AuditDiff",
    "AuditRun",
    "DEFAULT_BUCKETS",
    "DEFAULT_QUANTILES",
    "NULL_SPAN",
    "NULL_TRACER",
    "ReportError",
    "RunTotals",
    "SlowQueryLedger",
    "Span",
    "Tracer",
    "chrome_trace_events",
    "diff_runs",
    "estimate_quantile",
    "get_tracer",
    "load_audit",
    "render_dashboard",
    "render_diff",
    "render_prometheus",
    "render_report",
    "replay_disagreements",
    "set_tracer",
    "span_from_dict",
    "stage",
    "summarize_run",
    "write_chrome_trace",
]
