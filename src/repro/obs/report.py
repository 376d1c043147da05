"""Audit JSONL consumers: run totals, run summaries and run diffs.

``repro audit --jsonl`` streams one ``{"type": "file", ...}`` record per
file plus a final ``{"type": "stats", ...}`` trailer (see
``repro.engine.jsonl``).  This module turns records into:

* :class:`RunTotals` — the one fold of file records into run totals
  (verdict tally, cache hits, stage seconds and latency buckets, solver,
  include and replay counters, slow queries).  The engine's trailer and
  closing lines, ``repro report``, the HTML dashboard and the Prometheus
  text (:mod:`repro.obs.metrics`) all read it;
* :func:`summarize_run` — one stream's summary as a machine-readable
  dict (``repro report --json``), which :func:`render_report` prints;
* :func:`diff_runs` / :func:`render_diff` — new / fixed / regressed
  classification between two runs of the same corpus (the CI story:
  fail the build when a change introduces vulnerabilities).

All are exposed through the ``repro report`` subcommand.
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.ledger import SlowQueryLedger
from repro.obs.metrics import DEFAULT_BUCKETS, bucket_quantiles
from repro.sat.solver import accumulate_stats

__all__ = [
    "AuditRun",
    "AuditDiff",
    "ReportError",
    "RunTotals",
    "STAGES",
    "load_audit",
    "render_report",
    "render_totals",
    "summarize_run",
    "stage_order",
    "stage_quantiles",
    "replay_disagreements",
    "run_timings",
    "verdict_of",
    "diff_runs",
    "render_diff",
]

#: Pipeline stages in the order every run view lists them.
STAGES = ("scan", "parse", "filter", "ai", "sat", "replay")


def stage_order(stages: Iterable[str]) -> list[str]:
    """``stages`` in pipeline order; unknown stages follow, alphabetically."""
    return sorted(
        stages, key=lambda stage: (STAGES.index(stage) if stage in STAGES else len(STAGES), stage)
    )


def verdict_of(record: Mapping) -> str:
    """``safe`` or ``vulnerable`` for an analysed file, else its status
    (a file without a verdict counts as failed)."""
    status = str(record.get("status", "?"))
    if status != "ok":
        return status
    return "safe" if record.get("safe") is True else "vulnerable"


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def run_timings(record: Mapping) -> dict[str, float]:
    """The stage seconds ``record`` spent in its own run.

    A fresh record's stages all ran.  A cached record's verdict came from
    the result cache, but its include scan ran before the probe (the
    scan shapes the key), so only its ``scan`` stage counts.
    """
    timings = record.get("timings") or {}
    cached = bool(record.get("cached"))
    return {
        stage: float(seconds)
        for stage, seconds in timings.items()
        if _is_number(seconds) and not (cached and stage != "scan")
    }


def _add_numbers(totals: dict, section) -> None:
    if isinstance(section, dict):
        for name, value in section.items():
            if _is_number(value):
                totals[name] = totals.get(name, 0) + value


def _new_buckets() -> list[int]:
    return [0] * (len(DEFAULT_BUCKETS) + 1)


@dataclass
class RunTotals:
    """Run totals folded from file records by one rule.

    Every record counts toward the verdict tally, cache hits and replay
    totals: a cached verdict, and its replay, is still this run's
    answer.  Every record adds the stage seconds it spent in this run
    (:func:`run_timings`: a cached record only its scan).  Only a record
    whose stages ran in this run (``cached`` false) adds solver and
    include counters, its solver backend and slow queries.  Solver
    counters fold by their ``SolverStats`` rule (sum, or max for
    ``max_decision_level``).  Stage seconds and durations are rounded to
    the record's 6 places before they add up, so a fold over live
    outcomes and a fold over the JSONL records they became agree.
    """

    files: int = 0
    cache_hits: int = 0
    #: ``safe``, ``vulnerable``, and one count per failure status.
    verdicts: dict[str, int] = field(default_factory=dict)
    #: Summed ``num_ai_assertions``.
    assertions: int = 0
    #: Per-file ``duration`` counts over :data:`DEFAULT_BUCKETS` (plus an
    #: overflow bucket), and their sum.
    duration_buckets: list[int] = field(default_factory=_new_buckets)
    duration_seconds: float = 0.0
    stage_seconds: dict[str, float] = field(default_factory=dict)
    #: Per-stage counts over the same buckets.
    stage_buckets: dict[str, list[int]] = field(default_factory=dict)
    solver: dict[str, int] = field(default_factory=dict)
    #: The ``solver.backend`` of the records that add solver counters
    #: (``"mixed"`` if they name more than one).
    backend: str = ""
    includes: dict[str, int] = field(default_factory=dict)
    replay: dict[str, int] = field(default_factory=dict)
    slow_queries: SlowQueryLedger = field(default_factory=SlowQueryLedger)
    #: Worker processes the engine started: a run-level count that no
    #: file record carries, summed over stats trailers (0 for a run that
    #: reused a kept pool or ran inline).
    workers_started: int = 0
    #: Held while a record or trailer folds in, so a reader on another
    #: thread (the live ``/metrics`` render) sees whole records only.
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    @classmethod
    def of(cls, records: Iterable[Mapping]) -> "RunTotals":
        totals = cls()
        for record in records:
            totals.add(record)
        return totals

    def add(self, record: Mapping) -> None:
        """Fold one file record (or a ``FileOutcome``'s fields) in."""
        with self.lock:
            self.files += 1
            verdict = verdict_of(record)
            self.verdicts[verdict] = self.verdicts.get(verdict, 0) + 1
            if _is_number(record.get("num_ai_assertions")):
                self.assertions += int(record["num_ai_assertions"])
            if _is_number(record.get("duration")):
                duration = round(record["duration"], 6)
                self.duration_seconds += duration
                self.duration_buckets[bisect_left(DEFAULT_BUCKETS, duration)] += 1
            _add_numbers(self.replay, record.get("replay"))
            for stage, seconds in run_timings(record).items():
                seconds = round(seconds, 6)
                self.stage_seconds[stage] = self.stage_seconds.get(stage, 0.0) + seconds
                buckets = self.stage_buckets.setdefault(stage, _new_buckets())
                buckets[bisect_left(DEFAULT_BUCKETS, seconds)] += 1
            if record.get("cached"):
                self.cache_hits += 1
                return
            solver = record.get("solver")
            if isinstance(solver, dict) and solver:
                accumulate_stats(self.solver, solver)
                backend = str(solver.get("backend", "unknown"))
                self.backend = backend if self.backend in ("", backend) else "mixed"
            _add_numbers(self.includes, record.get("includes"))
            self.slow_queries.merge(record.get("slow_queries"))

    def add_trailer(self, trailer: Mapping) -> None:
        """Fold one stats trailer's run-level counter in."""
        if _is_number(trailer.get("workers_started")):
            with self.lock:
                self.workers_started += int(trailer["workers_started"])

    def failures(self) -> dict[str, int]:
        """Files without a verdict, by status."""
        return {
            status: count
            for status, count in sorted(self.verdicts.items())
            if status not in ("safe", "vulnerable")
        }

    def tally(self) -> dict[str, int]:
        return {
            "safe": self.verdicts.get("safe", 0),
            "vulnerable": self.verdicts.get("vulnerable", 0),
            "failed": sum(self.failures().values()),
            "cached": self.cache_hits,
        }

    def sections(self) -> dict:
        """The stage/solver/include/replay sections and the worker-start
        count, as the trailer and ``repro report --json`` carry them."""
        return {
            "workers_started": self.workers_started,
            "stage_seconds": {
                stage: round(seconds, 6) for stage, seconds in sorted(self.stage_seconds.items())
            },
            "solver": dict(sorted(self.solver.items())),
            "includes": dict(sorted(self.includes.items())),
            "replay": dict(sorted(self.replay.items())),
        }

    def quantiles(self) -> dict[str, dict]:
        """Per-stage bucket-interpolated latency quantiles, in stage order.

        The estimator is the one behind the ``/metrics`` ``_quantile``
        gauges, so a report and a scrape of the same run agree (both are
        estimates bounded by the bucket layout, not order statistics).
        """
        out: dict[str, dict] = {}
        for stage in stage_order(self.stage_buckets):
            buckets = self.stage_buckets[stage]
            out[stage] = {
                "count": sum(buckets),
                **{
                    f"p{int(q * 100)}": estimate
                    for q, estimate in bucket_quantiles(buckets).items()
                },
                "buckets": list(buckets),
            }
        return out


def render_totals(sections: Mapping) -> list[str]:
    """The stage/solver/include/replay/worker lines ``repro audit`` and
    ``repro report`` both print, from :meth:`RunTotals.sections`."""
    lines = []
    stage_seconds = sections.get("stage_seconds") or {}
    if stage_seconds:
        lines.append(
            "stage time: "
            + ", ".join(
                f"{stage} {stage_seconds[stage]:.2f}s" for stage in stage_order(stage_seconds)
            )
        )
    solver = sections.get("solver") or {}
    parts = [
        f"{int(solver[name])} {name.replace('_', ' ')}"
        for name in (
            "solve_calls", "decisions", "propagations", "conflicts", "learned_clauses",
            "restarts", "preprocessed_clauses", "cache_hits", "cache_misses",
        )
        if name in solver
    ]
    if parts:
        lines.append("solver: " + ", ".join(parts))
    reclaimed = int(solver.get("root_satisfied_deleted", 0))
    if reclaimed:
        lines.append(f"incremental: {reclaimed} dead clause(s) reclaimed")
    includes = sections.get("includes") or {}
    if includes:
        parts = [
            f"{int(includes.get('edges', 0))} edge(s)",
            f"{int(includes.get('included_files', 0))} spliced",
            f"{int(includes.get('unresolved', 0))} unresolved dynamic",
        ]
        hits = int(includes.get("parse_cache_hits", 0))
        misses = int(includes.get("parse_cache_misses", 0))
        if hits or misses:
            parts.append(f"parse cache {hits} hit(s) / {misses} miss(es)")
        lines.append("includes: " + ", ".join(parts))
    replay = sections.get("replay") or {}
    if replay:
        lines.append(
            f"replay: {int(replay.get('confirmed', 0))} confirmed, "
            f"{int(replay.get('refuted', 0))} refuted, "
            f"{int(replay.get('unsupported', 0))} unsupported"
            + (f", {int(replay['skipped'])} skipped" if replay.get("skipped") else "")
        )
        killed = int(replay.get("patched_refuted", 0))
        survived = int(replay.get("patched_confirmed", 0))
        if killed or survived:
            lines.append(f"patched replay: {killed} killed, {survived} survived")
    workers = int(sections.get("workers_started") or 0)
    if workers:
        lines.append(f"workers: {workers} started")
    return lines


class ReportError(Exception):
    """Raised for unreadable or malformed audit streams."""


@dataclass
class AuditRun:
    """One parsed audit JSONL stream."""

    path: str
    files: list[dict] = field(default_factory=list)
    stats: dict | None = None
    #: True when the stream carries no stats trailer (interrupted before
    #: PR 2's in-``finally`` trailer, or truncated externally).
    truncated: bool = False

    def by_filename(self) -> dict[str, dict]:
        """Last record per filename (re-audits supersede earlier lines)."""
        return {record["filename"]: record for record in self.files}

    def slow_queries(self, top: int | None = None) -> list[dict]:
        """Run-wide hardest SAT queries, most expensive first.

        Sources, in preference order (never mixed, so nothing double
        counts): the stats trailer's ledger and — for truncated streams
        with no trailer at all — the records' fold.  An empty-ledger
        trailer is a valid (empty) answer, not a fallback trigger.
        """
        trailer = (self.stats or {}).get("slow_queries")
        if isinstance(trailer, list):
            ledger = SlowQueryLedger(capacity=max(len(trailer), 1))
            ledger.merge(trailer)
        else:
            ledger = RunTotals.of(self.by_filename().values()).slow_queries
        records = ledger.records()
        return records[:top] if top is not None else records


def load_audit(path: str | Path) -> AuditRun:
    """Parse an audit JSONL file, tolerating a truncated final line."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ReportError(f"cannot read {path}: {exc}") from exc
    run = AuditRun(path=str(path))
    lines = text.splitlines()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:
            # A killed writer can leave one torn final line; anything
            # torn earlier means the file is not an audit stream.
            if lineno == len(lines):
                run.truncated = True
                continue
            raise ReportError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        if not isinstance(record, dict):
            raise ReportError(f"{path}:{lineno}: expected a JSON object")
        kind = record.get("type")
        if kind == "file":
            if "filename" not in record:
                raise ReportError(f"{path}:{lineno}: file record without filename")
            run.files.append(record)
        elif kind == "stats":
            run.stats = record
    if run.stats is None:
        run.truncated = True
    return run


def replay_disagreements(records: Iterable[Mapping]) -> list[dict]:
    """Vulnerable-but-refuted files: the static verdict said vulnerable,
    yet every synthesized witness request failed to reach a sink on a
    fully steered path.  These are the candidate false positives the
    replay subsystem exists to surface.  Pre-replay records (no
    ``replay`` section — older streams, replay off) contribute nothing.
    """
    out: list[dict] = []
    for record in records:
        replay = record.get("replay")
        if verdict_of(record) != "vulnerable" or not isinstance(replay, dict):
            continue
        refuted = replay.get("refuted")
        if isinstance(refuted, int) and not isinstance(refuted, bool) and refuted > 0:
            out.append(
                {
                    "filename": record.get("filename", "?"),
                    "refuted": refuted,
                    "confirmed": int(replay.get("confirmed") or 0),
                }
            )
    return out


def stage_quantiles(records: Iterable[Mapping]) -> dict[str, dict]:
    """Per-stage latency quantiles of ``records`` (see :meth:`RunTotals.quantiles`)."""
    return RunTotals.of(records).quantiles()


def _format_slow_query(query: dict) -> str:
    parts = [
        f"{float(query.get('seconds') or 0.0):9.3f}s",
        str(query.get("file") or "?"),
        f"assertion {query.get('assert_id', '?')}",
    ]
    counters = [
        f"{int(query[name])} {name}"
        for name in ("decisions", "conflicts")
        if _is_number(query.get(name))
    ]
    if counters:
        parts.append(", ".join(counters))
    fingerprint = query.get("fingerprint")
    if isinstance(fingerprint, str) and fingerprint:
        parts.append(f"fp {fingerprint[:12]}")
    return "  ".join(parts)


def summarize_run(run: AuditRun, top: int = 10) -> dict:
    """Machine-readable run summary (the ``repro report --json`` payload).

    Folds the last record per filename (the :func:`diff_runs` rule) with
    :class:`RunTotals`, so its ``stage_seconds``, ``solver``,
    ``includes`` and ``replay`` sections match the stats trailer of the
    run that wrote the stream.  :func:`render_report` prints this dict
    and the HTML dashboard draws from it.
    """
    records = list(run.by_filename().values())
    totals = RunTotals.of(records)
    stats = run.stats or {}
    totals.add_trailer(stats)
    durations = [r["duration"] for r in records if _is_number(r.get("duration"))]
    slowest = sorted(
        (r for r in records if _is_number(r.get("duration"))),
        key=lambda r: r["duration"],
        reverse=True,
    )[: max(0, top)]
    return {
        "path": run.path,
        "truncated": run.truncated,
        "interrupted": bool(stats.get("interrupted")),
        "files_audited": len(records),
        "files_total": stats.get("total", len(records)),
        "wall_seconds": stats.get("wall_seconds"),
        "verdicts": totals.tally(),
        "failures": totals.failures(),
        "duration": {
            "mean": sum(durations) / len(durations) if durations else None,
            "max": max(durations) if durations else None,
        },
        **totals.sections(),
        "stage_quantiles": totals.quantiles(),
        "replay_disagreements": replay_disagreements(records),
        "slow_queries": run.slow_queries(top=max(0, top)),
        "slowest_files": [
            {
                "filename": record["filename"],
                "duration": record["duration"],
                "verdict": verdict_of(record),
            }
            for record in slowest
        ],
    }


def render_report(run: AuditRun, top: int = 10) -> str:
    """Human-readable summary of one audit run: :func:`summarize_run`'s dict."""
    summary = summarize_run(run, top)
    lines = [f"audit report — {run.path}"]
    if summary["truncated"]:
        lines.append("warning: stream has no stats trailer (truncated or interrupted run)")
    if summary["interrupted"]:
        lines.append("warning: run was interrupted before completion")
    header = f"files: {summary['files_audited']}/{summary['files_total']} audited"
    if _is_number(summary["wall_seconds"]):
        header += f" in {summary['wall_seconds']:.2f}s"
    lines.append(header)
    tally = summary["verdicts"]
    lines.append(
        f"verdicts: {tally['safe']} safe, {tally['vulnerable']} vulnerable, "
        f"{tally['failed']} failed"
    )
    lines.append(
        f"cache: {tally['cached']} hit(s), "
        f"{summary['files_audited'] - tally['cached']} miss(es)"
    )
    duration = summary["duration"]
    if duration["mean"] is not None:
        lines.append(
            f"per-file duration: mean {duration['mean']:.3f}s, max {duration['max']:.3f}s"
        )
    if summary["failures"]:
        parts = ", ".join(f"{count} {status}" for status, count in summary["failures"].items())
        lines.append(f"failures: {parts}")
    lines.extend(render_totals(summary))
    if summary["stage_quantiles"]:
        lines.append("stage latency p50/p90/p99 (bucket-interpolated):")
        for stage, latency in summary["stage_quantiles"].items():
            lines.append(
                f"  {stage:<7} {latency['p50']:.3f}s / {latency['p90']:.3f}s / "
                f"{latency['p99']:.3f}s  (n={latency['count']})"
            )
    disagreements = summary["replay_disagreements"]
    if disagreements:
        lines.append(f"replay disagreements (vulnerable but refuted): {len(disagreements)}")
        for item in disagreements:
            lines.append(
                f"  {item['filename']}  ({item['refuted']} refuted, "
                f"{item['confirmed']} confirmed)"
            )
    if summary["slow_queries"]:
        lines.append(f"slow queries (top {len(summary['slow_queries'])}):")
        for query in summary["slow_queries"]:
            lines.append("  " + _format_slow_query(query))
    if summary["slowest_files"]:
        lines.append(f"slowest {len(summary['slowest_files'])} file(s):")
        for item in summary["slowest_files"]:
            lines.append(f"  {item['duration']:9.3f}s  {item['filename']}  [{item['verdict']}]")
    return "\n".join(lines)


@dataclass
class AuditDiff:
    """File-level classification between two runs of the same corpus."""

    #: Vulnerable in the new run, absent from the old one.
    new_vulnerable: list[str] = field(default_factory=list)
    #: Vulnerable before, verified safe now.
    fixed: list[str] = field(default_factory=list)
    #: Present in both, not vulnerable before, vulnerable now.
    regressed: list[str] = field(default_factory=list)
    #: Analyzable before (status ok), failed now — a tooling regression.
    broken: list[str] = field(default_factory=list)
    #: Failed before, analyzable now.
    recovered: list[str] = field(default_factory=list)
    #: Present only in the old run.
    removed: list[str] = field(default_factory=list)
    #: Present only in the new run and not vulnerable.
    added: list[str] = field(default_factory=list)
    still_vulnerable: int = 0

    @property
    def has_regressions(self) -> bool:
        return bool(self.new_vulnerable or self.regressed)


def diff_runs(old: AuditRun, new: AuditRun) -> AuditDiff:
    """Classify per-file verdict movement from ``old`` to ``new``."""
    old_by_name = old.by_filename()
    new_by_name = new.by_filename()
    diff = AuditDiff()
    for name in sorted(set(old_by_name) | set(new_by_name)):
        before = old_by_name.get(name)
        after = new_by_name.get(name)
        if after is None:
            diff.removed.append(name)
            continue
        if before is None:
            if verdict_of(after) == "vulnerable":
                diff.new_vulnerable.append(name)
            else:
                diff.added.append(name)
            continue
        was, now = verdict_of(before), verdict_of(after)
        if was == now == "vulnerable":
            diff.still_vulnerable += 1
        elif now == "vulnerable":
            diff.regressed.append(name)
        elif was == "vulnerable" and now == "safe":
            diff.fixed.append(name)
        if before.get("status") == "ok" and after.get("status") != "ok":
            diff.broken.append(name)
        elif before.get("status") != "ok" and after.get("status") == "ok":
            diff.recovered.append(name)
    return diff


def render_diff(old: AuditRun, new: AuditRun, diff: AuditDiff) -> str:
    """Human-readable new / fixed / regressed listing."""
    lines = [f"audit diff — {old.path} → {new.path}"]
    for run in (old, new):
        if run.truncated:
            lines.append(f"warning: {run.path} has no stats trailer (truncated run)")

    def section(title: str, names: list[str]) -> None:
        lines.append(f"{title}: {len(names)}")
        for name in names:
            lines.append(f"  {name}")

    section("new vulnerable file(s)", diff.new_vulnerable)
    section("regressed (safe → vulnerable)", diff.regressed)
    section("fixed (vulnerable → safe)", diff.fixed)
    if diff.broken:
        section("broken (analyzed → failed)", diff.broken)
    if diff.recovered:
        section("recovered (failed → analyzed)", diff.recovered)
    if diff.added:
        lines.append(f"added file(s): {len(diff.added)}")
    if diff.removed:
        lines.append(f"removed file(s): {len(diff.removed)}")
    lines.append(f"still vulnerable: {diff.still_vulnerable}")
    verdict = "REGRESSIONS FOUND" if diff.has_regressions else "no regressions"
    lines.append(f"result: {verdict}")
    return "\n".join(lines)
