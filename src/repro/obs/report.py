"""Audit JSONL consumers: human-readable run summaries and run diffs.

``repro audit --jsonl`` streams one ``{"type": "file", ...}`` record per
file plus a final ``{"type": "stats", ...}`` trailer (see
``repro.engine.jsonl``).  This module turns those streams into:

* :func:`render_report` — verdict/cache tallies, per-file duration
  mean/max, per-stage totals and bucket-interpolated p50/p90/p99
  latency, the slow-query table, and the top-N slowest files
  of one run;
* :func:`summarize_run` — the same summary as a machine-readable dict
  (``repro report --json``);
* :func:`diff_runs` / :func:`render_diff` — new / fixed / regressed
  classification between two runs of the same corpus (the CI story:
  fail the build when a change introduces vulnerabilities).

All are exposed through the ``repro report`` subcommand.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.ledger import SlowQueryLedger
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "AuditRun",
    "AuditDiff",
    "ReportError",
    "load_audit",
    "render_report",
    "summarize_run",
    "stage_quantiles",
    "replay_disagreements",
    "diff_runs",
    "render_diff",
]

#: Pipeline stage order for latency sections (extra stages sort after).
_STAGE_ORDER = ("parse", "filter", "ai", "sat", "replay")

#: Quantiles surfaced in report latency breakdowns.
_REPORT_QUANTILES = (0.5, 0.9, 0.99)


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
        with no trailer at all — the per-file ``slow_queries`` record
        fields.  An empty-ledger trailer is a valid (empty) answer, not a
        fallback trigger.
        """
        ledger = SlowQueryLedger(capacity=max(top or 0, 64))
        if isinstance((self.stats or {}).get("slow_queries"), list):
            ledger.merge(self.stats["slow_queries"])
        else:
            for record in self.files:
                if not record.get("cached"):
                    ledger.merge(record.get("slow_queries") or [])
        records = ledger.records()
        return records[:top] if top is not None else records


def _is_vulnerable(record: dict) -> bool:
    return record.get("status") == "ok" and record.get("safe") is False


def _is_safe(record: dict) -> bool:
    return record.get("status") == "ok" and record.get("safe") is True


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


def _tally(records: list[dict]) -> dict[str, int]:
    tally = {"safe": 0, "vulnerable": 0, "failed": 0, "cached": 0}
    for record in records:
        if _is_safe(record):
            tally["safe"] += 1
        elif _is_vulnerable(record):
            tally["vulnerable"] += 1
        else:
            tally["failed"] += 1
        if record.get("cached"):
            tally["cached"] += 1
    return tally


def _sum_dicts(records: list[dict], key: str) -> dict[str, float]:
    totals: dict[str, float] = {}
    for record in records:
        payload = record.get(key)
        if not isinstance(payload, dict):
            continue
        for name, value in payload.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                totals[name] = totals.get(name, 0) + value
    return totals


def replay_disagreements(records: list[dict]) -> list[dict]:
    """Vulnerable-but-refuted files: the static verdict said vulnerable,
    yet every synthesized witness request failed to reach a sink on a
    fully steered path.  These are the candidate false positives the
    replay subsystem exists to surface.  Pre-replay records (no
    ``replay`` section — older streams, replay off) contribute nothing.
    """
    out: list[dict] = []
    for record in records:
        replay = record.get("replay")
        if not _is_vulnerable(record) or not isinstance(replay, dict):
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


def _failures_by_status(records: list[dict]) -> dict[str, int]:
    by_status: dict[str, int] = {}
    for record in records:
        if record.get("status") != "ok":
            by_status[record["status"]] = by_status.get(record["status"], 0) + 1
    return by_status


def _stage_sort_key(stage: str) -> tuple[int, str]:
    return (
        _STAGE_ORDER.index(stage) if stage in _STAGE_ORDER else len(_STAGE_ORDER),
        stage,
    )


def stage_quantiles(records: list[dict]) -> dict[str, dict]:
    """Per-stage latency quantiles from file-record timings.

    Observations go through the same cumulative-bucket histogram and
    interpolating estimator as the ``/metrics`` ``_quantile`` gauges, so
    a report and a scrape of the same run agree (both are estimates
    bounded by the bucket layout, not exact order statistics).  Cached
    records are skipped — their stages never ran in this run.
    """
    registry = MetricsRegistry()
    histogram = registry.histogram("report_stage_seconds")
    counts: dict[str, int] = {}
    for record in records:
        if record.get("cached"):
            continue
        timings = record.get("timings")
        if not isinstance(timings, dict):
            continue
        for stage, seconds in timings.items():
            if isinstance(seconds, (int, float)) and not isinstance(seconds, bool):
                histogram.observe(float(seconds), stage=str(stage))
                counts[str(stage)] = counts.get(str(stage), 0) + 1
    out: dict[str, dict] = {}
    for stage in sorted(counts, key=_stage_sort_key):
        out[stage] = {
            "count": counts[stage],
            **{
                f"p{int(q * 100)}": histogram.quantile(q, stage=stage)
                for q in _REPORT_QUANTILES
            },
        }
    return out


def _format_slow_query(query: dict) -> str:
    parts = [
        f"{float(query.get('seconds') or 0.0):9.3f}s",
        str(query.get("file") or "?"),
        f"assertion {query.get('assert_id', '?')}",
    ]
    counters = [
        f"{int(query[name])} {name}"
        for name in ("decisions", "conflicts")
        if isinstance(query.get(name), (int, float))
        and not isinstance(query.get(name), bool)
    ]
    if counters:
        parts.append(", ".join(counters))
    fingerprint = query.get("fingerprint")
    if isinstance(fingerprint, str) and fingerprint:
        parts.append(f"fp {fingerprint[:12]}")
    return "  ".join(parts)


def render_report(run: AuditRun, top: int = 10) -> str:
    """Human-readable summary of one audit run."""
    records = run.files
    tally = _tally(records)
    lines = [f"audit report — {run.path}"]
    if run.truncated:
        lines.append("warning: stream has no stats trailer (truncated or interrupted run)")
    stats = run.stats or {}
    if stats.get("interrupted"):
        lines.append("warning: run was interrupted before completion")
    total = stats.get("total", len(records))
    wall = stats.get("wall_seconds")
    header = f"files: {len(records)}/{total} audited"
    if isinstance(wall, (int, float)):
        header += f" in {wall:.2f}s"
    lines.append(header)
    lines.append(
        f"verdicts: {tally['safe']} safe, {tally['vulnerable']} vulnerable, "
        f"{tally['failed']} failed"
    )
    lines.append(
        f"cache: {tally['cached']} hit(s), {len(records) - tally['cached']} miss(es)"
    )

    durations = [
        r["duration"]
        for r in records
        if isinstance(r.get("duration"), (int, float))
        and not isinstance(r.get("duration"), bool)
    ]
    # Guarded: a trailer-only or fully-drained stream has no durations,
    # and the mean must not divide by zero.
    if durations:
        lines.append(
            f"per-file duration: mean {sum(durations) / len(durations):.3f}s, "
            f"max {max(durations):.3f}s"
        )

    by_status = _failures_by_status(records)
    if by_status:
        parts = ", ".join(f"{count} {status}" for status, count in sorted(by_status.items()))
        lines.append(f"failures: {parts}")

    stage_totals = _sum_dicts(records, "timings")
    if stage_totals:
        stage_text = ", ".join(
            f"{stage} {seconds:.2f}s" for stage, seconds in sorted(stage_totals.items())
        )
        lines.append(f"stage time: {stage_text}")

    quantiles = stage_quantiles(records)
    if quantiles:
        lines.append("stage latency p50/p90/p99 (bucket-interpolated):")
        for stage, latency in quantiles.items():
            lines.append(
                f"  {stage:<7} {latency['p50']:.3f}s / {latency['p90']:.3f}s / "
                f"{latency['p99']:.3f}s  (n={latency['count']})"
            )

    solver_totals = _sum_dicts(records, "solver")
    if solver_totals:
        order = ("solve_calls", "decisions", "propagations", "conflicts",
                 "learned_clauses", "restarts", "preprocessed_clauses",
                 "cache_hits", "cache_misses")
        parts = [
            f"{int(solver_totals[name])} {name.replace('_', ' ')}"
            for name in order
            if name in solver_totals
        ]
        if parts:
            lines.append("solver: " + ", ".join(parts))
        reclaimed = int(solver_totals.get("root_satisfied_deleted", 0))
        if reclaimed:
            lines.append(f"incremental: {reclaimed} dead clause(s) reclaimed")

    include_totals = _sum_dicts(records, "includes")
    if include_totals:
        parts = [
            f"{int(include_totals.get('edges', 0))} edge(s)",
            f"{int(include_totals.get('included_files', 0))} spliced",
            f"{int(include_totals.get('unresolved', 0))} unresolved dynamic",
        ]
        hits = int(include_totals.get("parse_cache_hits", 0))
        misses = int(include_totals.get("parse_cache_misses", 0))
        if hits or misses:
            parts.append(f"parse cache {hits} hit(s) / {misses} miss(es)")
        lines.append("includes: " + ", ".join(parts))

    replay_totals = _sum_dicts(records, "replay")
    if replay_totals:
        lines.append(
            f"replay: {int(replay_totals.get('confirmed', 0))} confirmed, "
            f"{int(replay_totals.get('refuted', 0))} refuted, "
            f"{int(replay_totals.get('unsupported', 0))} unsupported"
            + (
                f", {int(replay_totals['skipped'])} skipped"
                if replay_totals.get("skipped")
                else ""
            )
        )
        killed = int(replay_totals.get("patched_refuted", 0))
        survived = int(replay_totals.get("patched_confirmed", 0))
        if killed or survived:
            lines.append(f"patched replay: {killed} killed, {survived} survived")
        disagreements = replay_disagreements(records)
        if disagreements:
            lines.append(
                f"replay disagreements (vulnerable but refuted): {len(disagreements)}"
            )
            for item in disagreements:
                lines.append(
                    f"  {item['filename']}  ({item['refuted']} refuted, "
                    f"{item['confirmed']} confirmed)"
                )

    slow = run.slow_queries(top=max(0, top))
    if slow:
        lines.append(f"slow queries (top {len(slow)}):")
        for query in slow:
            lines.append("  " + _format_slow_query(query))

    slowest = sorted(
        (r for r in records if isinstance(r.get("duration"), (int, float))),
        key=lambda r: r["duration"],
        reverse=True,
    )[: max(0, top)]
    if slowest:
        lines.append(f"slowest {len(slowest)} file(s):")
        for record in slowest:
            verdict = (
                "vulnerable"
                if _is_vulnerable(record)
                else ("safe" if _is_safe(record) else record.get("status", "?"))
            )
            lines.append(f"  {record['duration']:9.3f}s  {record['filename']}  [{verdict}]")
    return "\n".join(lines)


def summarize_run(run: AuditRun, top: int = 10) -> dict:
    """Machine-readable run summary (the ``repro report --json`` payload).

    Carries everything :func:`render_report` prints — tallies, stage
    sums and quantiles, the slow-query ledger, the
    slowest files — as plain JSON-able data, so CI and bench harnesses
    stop scraping the human-oriented text.
    """
    records = run.files
    stats = run.stats or {}
    durations = [
        r["duration"]
        for r in records
        if isinstance(r.get("duration"), (int, float))
        and not isinstance(r.get("duration"), bool)
    ]
    slowest = sorted(
        (r for r in records if isinstance(r.get("duration"), (int, float))),
        key=lambda r: r["duration"],
        reverse=True,
    )[: max(0, top)]

    def verdict_of(record: dict) -> str:
        if _is_vulnerable(record):
            return "vulnerable"
        if _is_safe(record):
            return "safe"
        return str(record.get("status", "?"))

    return {
        "path": run.path,
        "truncated": run.truncated,
        "interrupted": bool(stats.get("interrupted")),
        "files_audited": len(records),
        "files_total": stats.get("total", len(records)),
        "wall_seconds": stats.get("wall_seconds"),
        "verdicts": _tally(records),
        "failures": _failures_by_status(records),
        "duration": {
            "mean": sum(durations) / len(durations) if durations else None,
            "max": max(durations) if durations else None,
        },
        "stage_seconds": {
            stage: seconds
            for stage, seconds in sorted(_sum_dicts(records, "timings").items())
        },
        "stage_quantiles": stage_quantiles(records),
        "solver": {
            name: value
            for name, value in sorted(_sum_dicts(records, "solver").items())
        },
        "includes": {
            name: value
            for name, value in sorted(_sum_dicts(records, "includes").items())
        },
        "replay": {
            name: value
            for name, value in sorted(_sum_dicts(records, "replay").items())
        },
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
            if _is_vulnerable(after):
                diff.new_vulnerable.append(name)
            else:
                diff.added.append(name)
            continue
        if _is_vulnerable(before) and _is_vulnerable(after):
            diff.still_vulnerable += 1
        elif _is_vulnerable(after):
            diff.regressed.append(name)
        elif _is_vulnerable(before) and _is_safe(after):
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
