"""Engine observability: per-run counters, stage timings, live progress.

The paper's evaluation is a corpus sweep (230 projects, ~1.1M
statements); at that scale the sweep itself needs instruments.  Every
file outcome feeds an :class:`EngineStats` accumulator — cache hit/miss
counters, verdict tallies, per-stage (parse / filter / AI / SAT) time —
and a :class:`ProgressPrinter` keeps one live status line on a terminal
while the pool drains.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import IO, TYPE_CHECKING

from repro.obs.ledger import SlowQueryLedger

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.worker import FileOutcome

__all__ = ["EngineStats", "ProgressPrinter", "STAGES"]

#: Pipeline stages the worker times individually.
STAGES = ("parse", "filter", "ai", "sat", "replay")


@dataclass
class EngineStats:
    """Aggregated counters for one engine run."""

    total: int = 0
    completed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    vulnerable: int = 0
    safe: int = 0
    frontend_errors: int = 0
    errors: int = 0
    timeouts: int = 0
    crashes: int = 0
    retries: int = 0
    wall_seconds: float = 0.0
    #: CPU seconds spent inside each pipeline stage, summed over workers
    #: (cache hits contribute nothing: their stages never ran this run).
    stage_seconds: dict[str, float] = field(default_factory=dict)
    #: SAT-solver counters (decisions, conflicts, propagations, restarts,
    #: learned clauses, solve calls) summed over non-cached outcomes.
    solver_totals: dict[str, int] = field(default_factory=dict)
    #: Outcomes whose status is none of the known five — counted here
    #: (and in :attr:`failed`) instead of being silently folded into
    #: ``errors``.
    other_statuses: dict[str, int] = field(default_factory=dict)
    #: Include-layer counters (edges, included_files, unresolved,
    #: parse_cache_hits/misses) summed over non-cached project outcomes.
    include_totals: dict[str, int] = field(default_factory=dict)
    #: Project-slice bytes actually sent down worker pipes this run, and
    #: bytes avoided because the pipe's worker already held the content.
    closure_bytes_shipped: int = 0
    closure_bytes_deduped: int = 0
    #: Witness-replay verdict counters (confirmed / refuted / unsupported
    #: plus the patched_* re-run tallies and skipped overflow), summed
    #: over every outcome carrying a ``replay`` section — cached ones
    #: included, since a cached replay verdict is still this run's
    #: verdict.
    replay_totals: dict[str, int] = field(default_factory=dict)
    #: Run-wide top-K hardest SAT queries, merged from per-file ledgers
    #: (cache hits contribute nothing: their solves never ran this run).
    slow_queries: SlowQueryLedger = field(default_factory=SlowQueryLedger)

    def record(self, outcome: "FileOutcome") -> None:
        self.completed += 1
        if outcome.cached:
            self.cache_hits += 1
        else:
            self.cache_misses += 1
            # Tolerate unexpected stage keys and non-numeric values: an
            # outcome from a newer/older worker must never abort or skew
            # the aggregate mid-run.
            for stage, seconds in outcome.timings.items():
                if isinstance(seconds, (int, float)) and not isinstance(seconds, bool):
                    self.stage_seconds[stage] = (
                        self.stage_seconds.get(stage, 0.0) + float(seconds)
                    )
            for name, value in (getattr(outcome, "solver", None) or {}).items():
                if name != "backend" and isinstance(value, int) and not isinstance(value, bool):
                    self.solver_totals[name] = self.solver_totals.get(name, 0) + value
            for name, value in (getattr(outcome, "includes", None) or {}).items():
                if isinstance(value, int) and not isinstance(value, bool):
                    self.include_totals[name] = self.include_totals.get(name, 0) + value
            self.slow_queries.merge(getattr(outcome, "slow_queries", None))
        for name, value in (getattr(outcome, "replay", None) or {}).items():
            if isinstance(value, int) and not isinstance(value, bool):
                self.replay_totals[name] = self.replay_totals.get(name, 0) + value
        self.retries += max(0, outcome.attempts - 1)
        if outcome.status == "ok":
            if outcome.safe:
                self.safe += 1
            else:
                self.vulnerable += 1
        elif outcome.status == "frontend-error":
            self.frontend_errors += 1
        elif outcome.status == "timeout":
            self.timeouts += 1
        elif outcome.status == "crash":
            self.crashes += 1
        elif outcome.status == "error":
            self.errors += 1
        else:
            self.other_statuses[outcome.status] = (
                self.other_statuses.get(outcome.status, 0) + 1
            )

    @property
    def failed(self) -> int:
        """Files that produced no verdict (any non-ok status)."""
        return (
            self.frontend_errors
            + self.errors
            + self.timeouts
            + self.crashes
            + sum(self.other_statuses.values())
        )

    def hit_rate(self) -> float:
        return self.cache_hits / self.completed if self.completed else 0.0

    def as_dict(self) -> dict:
        return {
            "total": self.total,
            "completed": self.completed,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "vulnerable": self.vulnerable,
            "safe": self.safe,
            "frontend_errors": self.frontend_errors,
            "errors": self.errors,
            "timeouts": self.timeouts,
            "crashes": self.crashes,
            "retries": self.retries,
            "wall_seconds": round(self.wall_seconds, 6),
            "stage_seconds": {k: round(v, 6) for k, v in sorted(self.stage_seconds.items())},
            "solver": dict(sorted(self.solver_totals.items())),
            "includes": dict(sorted(self.include_totals.items())),
            "replay": dict(sorted(self.replay_totals.items())),
            "closure_bytes_shipped": self.closure_bytes_shipped,
            "closure_bytes_deduped": self.closure_bytes_deduped,
            "other_statuses": dict(sorted(self.other_statuses.items())),
            "slow_queries": self.slow_queries.records(),
        }

    def summary_lines(self) -> list[str]:
        lines = [
            f"audited {self.completed}/{self.total} file(s) in {self.wall_seconds:.2f}s: "
            f"{self.safe} safe, {self.vulnerable} vulnerable, {self.failed} failed",
            f"cache: {self.cache_hits} hit(s), {self.cache_misses} miss(es)"
            + (f" ({100.0 * self.hit_rate():.0f}% hit rate)" if self.completed else ""),
        ]
        if self.failed:
            parts = []
            if self.frontend_errors:
                parts.append(f"{self.frontend_errors} frontend error(s)")
            if self.errors:
                parts.append(f"{self.errors} error(s)")
            if self.timeouts:
                parts.append(f"{self.timeouts} timeout(s)")
            if self.crashes:
                parts.append(f"{self.crashes} crash(es)")
            for status, count in sorted(self.other_statuses.items()):
                parts.append(f"{count} {status}")
            lines.append("failures: " + ", ".join(parts))
        if self.retries:
            lines.append(f"retries: {self.retries}")
        if self.stage_seconds:
            shown = [stage for stage in STAGES if stage in self.stage_seconds]
            extras = sorted(set(self.stage_seconds) - set(STAGES))
            stage_text = ", ".join(
                f"{stage} {self.stage_seconds[stage]:.2f}s" for stage in shown + extras
            )
            lines.append(f"stage time: {stage_text}")
        if self.solver_totals:
            solver_parts = [
                f"{self.solver_totals[name]} {label}"
                for name, label in (
                    ("solve_calls", "solve call(s)"),
                    ("decisions", "decisions"),
                    ("propagations", "propagations"),
                    ("conflicts", "conflicts"),
                    ("learned_clauses", "learned"),
                    ("restarts", "restarts"),
                    ("preprocessed_clauses", "preprocessed"),
                )
                if name in self.solver_totals
            ]
            if solver_parts:
                lines.append("solver: " + ", ".join(solver_parts))
            if self.solver_totals.get("cache_hits", 0) or self.solver_totals.get(
                "cache_misses", 0
            ):
                lines.append(
                    f"sat-cache: {self.solver_totals.get('cache_hits', 0)} hit(s), "
                    f"{self.solver_totals.get('cache_misses', 0)} miss(es)"
                )
        if self.include_totals:
            include_parts = [
                f"{self.include_totals[name]} {label}"
                for name, label in (
                    ("edges", "edge(s)"),
                    ("included_files", "spliced"),
                    ("unresolved", "unresolved dynamic"),
                )
                if name in self.include_totals
            ]
            if include_parts:
                lines.append("includes: " + ", ".join(include_parts))
            if self.include_totals.get("parse_cache_hits", 0) or self.include_totals.get(
                "parse_cache_misses", 0
            ):
                lines.append(
                    f"parse-cache: {self.include_totals.get('parse_cache_hits', 0)} hit(s), "
                    f"{self.include_totals.get('parse_cache_misses', 0)} miss(es)"
                )
        if self.replay_totals:
            replay_parts = [
                f"{self.replay_totals.get(name, 0)} {name}"
                for name in ("confirmed", "refuted", "unsupported")
                if self.replay_totals.get(name, 0)
            ]
            lines.append(
                "replay: " + (", ".join(replay_parts) if replay_parts else "0 traces")
            )
            if self.replay_totals.get("patched_refuted", 0) or self.replay_totals.get(
                "patched_confirmed", 0
            ):
                lines.append(
                    f"patched replay: {self.replay_totals.get('patched_refuted', 0)} "
                    f"killed, {self.replay_totals.get('patched_confirmed', 0)} survived"
                )
        if self.closure_bytes_shipped or self.closure_bytes_deduped:
            lines.append(
                f"closure shipping: {self.closure_bytes_shipped} byte(s) sent, "
                f"{self.closure_bytes_deduped} byte(s) deduped"
            )
        if self.slow_queries:
            top = self.slow_queries.records()[0]
            lines.append(
                f"slowest sat query: {float(top.get('seconds', 0.0)):.3f}s "
                f"({top.get('file', '?')}, assertion {top.get('assert_id', '?')})"
            )
        return lines


class ProgressPrinter:
    """One live ``\\r``-rewritten status line (only when enabled).

    Writes to ``stream`` (default stderr) so report text on stdout stays
    machine-parseable; :meth:`close` clears the line.
    """

    def __init__(self, total: int, enabled: bool = True, stream: IO[str] | None = None) -> None:
        self.total = total
        self.enabled = enabled
        self.stream = stream if stream is not None else sys.stderr
        self._started = time.monotonic()
        self._last_len = 0

    def update(self, stats: EngineStats) -> None:
        if not self.enabled:
            return
        elapsed = time.monotonic() - self._started
        line = (
            f"[{stats.completed}/{self.total}] "
            f"{stats.vulnerable} vulnerable, {stats.failed} failed, "
            f"{stats.cache_hits} cached, {elapsed:.1f}s"
        )
        pad = " " * max(0, self._last_len - len(line))
        self.stream.write("\r" + line + pad)
        self.stream.flush()
        self._last_len = len(line)

    def close(self) -> None:
        if not self.enabled or not self._last_len:
            return
        self.stream.write("\r" + " " * self._last_len + "\r")
        self.stream.flush()
        self._last_len = 0
