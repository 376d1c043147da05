"""Engine observability: per-run counters, stage timings, live progress.

The paper's evaluation is a corpus sweep (230 projects, ~1.1M
statements); at that scale the sweep itself needs instruments.  Every
file outcome feeds an :class:`EngineStats` accumulator, whose run
totals — verdict tallies, cache hits, per-stage (parse / filter / AI /
SAT / replay) time, solver, include and replay counters — are the one
fold :class:`~repro.obs.report.RunTotals` that ``repro report`` also
reads; a :class:`ProgressPrinter` keeps one live status line on a
terminal while the pool drains.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import IO, TYPE_CHECKING

from repro.obs.report import RunTotals, render_totals

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.worker import FileOutcome

__all__ = ["EngineStats", "ProgressPrinter"]

#: Failure statuses with their own counter; any other status lands in
#: :attr:`EngineStats.other_statuses`.
_KNOWN_FAILURES = {
    "frontend-error": "frontend error(s)",
    "error": "error(s)",
    "timeout": "timeout(s)",
    "crash": "crash(es)",
}


def _verdict_count(verdict: str) -> property:
    return property(lambda self: self.totals.verdicts.get(verdict, 0))


@dataclass
class EngineStats:
    """Aggregated counters for one engine run."""

    total: int = 0
    retries: int = 0
    wall_seconds: float = 0.0
    #: Project-slice bytes actually sent down worker pipes this run, and
    #: bytes avoided because the pipe's worker already held the content.
    closure_bytes_shipped: int = 0
    closure_bytes_deduped: int = 0
    #: Every outcome folded by the one record rule (see ``RunTotals``):
    #: cache hits count toward verdicts and replay, never toward stage
    #: time, solver or include counters or slow queries.
    totals: RunTotals = field(default_factory=RunTotals)

    safe = _verdict_count("safe")
    vulnerable = _verdict_count("vulnerable")
    frontend_errors = _verdict_count("frontend-error")
    errors = _verdict_count("error")
    timeouts = _verdict_count("timeout")
    crashes = _verdict_count("crash")

    def record(self, outcome: "FileOutcome") -> None:
        # A FileOutcome's fields are its record's keys.
        self.totals.add(vars(outcome))
        self.retries += max(0, outcome.attempts - 1)

    @property
    def completed(self) -> int:
        return self.totals.files

    @property
    def cache_hits(self) -> int:
        return self.totals.cache_hits

    @property
    def cache_misses(self) -> int:
        return self.totals.files - self.totals.cache_hits

    @property
    def workers_started(self) -> int:
        return self.totals.workers_started

    @property
    def stage_seconds(self) -> dict[str, float]:
        return self.totals.stage_seconds

    @property
    def solver_totals(self) -> dict[str, int]:
        return self.totals.solver

    @property
    def include_totals(self) -> dict[str, int]:
        return self.totals.includes

    @property
    def other_statuses(self) -> dict[str, int]:
        """Outcomes whose status is none of the known ones — counted here
        (and in :attr:`failed`) instead of being folded into ``errors``."""
        return {
            status: count
            for status, count in self.totals.failures().items()
            if status not in _KNOWN_FAILURES
        }

    @property
    def failed(self) -> int:
        """Files that produced no verdict (any non-ok status)."""
        return self.totals.tally()["failed"]

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
            **self.totals.sections(),
            "closure_bytes_shipped": self.closure_bytes_shipped,
            "closure_bytes_deduped": self.closure_bytes_deduped,
            "other_statuses": self.other_statuses,
            "slow_queries": self.totals.slow_queries.records(),
        }

    def summary_lines(self) -> list[str]:
        lines = [
            f"audited {self.completed}/{self.total} file(s) in {self.wall_seconds:.2f}s: "
            f"{self.safe} safe, {self.vulnerable} vulnerable, {self.failed} failed",
            f"cache: {self.cache_hits} hit(s), {self.cache_misses} miss(es)"
            + (f" ({100.0 * self.hit_rate():.0f}% hit rate)" if self.completed else ""),
        ]
        if self.failed:
            parts = [
                f"{count} {_KNOWN_FAILURES.get(status, status)}"
                for status, count in self.totals.failures().items()
            ]
            lines.append("failures: " + ", ".join(parts))
        if self.retries:
            lines.append(f"retries: {self.retries}")
        lines.extend(render_totals(self.totals.sections()))
        if self.closure_bytes_shipped or self.closure_bytes_deduped:
            lines.append(
                f"closure shipping: {self.closure_bytes_shipped} byte(s) sent, "
                f"{self.closure_bytes_deduped} byte(s) deduped"
            )
        if self.totals.slow_queries:
            top = self.totals.slow_queries.records()[0]
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
