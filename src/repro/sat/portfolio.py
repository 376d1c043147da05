"""Deterministic portfolio racing for hard SAT queries.

Most BMC queries are easy; a few blow past any single configuration's
sweet spot.  Rather than tuning one solver for the tail, this module
races diverse configurations — restart strategies, VSIDS/phase seeds,
and plain DPLL as a structural outlier — and takes the first answer.

**Why interleaved, not parallel.**  The audit engine already saturates
the machine with one worker process per file, and those workers are
daemonic (they cannot fork a per-query sub-pool).  So the race is run as
deterministic round-robin time-slicing over *conflict budgets* inside
one process: every racer gets an exponentially growing slice each round,
and the first racer to decide the query within its slice wins
("first-winner-cancels" — later racers in that round never run).  The
schedule depends only on the query and the configuration list, never on
wall-clock, so portfolio verdicts, models, and counters are exactly
reproducible — a property the parity and determinism suites assert.

The primary configuration runs alone first under ``primary_budget``;
queries it decides (the vast majority) never pay for the portfolio.
CDCL racers keep their trail/learned state between slices (incremental
mode resumes the search instead of restarting it), so a budget-exhausted
slice is an investment, not waste; the DPLL racer re-searches each round
under a growing decision cap.

Losing racers' effort is *attributed*, not dropped: the winner's final
:class:`SolverStats` carries ``portfolio_races`` and
``portfolio_wasted_conflicts`` (sum of every loser's conflicts), and
:attr:`PortfolioSolver.last_winner` names the deciding configuration for
the slow-query ledger.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.sat.cnf import CNF
from repro.sat.dpll import IncrementalDPLL
from repro.sat.solver import CDCLSolver, SolveResult, SolverStats, accumulate_stats

__all__ = ["PortfolioConfig", "PortfolioSolver", "default_configs"]


@dataclass(frozen=True)
class PortfolioConfig:
    """One racer: a named solver configuration."""

    name: str
    backend: str = "cdcl"  # "cdcl" | "dpll"
    restart_strategy: str = "geometric"
    seed: int = 0
    phase_saving: bool = True

    def build(self):
        if self.backend == "dpll":
            return IncrementalDPLL()
        return CDCLSolver(
            restart_strategy=self.restart_strategy,
            phase_saving=self.phase_saving,
            seed=self.seed,
        )


def default_configs(
    restart_strategy: str = "geometric", seed: int = 0
) -> tuple[PortfolioConfig, ...]:
    """The stock four-lane portfolio.

    The primary lane inherits the CLI's restart strategy and seed (so
    ``--solver portfolio`` composes with ``--restart-strategy``/
    ``--sat-seed``); the other lanes diverge from it on exactly one axis
    each: the opposite restart flavor, a phase/VSIDS reseed with saved
    phases off, and DPLL as a non-CDCL structural outlier.
    """
    alt = "luby" if restart_strategy == "geometric" else "geometric"
    return (
        PortfolioConfig(
            f"cdcl-{restart_strategy}", restart_strategy=restart_strategy, seed=seed
        ),
        PortfolioConfig(f"cdcl-{alt}", restart_strategy=alt, seed=seed + 1),
        PortfolioConfig(
            "cdcl-agile",
            restart_strategy=restart_strategy,
            seed=seed + 2,
            phase_saving=False,
        ),
        PortfolioConfig("dpll", backend="dpll"),
    )


class PortfolioSolver:
    """Racing facade implementing the incremental-solver surface the BMC
    checker (and :class:`~repro.sat.cache.CachingSatSolver`) uses:
    ``add_formula`` / ``add_clause`` / ``solve(assumptions)``.

    Secondary racers are materialized lazily, on the first query the
    primary fails to decide within ``primary_budget`` conflicts — a file
    whose queries are all easy pays for exactly one solver.
    """

    def __init__(
        self,
        configs: Iterable[PortfolioConfig] | None = None,
        restart_strategy: str = "geometric",
        seed: int = 0,
        primary_budget: int = 512,
        slice_budget: int = 256,
        growth: float = 2.0,
    ) -> None:
        self._configs = tuple(
            configs if configs is not None else default_configs(restart_strategy, seed)
        )
        if not self._configs:
            raise ValueError("portfolio needs at least one configuration")
        self._primary = self._configs[0].build()
        self._primary_budget = primary_budget
        self._slice_budget = slice_budget
        self._growth = growth
        #: Replay log for late-materialized racers.
        self._log: list[CNF | tuple[int, ...]] = []
        #: Secondary racer solvers plus how much of the log each has seen.
        self._racers: list | None = None
        self._synced: list[int] = []
        self.stats = SolverStats()
        #: Name of the configuration that decided the last solve().
        self.last_winner: str | None = None
        #: Whether the last solve() actually raced (primary blew its budget).
        self.last_raced = False

    # -- solver surface ----------------------------------------------------

    def add_formula(self, formula: CNF) -> None:
        self._log.append(formula)
        self._primary.add_formula(formula)

    def add_clause(self, literals: Iterable[int]) -> None:
        lits = tuple(literals)
        self._log.append(lits)
        self._primary.add_clause(lits)

    def solve(
        self,
        assumptions: Iterable[int] = (),
        conflict_budget: int | None = None,
    ) -> SolveResult:
        assumptions = tuple(assumptions)
        self.last_raced = False
        self.last_winner = self._configs[0].name
        budget = self._primary_budget
        if conflict_budget is not None:
            budget = min(budget, conflict_budget)
        result = self._primary.solve(assumptions, conflict_budget=budget)
        if result.satisfiable is not None:
            self.stats = result.stats
            return result
        remaining = (
            None if conflict_budget is None else conflict_budget - result.stats.conflicts
        )
        if remaining is not None and remaining <= 0:
            # The caller's own budget is spent: report unknown honestly.
            self.stats = result.stats
            self.last_winner = None
            return result
        return self._race(assumptions, result.stats, remaining)

    # -- the race ----------------------------------------------------------

    def _materialize(self) -> None:
        if self._racers is None:
            self._racers = [cfg.build() for cfg in self._configs[1:]]
            self._synced = [0] * len(self._racers)
        for i, racer in enumerate(self._racers):
            for item in self._log[self._synced[i] :]:
                if isinstance(item, CNF):
                    racer.add_formula(item)
                else:
                    racer.add_clause(item)
            self._synced[i] = len(self._log)

    def _race(
        self,
        assumptions: tuple[int, ...],
        primary_spent: SolverStats,
        remaining: int | None,
    ) -> SolveResult:
        self.last_raced = True
        self._materialize()
        racers = [self._primary] + list(self._racers or [])
        totals: list[dict[str, int]] = [{} for _ in racers]
        accumulate_stats(totals[0], primary_spent)
        round_no = 0
        while True:
            slice_budget = int(self._slice_budget * (self._growth**round_no))
            for i, racer in enumerate(racers):
                budget = slice_budget
                if remaining is not None:
                    budget = min(budget, remaining)
                    if budget <= 0:
                        return self._finish(None, totals, None, assumptions)
                result = racer.solve(assumptions, conflict_budget=budget)
                accumulate_stats(totals[i], result.stats)
                if remaining is not None:
                    remaining -= result.stats.conflicts
                if result.satisfiable is not None:
                    return self._finish(i, totals, result, assumptions)
            round_no += 1

    def _finish(
        self,
        winner: int | None,
        totals: list[dict[str, int]],
        result: SolveResult | None,
        assumptions: tuple[int, ...],
    ) -> SolveResult:
        wasted = sum(
            t.get("conflicts", 0) for i, t in enumerate(totals) if i != winner
        )
        if winner is None:
            # Caller's budget ran dry mid-race: everything was wasted.
            merged: dict[str, int] = {}
            for t in totals:
                for k, v in t.items():
                    if k == "max_decision_level":
                        merged[k] = max(merged.get(k, 0), v)
                    else:
                        merged[k] = merged.get(k, 0) + v
            stats = SolverStats(**merged)
            stats.portfolio_races += 1
            stats.portfolio_wasted_conflicts += wasted
            self.stats = stats
            self.last_winner = None
            return SolveResult(satisfiable=None, stats=stats)
        stats = SolverStats(**totals[winner])
        stats.portfolio_races += 1
        stats.portfolio_wasted_conflicts += wasted
        self.stats = stats
        self.last_winner = self._configs[winner].name
        assert result is not None
        return SolveResult(
            satisfiable=result.satisfiable, model=result.model, stats=stats
        )
