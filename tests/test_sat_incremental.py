"""Tests for the incremental CDCL machinery and the portfolio racer.

Coverage: assumption-prefix reuse across the enumeration, lazy
dead-clause sweeps after gate retirement, seeded search determinism,
the ``incremental=False`` ablation, and portfolio racing with
first-winner-cancels semantics and wasted-conflict accounting.
"""

import itertools

import pytest

from repro.sat.cnf import CNF
from repro.sat.portfolio import PortfolioConfig, PortfolioSolver, default_configs
from repro.sat.solver import CDCLSolver


def pigeonhole(holes: int) -> CNF:
    pigeons = holes + 1

    def var(p: int, h: int) -> int:
        return p * holes + h + 1

    cnf = CNF()
    for p in range(pigeons):
        cnf.add_clause([var(p, h) for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                cnf.add_clause((-var(p1, h), -var(p2, h)))
    return cnf


def brute_force_satisfiable(cnf: CNF) -> bool:
    variables = sorted(cnf.variables())
    if cnf.has_empty_clause:
        return False
    for values in itertools.product([False, True], repeat=len(variables)):
        assignment = dict(zip(variables, values))
        if all(
            any(assignment[abs(lit)] == (lit > 0) for lit in clause)
            for clause in cnf.clauses
        ):
            return True
    return not cnf.clauses


class TestAssumptionPrefixReuse:
    def test_shared_prefix_is_counted(self):
        # BMC enumeration shape: a stable activation prefix plus a
        # varying tail.  The second solve shares [10] and must say so.
        cnf = CNF([(1, 2), (-1, 3), (10, 11)])
        solver = CDCLSolver(cnf)
        assert solver.solve(assumptions=[10, 1]).satisfiable is True
        result = solver.solve(assumptions=[10, 2])
        assert result.satisfiable is True
        assert result.stats.assumption_prefix_reused == 1

    def test_identical_assumptions_reuse_whole_trail(self):
        cnf = CNF([(1, 2, 3)])
        solver = CDCLSolver(cnf)
        first = solver.solve(assumptions=[1])
        second = solver.solve(assumptions=[1])
        assert first.satisfiable and second.satisfiable
        assert second.stats.assumption_prefix_reused == 1
        # The kept trail means no new decisions were needed.
        assert second.stats.decisions == 0

    def test_enumeration_with_blocking_clauses_stays_correct(self):
        # All 7 models of (1 ∨ 2 ∨ 3) under a gate, enumerated the way
        # the checker does it: assume the gate, block each model.
        cnf = CNF([(-4, 1, 2, 3)])
        solver = CDCLSolver(cnf)
        models = set()
        while True:
            result = solver.solve(assumptions=[4])
            if not result.satisfiable:
                break
            model = tuple(result.model[v] for v in (1, 2, 3))
            assert any(model)
            assert model not in models
            models.add(model)
            solver.add_clause(
                [-4] + [-v if result.model[v] else v for v in (1, 2, 3)]
            )
        assert len(models) == 7
        # Retiring the gate leaves the formula satisfiable (gate off).
        solver.add_clause((-4,))
        assert solver.solve().satisfiable is True

    def test_prefix_reuse_across_sat_and_unsat(self):
        solver = CDCLSolver(CNF([(1, 2)]))
        assert solver.solve(assumptions=[-1]).satisfiable is True
        assert solver.solve(assumptions=[-1, -2]).satisfiable is False
        assert solver.solve(assumptions=[-1]).satisfiable is True
        assert solver.solve().satisfiable is True


class TestDeadClauseSweep:
    def test_root_satisfied_clauses_are_reclaimed(self):
        # Many clauses all satisfied once gate 1 is retired; the sweep
        # is lazy and amortized, so force enough root units to cross the
        # geometric threshold.
        cnf = CNF()
        for v in range(2, 80):
            cnf.add_clause((-1, v, v + 100))
        solver = CDCLSolver(cnf)
        assert solver.solve(assumptions=[1]).satisfiable is True
        solver.add_clause((-1,))  # retire the gate
        for v in range(300, 400):  # pile up root units to trip the sweep
            solver.add_clause((v,))
        result = solver.solve()
        assert result.satisfiable is True
        assert result.stats.root_satisfied_deleted >= 78

    def test_sweep_preserves_verdicts(self):
        cnf = CNF([(-1, 2), (-1, 3), (2, 3, 4)])
        solver = CDCLSolver(cnf)
        assert solver.solve(assumptions=[1]).satisfiable is True
        solver.add_clause((-1,))
        for v in range(10, 80):
            solver.add_clause((v,))
        assert solver.solve().satisfiable is True
        assert solver.solve(assumptions=[-2, -3, -4]).satisfiable is False


class TestSeedAndAblation:
    def test_seed_zero_matches_unseeded_search(self):
        a = CDCLSolver(pigeonhole(5), seed=0).solve()
        b = CDCLSolver(pigeonhole(5)).solve()
        assert (a.satisfiable, a.stats.decisions, a.stats.conflicts) == (
            b.satisfiable,
            b.stats.decisions,
            b.stats.conflicts,
        )

    def test_same_seed_is_deterministic(self):
        a = CDCLSolver(pigeonhole(5), seed=7).solve()
        b = CDCLSolver(pigeonhole(5), seed=7).solve()
        assert a.stats.decisions == b.stats.decisions
        assert a.stats.conflicts == b.stats.conflicts

    def test_seeds_never_change_verdicts(self):
        for seed in (0, 1, 7, 12345):
            assert CDCLSolver(pigeonhole(4), seed=seed).solve().satisfiable is False
            sat = CDCLSolver(CNF([(1, 2), (-1, 3)]), seed=seed).solve()
            assert sat.satisfiable is True

    def test_non_incremental_matches_incremental_verdicts(self):
        cnf = CNF([(1, 2), (-1, 3), (-2, -3, 4)])
        inc = CDCLSolver(cnf, incremental=True)
        non = CDCLSolver(cnf, incremental=False)
        for assumptions in ([], [1], [1, -3], [-4, 2], [1, 2, 3, -4]):
            assert (
                inc.solve(assumptions=assumptions).satisfiable
                == non.solve(assumptions=assumptions).satisfiable
            ), assumptions


class TestPortfolioSolver:
    def test_easy_query_never_races(self):
        solver = PortfolioSolver()
        solver.add_formula(CNF([(1, 2), (-1, 3)]))
        result = solver.solve()
        assert result.satisfiable is True
        assert solver.last_raced is False
        assert result.stats.portfolio_races == 0

    def test_budget_blowout_triggers_race_and_names_winner(self):
        solver = PortfolioSolver(primary_budget=2, slice_budget=8)
        solver.add_formula(pigeonhole(6))
        result = solver.solve()
        assert result.satisfiable is False
        assert solver.last_raced is True
        assert solver.last_winner is not None
        assert result.stats.portfolio_races == 1
        assert result.stats.portfolio_wasted_conflicts >= 0

    def test_race_is_deterministic(self):
        outcomes = []
        for _ in range(2):
            solver = PortfolioSolver(primary_budget=2, slice_budget=8)
            solver.add_formula(pigeonhole(6))
            result = solver.solve()
            outcomes.append(
                (
                    result.satisfiable,
                    solver.last_winner,
                    result.stats.portfolio_wasted_conflicts,
                )
            )
        assert outcomes[0] == outcomes[1]

    def test_caller_budget_still_bounds_the_solve(self):
        solver = PortfolioSolver(primary_budget=4)
        solver.add_formula(pigeonhole(7))
        result = solver.solve(conflict_budget=3)
        assert result.satisfiable is None
        assert solver.last_winner is None

    def test_blocking_enumeration_through_portfolio(self):
        solver = PortfolioSolver()
        solver.add_formula(CNF([(1, 2)]))
        models = set()
        while True:
            result = solver.solve()
            if not result.satisfiable:
                break
            model = (result.model[1], result.model[2])
            models.add(model)
            solver.add_clause([-v if result.model[v] else v for v in (1, 2)])
        assert len(models) == 3

    def test_custom_config_list(self):
        configs = [
            PortfolioConfig(name="only", restart_strategy="luby", seed=3),
        ]
        solver = PortfolioSolver(configs=configs, primary_budget=1, slice_budget=4)
        solver.add_formula(pigeonhole(5))
        result = solver.solve()
        assert result.satisfiable is False
        assert solver.last_winner == "only"

    def test_default_configs_cover_four_lanes(self):
        configs = default_configs("geometric", 0)
        names = [c.name for c in configs]
        assert names[0] == "cdcl-geometric"
        assert "dpll" in names
        assert len(names) == 4

    def test_empty_config_rejected(self):
        with pytest.raises(ValueError):
            PortfolioSolver(configs=[])


class TestCheckerPortfolioIntegration:
    def _vulnerable_source(self) -> str:
        return "<?php $a = $_GET['x']; echo $a;\n"

    def test_winner_lands_in_ledger_and_totals(self):
        from repro.websari.pipeline import WebSSARI

        websari = WebSSARI(solver="portfolio")
        report = websari.verify_source(self._vulnerable_source(), "v.php")
        assert report.safe is False
        # Even unraced queries attribute their (primary) configuration
        # in the slow-query ledger.
        assert report.bmc.slow_queries
        assert all(
            q.get("winner") == "cdcl-geometric" for q in report.bmc.slow_queries
        )

    def test_raced_query_attributes_winner(self, monkeypatch):
        # Shrink the primary budget to zero so any query with a single
        # conflict races, then check the attribution plumbing end to
        # end: per-winner totals and the slow-query ledger's winner.
        import repro.bmc.checker as checker_mod
        from repro.websari.pipeline import WebSSARI

        real = checker_mod.PortfolioSolver
        monkeypatch.setattr(
            checker_mod,
            "PortfolioSolver",
            lambda **kw: real(primary_budget=0, slice_budget=4, **kw),
        )
        source = (
            "<?php $y = 'ok';\n"
            + "".join(
                f"if ($_GET['b{i}']) {{ $y = $y . $_GET['b{i}']; }}\n"
                for i in range(6)
            )
            + "echo $y;\n"
        )
        websari = WebSSARI(solver="portfolio")
        report = websari.verify_source(source, "race.php")
        stats = report.bmc.solver_stats
        assert stats.get("portfolio_races", 0) >= 1
        wins = {k: v for k, v in stats.items() if k.startswith("portfolio_win_")}
        assert wins, f"no per-winner totals in {stats}"
        assert sum(wins.values()) == stats["portfolio_races"]
        raced = [q for q in report.bmc.slow_queries if "winner" in q]
        assert raced, "ledger must name the winning configuration"
        assert all(
            q["winner"].replace("-", "_") in {k[len("portfolio_win_"):] for k in wins}
            for q in raced
        )
