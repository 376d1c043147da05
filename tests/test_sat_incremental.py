"""Tests for the incremental CDCL machinery.

Coverage: assumption-prefix reuse across the enumeration, lazy
dead-clause sweeps after gate retirement, seeded search determinism,
and the ``incremental=False`` ablation.
"""

from repro.sat.cnf import CNF
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
