"""Tests for the CDCL solver and the DPLL baseline.

Both solvers are checked against a brute-force reference on random small
formulas (property-based), on crafted corner cases, and on the classic
pigeonhole family where UNSAT answers require real search.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sat import CNF, CDCLSolver, DPLLSolver, solve_cnf


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


def pigeonhole(holes: int) -> CNF:
    """PHP(n+1, n): n+1 pigeons into n holes — classically UNSAT."""
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


SOLVERS = [
    pytest.param(lambda cnf: CDCLSolver(cnf).solve(), id="cdcl"),
    pytest.param(lambda cnf: DPLLSolver(cnf).solve(), id="dpll"),
]


@pytest.mark.parametrize("solve", SOLVERS)
class TestBothSolvers:
    def test_empty_formula_sat(self, solve):
        assert solve(CNF()).satisfiable is True

    def test_single_unit(self, solve):
        result = solve(CNF([(3,)]))
        assert result.satisfiable is True
        assert result.model[3] is True

    def test_contradictory_units(self, solve):
        assert solve(CNF([(1,), (-1,)])).satisfiable is False

    def test_empty_clause_unsat(self, solve):
        cnf = CNF()
        cnf.add_clause(())
        assert solve(cnf).satisfiable is False

    def test_simple_sat_model_is_valid(self, solve):
        cnf = CNF([(1, 2), (-1, 2), (1, -2)])
        result = solve(cnf)
        assert result.satisfiable is True
        assert cnf.evaluate(result.model)

    def test_chain_implication(self, solve):
        # x1 and (x1 -> x2) and ... and (x9 -> x10) and ¬x10: UNSAT
        cnf = CNF([(1,)])
        for i in range(1, 10):
            cnf.add_clause((-i, i + 1))
        cnf.add_clause((-10,))
        assert solve(cnf).satisfiable is False

    def test_xor_chain_sat(self, solve):
        # x1 xor x2, x2 xor x3 — satisfiable
        cnf = CNF([(1, 2), (-1, -2), (2, 3), (-2, -3)])
        result = solve(cnf)
        assert result.satisfiable is True
        assert cnf.evaluate(result.model)

    def test_pigeonhole_3_unsat(self, solve):
        assert solve(pigeonhole(3)).satisfiable is False

    def test_all_combinations_of_three_vars(self, solve):
        # Force each total assignment via units, plus one 3-clause.
        for values in itertools.product([1, -1], repeat=3):
            cnf = CNF([(values[0] * 1,), (values[1] * 2,), (values[2] * 3,), (1, 2, 3)])
            expected = any(v > 0 for v in values)
            assert solve(cnf).satisfiable is expected


class TestCDCLSpecific:
    def test_pigeonhole_5_unsat_with_learning(self):
        result = CDCLSolver(pigeonhole(5)).solve()
        assert result.satisfiable is False
        assert result.stats.conflicts > 0
        assert result.stats.learned_clauses > 0

    def test_incremental_blocking_enumerates_models(self):
        # Enumerate all 3 models of (x1 ∨ x2) by blocking clauses, as the
        # BMC counterexample loop does.
        cnf = CNF([(1, 2)])
        solver = CDCLSolver(cnf)
        models = []
        while True:
            result = solver.solve()
            if not result.satisfiable:
                break
            model = {v: result.model[v] for v in (1, 2)}
            models.append(tuple(sorted(model.items())))
            solver.add_clause([-v if val else v for v, val in model.items()])
        assert len(models) == 3
        assert len(set(models)) == 3

    def test_assumptions_sat_then_unsat(self):
        cnf = CNF([(1, 2)])
        solver = CDCLSolver(cnf)
        assert solver.solve(assumptions=[-1]).satisfiable is True
        assert solver.solve(assumptions=[-1, -2]).satisfiable is False
        # Formula itself still satisfiable afterwards.
        assert solver.solve().satisfiable is True

    def test_conflicting_assumptions(self):
        solver = CDCLSolver(CNF([(1, 2)]))
        assert solver.solve(assumptions=[1, -1]).satisfiable is False

    def test_add_clause_after_unsat_stays_unsat(self):
        solver = CDCLSolver(CNF([(1,), (-1,)]))
        assert solver.solve().satisfiable is False
        solver.add_clause((2,))
        assert solver.solve().satisfiable is False

    def test_stats_populated(self):
        result = CDCLSolver(pigeonhole(4)).solve()
        assert result.satisfiable is False
        assert result.stats.decisions > 0
        assert result.stats.propagations > 0

    def test_model_covers_unconstrained_variables(self):
        cnf = CNF([(1,)])
        cnf.extend_vars(4)
        result = CDCLSolver(cnf).solve()
        assert set(result.model) == {1, 2, 3, 4}

    def test_learned_clause_reduction_does_not_break_soundness(self):
        # PHP(7, 6) learns more clauses than the default database limit,
        # so the search halves the learned clauses at least once.
        result = CDCLSolver(pigeonhole(6)).solve()
        assert result.satisfiable is False
        assert result.stats.deleted_clauses > 0

    def test_frequent_restarts_do_not_break_termination(self):
        result = CDCLSolver(pigeonhole(6)).solve()
        assert result.satisfiable is False
        assert result.stats.restarts > 0

    def test_restart_schedules_agree_on_the_verdict(self):
        verdicts = {
            strategy: CDCLSolver(pigeonhole(6), restart_strategy=strategy)
            .solve()
            .satisfiable
            for strategy in ("geometric", "luby")
        }
        assert verdicts == {"geometric": False, "luby": False}

    def test_true_literals_helper(self):
        result = solve_cnf(CNF([(1,), (-2,)]))
        lits = result.true_literals()
        assert 1 in lits and -2 in lits

    def test_luby_sequence(self):
        from repro.sat.solver import _luby

        assert [_luby(i) for i in range(1, 16)] == [
            1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
        ]

    def test_luby_restart_strategy_solves(self):
        solver = CDCLSolver(pigeonhole(6), restart_strategy="luby")
        result = solver.solve()
        assert result.satisfiable is False
        assert result.stats.restarts > 0
        assert result.stats.deleted_clauses > 0

    def test_reduction_ranks_by_activity_and_keeps_binary_and_locked(self):
        from repro.sat.solver import _Clause

        solver = CDCLSolver(CNF([(1, 2, 3)]))
        solver._ensure_var(9)
        cold = _Clause([1, 2, 4], learned=True)
        binary = _Clause([1, 5], learned=True)
        locked = _Clause([6, 1, 2], learned=True)
        warm = []
        for activity, lits in ((5.0, [1, 7, 8]), (6.0, [2, 7, 9]), (7.0, [3, 8, 9])):
            clause = _Clause(lits, learned=True)
            clause.activity = activity
            warm.append(clause)
        solver._learned = [cold, binary, locked, *warm]
        # ``locked`` is the reason of a trail assignment.
        assert solver._enqueue(6, locked)
        solver._reduce_learned()
        # The less active half is cold, binary and locked; only cold goes.
        assert set(map(id, solver._learned)) == set(map(id, [binary, locked, *warm]))
        assert solver.stats.deleted_clauses == 1

    def test_unknown_restart_strategy_rejected(self):
        with pytest.raises(ValueError):
            CDCLSolver(CNF(), restart_strategy="random")

    def test_phase_saving_consistent_models(self):
        # With phase saving, re-solving after a no-op clause addition
        # tends to reproduce the same model (not required, but the model
        # must always satisfy the formula).
        cnf = CNF([(1, 2), (-1, 3), (2, -3)])
        solver = CDCLSolver(cnf)
        first = solver.solve()
        assert cnf.evaluate(first.model)
        solver.add_clause((1, 2, 3))
        second = solver.solve()
        assert cnf.evaluate(second.model)


class TestDPLLSpecific:
    def test_pure_literal_elimination(self):
        # x2 appears only positively; solvable without branching on it.
        cnf = CNF([(1, 2), (-1, 2)])
        result = DPLLSolver(cnf).solve()
        assert result.satisfiable is True
        assert result.model[2] is True


# -- property-based agreement with brute force -----------------------------


@st.composite
def random_cnf(draw):
    num_vars = draw(st.integers(min_value=1, max_value=6))
    num_clauses = draw(st.integers(min_value=0, max_value=12))
    clauses = []
    for _ in range(num_clauses):
        width = draw(st.integers(min_value=1, max_value=3))
        clause = [
            draw(st.integers(min_value=1, max_value=num_vars))
            * draw(st.sampled_from([1, -1]))
            for _ in range(width)
        ]
        clauses.append(tuple(clause))
    cnf = CNF(clauses)
    cnf.extend_vars(num_vars)
    return cnf


@settings(max_examples=150, deadline=None)
@given(random_cnf())
def test_cdcl_agrees_with_brute_force(cnf):
    result = CDCLSolver(cnf).solve()
    assert result.satisfiable == brute_force_satisfiable(cnf)
    if result.satisfiable:
        assert cnf.evaluate(result.model)


@settings(max_examples=100, deadline=None)
@given(random_cnf())
def test_dpll_agrees_with_brute_force(cnf):
    result = DPLLSolver(cnf).solve()
    assert result.satisfiable == brute_force_satisfiable(cnf)
    if result.satisfiable:
        assert cnf.evaluate(result.model)


@settings(max_examples=75, deadline=None)
@given(random_cnf())
def test_cdcl_and_dpll_agree(cnf):
    assert CDCLSolver(cnf).solve().satisfiable == DPLLSolver(cnf).solve().satisfiable
