"""Plain DPLL solver — the ablation baseline for ABL-SAT.

The paper credits ZChaff's "many optimization techniques" for making BMC
practical; this module implements the 1962-vintage algorithm those
techniques improve on (recursive splitting with unit propagation and pure
literal elimination, no learning, no watched literals, no restarts) so the
benchmark suite can measure how much CDCL buys on BMC-shaped formulas.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.sat.cnf import CNF
from repro.sat.solver import SolveResult, SolverStats

__all__ = ["DPLLSolver", "IncrementalDPLL"]


class DPLLSolver:
    """Recursive DPLL with unit propagation and pure-literal elimination."""

    def __init__(self, formula: CNF) -> None:
        self._clauses = [list(clause) for clause in formula.clauses]
        self._num_vars = formula.num_vars
        self.stats = SolverStats()

    def solve(self) -> SolveResult:
        self.stats = SolverStats()
        model = self._search(self._clauses, {})
        if model is None:
            return SolveResult(satisfiable=False, stats=self.stats)
        # Complete the model for variables eliminated along the way.
        for var in range(1, self._num_vars + 1):
            model.setdefault(var, False)
        return SolveResult(satisfiable=True, model=model, stats=self.stats)

    # -- internals --------------------------------------------------------

    def _search(
        self, clauses: list[list[int]], assignment: dict[int, bool]
    ) -> dict[int, bool] | None:
        clauses, assignment, ok = self._simplify(clauses, assignment)
        if not ok:
            self.stats.conflicts += 1
            return None
        if not clauses:
            return assignment
        lit = self._choose_literal(clauses)
        self.stats.decisions += 1
        for value in (lit, -lit):
            branch = dict(assignment)
            branch[abs(value)] = value > 0
            result = self._search(self._assign(clauses, value), branch)
            if result is not None:
                return result
        return None

    def _simplify(
        self, clauses: list[list[int]], assignment: dict[int, bool]
    ) -> tuple[list[list[int]], dict[int, bool], bool]:
        assignment = dict(assignment)
        while True:
            # Unit propagation.
            unit = next((c[0] for c in clauses if len(c) == 1), None)
            if unit is not None:
                assignment[abs(unit)] = unit > 0
                self.stats.propagations += 1
                clauses = self._assign(clauses, unit)
                if any(len(c) == 0 for c in clauses):
                    return clauses, assignment, False
                continue
            # Pure literal elimination.
            polarity: dict[int, int] = {}
            for clause in clauses:
                for lit in clause:
                    var = abs(lit)
                    sign = 1 if lit > 0 else -1
                    polarity[var] = 0 if polarity.get(var, sign) != sign else sign
            pure = next((v * s for v, s in polarity.items() if s != 0), None)
            if pure is not None:
                assignment[abs(pure)] = pure > 0
                clauses = self._assign(clauses, pure)
                continue
            if any(len(c) == 0 for c in clauses):
                return clauses, assignment, False
            return clauses, assignment, True

    @staticmethod
    def _assign(clauses: list[list[int]], lit: int) -> list[list[int]]:
        out: list[list[int]] = []
        for clause in clauses:
            if lit in clause:
                continue
            if -lit in clause:
                out.append([x for x in clause if x != -lit])
            else:
                out.append(clause)
        return out

    @staticmethod
    def _choose_literal(clauses: list[list[int]]) -> int:
        # Most-occurrences-in-minimum-size-clauses (MOMS-lite): branch on a
        # literal from a shortest clause.
        shortest = min(clauses, key=len)
        return shortest[0]


class IncrementalDPLL:
    """Incremental facade over :class:`DPLLSolver` matching the subset of
    :class:`~repro.sat.solver.CDCLSolver`'s surface the BMC checker uses
    (``add_formula`` / ``add_clause`` / ``solve(assumptions)``).

    DPLL has no learned state worth keeping, so every ``solve`` call
    rebuilds from the accumulated clause set plus the assumptions as unit
    clauses.  This is exactly what makes it the honest ABL-SAT ablation
    baseline for the enumeration loop: the checker's blocking clauses
    accumulate here too, but nothing is remembered between calls.
    """

    def __init__(self) -> None:
        self._cnf = CNF()
        self.stats = SolverStats()

    def add_formula(self, formula: CNF) -> None:
        self._cnf.add_clauses(formula.clauses)
        self._cnf.extend_vars(formula.num_vars)

    def add_clause(self, literals: Iterable[int]) -> None:
        self._cnf.add_clause(tuple(literals))

    def solve(self, assumptions: Iterable[int] = ()) -> SolveResult:
        cnf = self._cnf.copy()
        for lit in assumptions:
            cnf.add_unit(lit)
        result = DPLLSolver(cnf).solve()
        self.stats = result.stats
        return result
