"""The BMC engine: per-assertion checking with all-counterexample
enumeration — paper §3.3.2.

For each assertion (in program order) the checker builds

    B_i = C(prefix constraints) ∧ guard_i ∧ ¬ok_i

and hands it to the CDCL solver.  While satisfiable, the model's BN
values are traced through the AI to produce a counterexample; the
deciding BN literals are negated ("we generate the negation clause N_j
of BN"), restricting B_i, until UNSAT — at which point all
counterexamples for that assertion have been collected.

Implementation notes relative to the paper's text:

* One incremental solver instance serves the whole program: assignment
  constraints are added once, each assertion's ``guard ∧ violation`` is
  reified behind a fresh gate literal and activated via an assumption,
  and blocking clauses carry ``¬gate`` so they only constrain that
  assertion's enumeration.
* Blocking clauses negate only the *deciding* branch literals of the
  trace rather than all of BN.  Negating all of BN (the literal reading
  of the paper) enumerates the same distinct paths multiple times — once
  per assignment of branch variables that the path never consults.
* The paper says the checked assertion's constraint ``C(assert_i, g)``
  is conjoined before moving on.  Doing that for a *violated* assertion
  contradicts the assignment constraints (e.g. Figure 7: t_sid is
  unconditionally ⊤, so ``t_iq < ⊤`` is unsatisfiable) and would silence
  every later assertion in the file.  The default policy therefore adds
  the constraint only when the assertion produced no counterexamples
  (where it is implied and acts as a solver lemma); ``accumulate="always"``
  reproduces the literal reading, and the ABL-ENC benchmark shows how it
  degenerates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Literal

from repro.ai.renaming import RenamedAssert, RenamedProgram
from repro.bmc.encoder import ConstraintGenerator, EncodedAssertion, LatticeEncoding
from repro.lattice import FiniteLattice, two_point_lattice
from repro.obs import get_tracer
from repro.obs.ledger import SlowQueryLedger
from repro.bmc.trace import CounterexampleTrace, ViolatingVariable, reconstruct_trace
from repro.sat.cache import CachingSatSolver, SatQueryCache
from repro.sat.dpll import IncrementalDPLL
from repro.sat.solver import CDCLSolver, SolverStats, accumulate_stats

__all__ = ["AssertionResult", "BMCResult", "BMCChecker", "check_program"]

AccumulatePolicy = Literal["never", "safe-only", "always"]
SolverBackend = Literal["cdcl", "dpll"]


@dataclass
class AssertionResult:
    """Verification outcome for one assertion."""

    event: RenamedAssert
    counterexamples: list[CounterexampleTrace] = field(default_factory=list)
    #: True when enumeration hit max_counterexamples before UNSAT.
    truncated: bool = False

    @property
    def safe(self) -> bool:
        return not self.counterexamples

    @property
    def assert_id(self) -> int:
        return self.event.assert_id


@dataclass
class BMCResult:
    """Verification outcome for a whole program."""

    assertions: list[AssertionResult]
    num_vars: int
    num_clauses: int
    solve_seconds: float
    #: The policy lattice the check ran over (used by grouping).
    lattice: FiniteLattice | None = None
    #: Which SAT backend produced the verdicts ("cdcl" or "dpll").
    solver_backend: str = "cdcl"
    #: SolverStats counters aggregated over every solve call of the run.
    solver_stats: dict[str, int] = field(default_factory=dict)
    #: Total solve() invocations (>= one per assertion, plus one per
    #: enumerated counterexample).
    num_solve_calls: int = 0
    #: Top-K hardest SAT queries of the run (ledger record dicts, most
    #: expensive first; see :mod:`repro.obs.ledger` for the schema).
    slow_queries: list[dict] = field(default_factory=list)

    @property
    def safe(self) -> bool:
        return all(result.safe for result in self.assertions)

    @property
    def violated(self) -> list[AssertionResult]:
        return [r for r in self.assertions if not r.safe]

    def all_counterexamples(self) -> list[CounterexampleTrace]:
        out: list[CounterexampleTrace] = []
        for result in self.assertions:
            out.extend(result.counterexamples)
        return out


class BMCChecker:
    """Drives encoding + solving for one renamed program."""

    def __init__(
        self,
        program: RenamedProgram,
        lattice: FiniteLattice | None = None,
        accumulate: AccumulatePolicy = "safe-only",
        max_counterexamples: int = 256,
        blocking: Literal["deciding", "all-bn"] = "deciding",
        solver_backend: SolverBackend = "cdcl",
        sat_cache: SatQueryCache | None = None,
        restart_strategy: str = "geometric",
        sat_seed: int = 0,
        sat_incremental: bool = True,
    ) -> None:
        self.program = program
        self.lattice = lattice if lattice is not None else two_point_lattice()
        self.encoding = LatticeEncoding(self.lattice)
        self.accumulate = accumulate
        self.max_counterexamples = max_counterexamples
        #: "deciding" negates only the branch literals the violation
        #: consults (one counterexample per semantically distinct path);
        #: "all-bn" negates every BN variable — the paper's literal
        #: formulation, which re-enumerates each path once per assignment
        #: of the irrelevant variables.  Kept for the ABL-ENUM ablation.
        self.blocking = blocking
        if solver_backend not in ("cdcl", "dpll"):
            raise ValueError(f"unknown solver backend {solver_backend!r}")
        self.solver_backend = solver_backend
        #: CDCL settings: ``restart_strategy`` picks the restart schedule
        #: and ``sat_seed`` perturbs VSIDS tie-breaks / initial phases
        #: (0 = deterministic defaults).
        self.restart_strategy = restart_strategy
        self.sat_seed = sat_seed
        #: Ablation switch: False restores the pre-incremental CDCL
        #: behaviour (backtrack-to-root between solves, linear VSIDS
        #: scan) so benchmarks can measure the incremental machinery
        #: against an in-process seed-equivalent baseline.
        self.sat_incremental = sat_incremental
        #: Shared SAT-level query memo (repro.sat.cache); None disables.
        self.sat_cache = sat_cache
        self._solver_totals: dict[str, int] = {}
        self._num_solve_calls = 0
        #: Hardest queries of this check; capacity stays small because the
        #: engine merges one ledger per file into the run-wide top-K.
        self._ledger = SlowQueryLedger(capacity=8)

    def _make_solver(self) -> CDCLSolver | IncrementalDPLL | CachingSatSolver:
        inner: CDCLSolver | IncrementalDPLL
        if self.solver_backend == "dpll":
            inner = IncrementalDPLL()
        else:
            inner = CDCLSolver(
                restart_strategy=self.restart_strategy,
                seed=self.sat_seed,
                incremental=self.sat_incremental,
            )
        if self.sat_cache is not None:
            return CachingSatSolver(inner, self.sat_cache, backend=self.solver_backend)
        return inner

    def _tally_solve(self, stats: SolverStats) -> None:
        self._num_solve_calls += 1
        # Aggregation rules (sum vs max) come from SolverStats field
        # metadata, so new counters flow into the totals automatically.
        accumulate_stats(self._solver_totals, stats)

    def run(self) -> BMCResult:
        start = time.perf_counter()
        tracer = get_tracer()
        with tracer.span("bmc.encode") as encode_span:
            generator = ConstraintGenerator(self.program, self.encoding)
            encoded_assertions = generator.encode_all()
            solver = self._make_solver()
            solver.add_formula(generator.cnf)
            encode_span.set(
                assertions=len(encoded_assertions),
                clauses=generator.cnf.num_clauses,
                vars=generator.cnf.num_vars,
            )
        emitted_clauses = generator.cnf.num_clauses

        def sync_new_clauses() -> int:
            nonlocal emitted_clauses
            for clause in generator.cnf.clauses[emitted_clauses:]:
                solver.add_clause(clause)
            emitted_clauses = generator.cnf.num_clauses
            return emitted_clauses

        results: list[AssertionResult] = []
        for encoded in encoded_assertions:
            results.append(
                self._check_one(encoded, generator, solver, sync_new_clauses)
            )

        if isinstance(solver, CachingSatSolver):
            # One pack write per program, after its last query.
            solver.save_pack()

        num_vars, num_clauses = generator.formula_stats()
        return BMCResult(
            assertions=results,
            num_vars=num_vars,
            num_clauses=num_clauses,
            solve_seconds=time.perf_counter() - start,
            lattice=self.lattice,
            solver_backend=self.solver_backend,
            solver_stats=dict(self._solver_totals),
            num_solve_calls=self._num_solve_calls,
            slow_queries=self._ledger.records(),
        )

    def _check_one(
        self,
        encoded: EncodedAssertion,
        generator: ConstraintGenerator,
        solver,
        sync_new_clauses,
    ) -> AssertionResult:
        tracer = get_tracer()
        result = AssertionResult(event=encoded.event)
        gate = generator.gate_for(encoded.violation)
        sync_new_clauses()
        # A free activation literal decouples this assertion's enumeration
        # from the rest of the formula: ``act → violation`` (one
        # direction only).  Once every violating path is blocked, the
        # accumulated blocking clauses simply force ¬act — they must not
        # force the violation itself false, which the (bidirectional)
        # Tseitin gate would do and thereby silence later assertions.
        act = generator.pool.fresh()
        solver.add_clause((-act, gate))

        with tracer.span(
            "bmc.assertion", assert_id=encoded.event.assert_id
        ) as assertion_span:
            self._enumerate(encoded, generator, solver, act, result, tracer)
            assertion_span.set(
                counterexamples=len(result.counterexamples),
                safe=result.safe,
                truncated=result.truncated,
            )

        if result.counterexamples:
            # The assertion's enumeration is over and ``act`` will never
            # be assumed again: retire the gate permanently.  Fixing
            # ``¬act`` at root level makes the gate implication and every
            # blocking clause of this enumeration root-satisfied, which
            # schedules the incremental solver's lazy dead-clause sweep.
            # (A safe assertion accumulated no blocking clauses — nothing
            # to reclaim, so skip the unit and the sweep it would cause.)
            solver.add_clause((-act,))

        if self.accumulate == "always" or (
            self.accumulate == "safe-only" and result.safe
        ):
            generator.add_expr(encoded.holds)
            sync_new_clauses()
        return result

    def _enumerate(
        self,
        encoded: EncodedAssertion,
        generator: ConstraintGenerator,
        solver,
        act: int,
        result: AssertionResult,
        tracer,
    ) -> None:
        """The all-counterexamples loop for one assertion (paper §3.3.2)."""
        iteration = 0
        while True:
            with tracer.span("sat.solve", iteration=iteration) as solve_span:
                solve_start = time.perf_counter()
                solve = solver.solve(assumptions=[act])
                solve_seconds = time.perf_counter() - solve_start
            stats = solve.stats
            self._ledger.observe({
                "seconds": solve_seconds,
                "assert_id": encoded.event.assert_id,
                "iteration": iteration,
                "decisions": stats.decisions,
                "conflicts": stats.conflicts,
                "satisfiable": solve.satisfiable,
                "backend": self.solver_backend,
                "fingerprint": getattr(solver, "last_query_key", None),
            })
            iteration += 1
            solve_span.set(
                satisfiable=solve.satisfiable,
                decisions=stats.decisions,
                propagations=stats.propagations,
                conflicts=stats.conflicts,
                learned_clauses=stats.learned_clauses,
                restarts=stats.restarts,
                max_decision_level=stats.max_decision_level,
                sat_cache_hit=stats.cache_hits > 0,
            )
            self._tally_solve(stats)
            if not solve.satisfiable:
                break
            model = solve.model
            branch_values = {
                name: generator.branch_value(name, model)
                for name in self.program.branch_variables
            }
            violating = []
            for var in encoded.per_var_violation:
                level = generator.level_of(var, model)
                if not self.lattice.lt(level, encoded.event.required):
                    violating.append(ViolatingVariable(var, level))
            trace = reconstruct_trace(
                self.program, encoded.event, branch_values, violating
            )
            result.counterexamples.append(trace)
            if len(result.counterexamples) >= self.max_counterexamples:
                result.truncated = True
                break
            if self.blocking == "all-bn":
                negated = trace.branch_assignment  # every BN variable
            else:
                negated = trace.deciding_branches
            if not negated:
                break  # single possible path; enumeration is complete
            # Negation clause N_j over the chosen BN literals, scoped to
            # this assertion's activation literal.
            blocking = [-act]
            for name, value in negated.items():
                var = generator.pool.var_of(name)
                blocking.append(-var if value else var)
            solver.add_clause(blocking)


def check_program(
    program: RenamedProgram,
    lattice: FiniteLattice | None = None,
    accumulate: AccumulatePolicy = "safe-only",
    max_counterexamples: int = 256,
    blocking: Literal["deciding", "all-bn"] = "deciding",
    solver_backend: SolverBackend = "cdcl",
    sat_cache: SatQueryCache | None = None,
    restart_strategy: str = "geometric",
    sat_seed: int = 0,
    sat_incremental: bool = True,
) -> BMCResult:
    """Convenience wrapper: check every assertion of a renamed program."""
    checker = BMCChecker(
        program,
        lattice=lattice,
        accumulate=accumulate,
        max_counterexamples=max_counterexamples,
        blocking=blocking,
        solver_backend=solver_backend,
        sat_cache=sat_cache,
        restart_strategy=restart_strategy,
        sat_seed=sat_seed,
        sat_incremental=sat_incremental,
    )
    return checker.run()
