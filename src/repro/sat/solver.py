"""CDCL SAT solver — the reproduction's stand-in for ZChaff [19].

The paper solves its BMC formulas with ZChaff; offline we implement the
same algorithm family ZChaff introduced:

* unit propagation with **two watched literals** (no per-assignment clause
  scans, cheap backtracking),
* **VSIDS** decision heuristic with periodic score decay,
* **first-UIP conflict clause learning** with non-chronological
  backjumping,
* **geometric restarts**, and
* learned-clause database reduction by activity.

The public entry points are :meth:`CDCLSolver.solve` (one-shot) and the
incremental pattern used by the BMC engine: keep one solver instance, call
:meth:`add_clause` to append blocking clauses between :meth:`solve` calls.

Incremental mode (the default) keeps VSIDS scores, saved phases, and the
learned-clause database alive across calls, reuses the shared
assumption-prefix of the trail between consecutive solves instead of
re-propagating from level 0, and accepts clauses mid-search without
rewinding further than watch soundness requires.  Root-level units added
between solves (e.g. a retired assertion gate ``add_clause((-act,))``)
schedule a lazy sweep that deletes clauses the new root assignment
satisfies — dead blocking clauses disappear instead of burdening every
later propagation.  Constructing with ``incremental=False`` restores the
historical solve-from-scratch behaviour (and the original linear-scan
decision loop), which the benchmarks use as the ablation baseline.

The solver is deliberately free of NumPy so that its behaviour is easy to
audit; BMC formulas derived from loop-free abstract interpretations are
small enough that pure Python is comfortable.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field, fields as dataclass_fields
from heapq import heappop, heappush

from repro.sat.cnf import CNF

__all__ = [
    "CDCLSolver",
    "MAX_STATS",
    "SolveResult",
    "SolverStats",
    "accumulate_stats",
    "stat_counter",
]


_UNASSIGNED = 0
_TRUE = 1
_FALSE = -1

#: VSIDS variable-activity and learned-clause-activity decay factors.
_VAR_DECAY = 0.95
_CLAUSE_DECAY = 0.999
#: Conflicts before the first restart; the geometric schedule multiplies
#: the limit by ``_RESTART_FACTOR`` after each restart, the Luby schedule
#: scales ``_RESTART_FIRST`` by the Luby sequence.
_RESTART_FIRST = 100
_RESTART_FACTOR = 1.5
#: The learned-clause database is halved once it outgrows this multiple
#: of the problem clauses (and at least 100 clauses).
_LEARNED_LIMIT_FACTOR = 2.0


def stat_counter(aggregate: str = "sum") -> int:
    """Declare a :class:`SolverStats` counter with its cross-call
    aggregation rule (``"sum"`` or ``"max"``).  Consumers that fold many
    solve calls into one total (the BMC checker, the engine) discover the
    rule from field metadata, so adding a counter here is enough to make
    it flow through every aggregate."""
    if aggregate not in ("sum", "max"):
        raise ValueError(f"unknown aggregation {aggregate!r}")
    return field(default=0, metadata={"aggregate": aggregate})


@dataclass
class SolverStats:
    """Counters exposed for the ABL-SAT ablation benchmarks and the
    engine's observability layer.

    Every field carries an ``aggregate`` metadata entry (see
    :func:`stat_counter`); :func:`accumulate_stats` uses it to combine
    per-call stats into run totals without a hardcoded field list.
    """

    decisions: int = stat_counter()
    propagations: int = stat_counter()
    conflicts: int = stat_counter()
    learned_clauses: int = stat_counter()
    restarts: int = stat_counter()
    max_decision_level: int = stat_counter("max")
    #: Learned clauses dropped by database reduction.
    deleted_clauses: int = stat_counter()
    #: Problem clauses simplified away (or strengthened) at add time:
    #: tautologies, duplicate literals, clauses satisfied at root level,
    #: root-false literal stripping, and top-level unit propagation.
    preprocessed_clauses: int = stat_counter()
    #: SAT-level query-cache counters (populated by
    #: :class:`repro.sat.cache.CachingSatSolver`, zero otherwise).
    cache_hits: int = stat_counter()
    cache_misses: int = stat_counter()
    #: Clauses deleted by the lazy root-satisfied sweep that runs after a
    #: root unit lands between solves (retired gates kill their blocking
    #: clauses this way).
    root_satisfied_deleted: int = stat_counter()
    #: Solve calls that kept at least one assumption level from the
    #: previous call instead of rewinding to level 0.
    assumption_prefix_reused: int = stat_counter()


#: :class:`SolverStats` counters that aggregate with ``max``; every other
#: counter sums.
MAX_STATS = frozenset(
    stat_field.name
    for stat_field in dataclass_fields(SolverStats)
    if stat_field.metadata.get("aggregate") == "max"
)


def accumulate_stats(
    totals: dict[str, int], stats: "SolverStats | Mapping[str, object]"
) -> None:
    """Fold one solve call's counters, or one file record's ``solver``
    section, into ``totals`` in place, honoring each field's declared
    aggregation rule (sum or max).  Non-integer entries (a record's
    ``backend``) are skipped; counters that are not :class:`SolverStats`
    fields (a record's ``solve_calls``) sum."""
    counters = vars(stats) if isinstance(stats, SolverStats) else stats
    for name, value in counters.items():
        if not isinstance(value, int) or isinstance(value, bool):
            continue
        if name in MAX_STATS:
            totals[name] = max(totals.get(name, 0), value)
        else:
            totals[name] = totals.get(name, 0) + value


@dataclass
class SolveResult:
    """Outcome of a solve call: ``model`` maps every variable to a
    boolean when satisfiable and is None when unsatisfiable."""

    satisfiable: bool
    model: dict[int, bool] | None = None
    stats: SolverStats = field(default_factory=SolverStats)

    def true_literals(self) -> set[int]:
        if self.model is None:
            return set()
        return {v if value else -v for v, value in self.model.items()}


class _Clause:
    __slots__ = ("literals", "learned", "activity")

    def __init__(self, literals: list[int], learned: bool = False) -> None:
        self.literals = literals
        self.learned = learned
        self.activity = 0.0


class CDCLSolver:
    """Conflict-driven clause-learning solver over integer literals."""

    def __init__(
        self,
        formula: CNF | None = None,
        restart_strategy: str = "geometric",
        seed: int = 0,
        incremental: bool = True,
    ) -> None:
        self._num_vars = 0
        self._clauses: list[_Clause] = []
        self._learned: list[_Clause] = []
        # watches[lit] = clauses currently watching literal `lit`
        self._watches: dict[int, list[_Clause]] = {}
        self._assign: list[int] = [_UNASSIGNED]  # 1-indexed by variable
        self._level: list[int] = [0]
        self._reason: list[_Clause | None] = [None]
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._activity: list[float] = [0.0]
        self._var_inc = 1.0
        self._cla_inc = 1.0
        if restart_strategy not in ("geometric", "luby"):
            raise ValueError(f"unknown restart strategy {restart_strategy!r}")
        self._restart_strategy = restart_strategy
        self._saved_phase: list[bool] = [False]  # 1-indexed by variable
        self._seed = seed
        self._incremental = incremental
        #: Assumption literals currently installed on the trail;
        #: assumption i occupies decision level i+1.  Trimmed by
        #: :meth:`_backtrack` so the list always mirrors the trail.
        self._assumptions: list[int] = []
        #: Lazy-deletion priority queue of (-activity, var); stale entries
        #: (assigned vars, outdated activities) are discarded or refreshed
        #: at pop time.  Only consulted in incremental mode.
        self._order_heap: list[tuple[float, int]] = []
        #: Persistent scratch buffer for conflict analysis (incremental
        #: mode): avoids an O(num_vars) allocation per conflict.
        self._seen: list[bool] = [False]
        self._root_conflict = False
        self._propagate_head = 0
        #: A root-level unit landed via add_clause since the last sweep;
        #: the next solve() entered at level 0 deletes every clause the
        #: strengthened root assignment satisfies.  The sweep itself is an
        #: O(clause database) scan, so it runs geometrically: only once
        #: the root trail has doubled since the previous sweep (total
        #: sweep work stays O(F log U) per file instead of O(F·U)).
        self._dead_sweep_pending = False
        self._swept_trail_len = 0
        #: Clauses simplified at add time since the last solve() call;
        #: snapshot into that call's stats so no counting is lost to the
        #: per-call stats reset.
        self._pending_preprocessed = 0
        self.stats = SolverStats()
        if formula is not None:
            self.add_formula(formula)

    # -- problem construction -------------------------------------------

    def _ensure_var(self, var: int) -> None:
        while self._num_vars < var:
            self._num_vars += 1
            v = self._num_vars
            self._assign.append(_UNASSIGNED)
            self._level.append(0)
            self._reason.append(None)
            self._seen.append(False)
            if self._seed:
                # Deterministic per-(seed, var) jitter: perturbs VSIDS
                # tie-breaks and initial phases so differently-seeded
                # solvers explore genuinely different search trees.
                h = (v * 0x9E3779B1 + self._seed * 0x85EBCA77) & 0xFFFFFFFF
                h ^= h >> 16
                h = (h * 0x045D9F3B) & 0xFFFFFFFF
                h ^= h >> 16
                self._activity.append((h / 4294967296.0) * 1e-6)
                self._saved_phase.append(bool(h & 1))
            else:
                self._activity.append(0.0)
                self._saved_phase.append(False)
            heappush(self._order_heap, (-self._activity[v], v))

    def add_formula(self, formula: CNF) -> None:
        self._ensure_var(formula.num_vars)
        for clause in formula.clauses:
            self.add_clause(clause)

    def add_clause(self, literals: Iterable[int]) -> None:
        """Add a problem clause.  Safe to call between solve() calls.

        In incremental mode the in-progress assignment is preserved: the
        trail is rewound only as far as watch soundness requires (a clause
        arriving fully falsified forces a backjump to the level where it
        becomes unit).  In non-incremental mode the historical behaviour —
        rewind to level 0 on every add — is kept.

        Preprocessing happens here, before the clause ever reaches the
        watch lists: tautologies and duplicate literals are eliminated,
        root-false literals stripped, root-satisfied clauses dropped, and
        unit clauses propagated to fixpoint immediately so later adds see
        the strengthened root assignment (top-level unit propagation).
        """
        if not self._incremental:
            self._backtrack(0)
        dedup = False
        lits: list[int] = []
        seen: set[int] = set()
        for lit in literals:
            if lit == 0:
                raise ValueError("0 is not a valid literal")
            if -lit in seen:
                self._pending_preprocessed += 1
                return  # tautology
            if lit in seen:
                dedup = True
                continue
            seen.add(lit)
            lits.append(lit)
            self._ensure_var(abs(lit))
        if not lits:
            self._root_conflict = True
            return
        # Drop literals already false at level 0; satisfy check for
        # root-true ones.  Assignments above level 0 (kept trail) are
        # transient and must not simplify the clause.
        fixed: list[int] = []
        for lit in lits:
            val = self._value(lit)
            if val == _UNASSIGNED or self._level[abs(lit)] > 0:
                fixed.append(lit)
                continue
            if val == _TRUE:
                self._pending_preprocessed += 1
                return  # already satisfied at root
            # root-false: stripped
        if dedup or len(fixed) < len(lits):
            self._pending_preprocessed += 1
        if not fixed:
            self._root_conflict = True
            return
        if len(fixed) == 1:
            # Root-implied unit: force it at level 0 (rewinding any kept
            # trail) and propagate to fixpoint so later adds see the
            # strengthened root assignment.
            self._pending_preprocessed += 1
            self._backtrack(0)
            # Propagate against a scratch stats object: the previous
            # solve's SolveResult still references self.stats, and
            # add-time propagation must not mutate an already-reported
            # result.
            saved_stats, self.stats = self.stats, SolverStats()
            try:
                if not self._enqueue(fixed[0], None) or self._propagate() is not None:
                    self._root_conflict = True
            finally:
                self.stats = saved_stats
            self._dead_sweep_pending = True
            return
        if self._decision_level() == 0:
            # All surviving literals are unassigned: plain install.
            clause = _Clause(fixed)
            self._clauses.append(clause)
            self._watch(clause)
            return
        self._attach_clause(fixed)

    def _attach_clause(self, lits: list[int]) -> None:
        """Install a problem clause (>= 2 literals, none root-fixed)
        without rewinding to level 0.

        Watch soundness only needs both watched literals to be non-false
        at attach time.  A clause arriving fully falsified is handled by
        backjumping to the deepest level at which it stops being
        conflicting: if its highest-level literal is unique the clause
        becomes unit there (and is enqueued), otherwise at least two
        literals free up.
        """
        if all(self._value(lit) == _FALSE for lit in lits):
            levels = sorted((self._level[abs(lit)] for lit in lits), reverse=True)
            target = levels[1] if levels[0] > levels[1] else levels[0] - 1
            self._backtrack(target)
        nonfalse = [lit for lit in lits if self._value(lit) != _FALSE]
        falses = sorted(
            (lit for lit in lits if self._value(lit) == _FALSE),
            key=lambda lit: -self._level[abs(lit)],
        )
        clause = _Clause(nonfalse + falses)
        self._clauses.append(clause)
        self._watch(clause)
        if len(nonfalse) == 1 and self._value(nonfalse[0]) == _UNASSIGNED:
            # Unit under the current assignment: assert it here with the
            # new clause as reason (scratch stats — see add_clause).
            saved_stats, self.stats = self.stats, SolverStats()
            try:
                self._enqueue(nonfalse[0], clause)
            finally:
                self.stats = saved_stats

    def _watch(self, clause: _Clause) -> None:
        for lit in clause.literals[:2]:
            self._watches.setdefault(lit, []).append(clause)

    # -- assignment primitives -------------------------------------------

    def _value(self, lit: int) -> int:
        val = self._assign[abs(lit)]
        if val == _UNASSIGNED:
            return _UNASSIGNED
        return val if lit > 0 else -val

    def _decision_level(self) -> int:
        return len(self._trail_lim)

    def _enqueue(self, lit: int, reason: _Clause | None) -> bool:
        val = self._value(lit)
        if val == _TRUE:
            return True
        if val == _FALSE:
            return False
        var = abs(lit)
        self._assign[var] = _TRUE if lit > 0 else _FALSE
        self._saved_phase[var] = lit > 0
        self._level[var] = self._decision_level()
        self._reason[var] = reason
        self._trail.append(lit)
        self.stats.propagations += 1
        return True

    def _backtrack(self, level: int) -> None:
        if self._decision_level() <= level:
            return
        limit = self._trail_lim[level]
        heap = self._order_heap
        for lit in reversed(self._trail[limit:]):
            var = abs(lit)
            self._assign[var] = _UNASSIGNED
            self._reason[var] = None
            heappush(heap, (-self._activity[var], var))
        del self._trail[limit:]
        del self._trail_lim[level:]
        if level < len(self._assumptions):
            del self._assumptions[level:]
        self._propagate_head = min(self._propagate_head, len(self._trail))

    # -- dead-clause sweeping ----------------------------------------------

    def _sweep_root_satisfied(self) -> None:
        """Delete every clause satisfied by the root assignment.

        Runs lazily (next solve() that starts at level 0 after a root
        unit landed between solves).  The motivating case is a retired
        assertion gate: ``add_clause((-act,))`` fixes ``-act`` at root,
        which makes the gate clause and every ``-act``-tagged blocking
        clause from that assertion's enumeration permanently satisfied —
        dead weight in the watch lists otherwise."""
        self._dead_sweep_pending = False
        self._swept_trail_len = len(self._trail)
        removed = 0
        assign = self._assign
        for attr in ("_clauses", "_learned"):
            store: list[_Clause] = getattr(self, attr)
            kept: list[_Clause] = []
            for clause in store:
                satisfied = False
                for lit in clause.literals:
                    if lit > 0:
                        if assign[lit] == _TRUE:
                            satisfied = True
                            break
                    elif assign[-lit] == _FALSE:
                        satisfied = True
                        break
                if satisfied:
                    for lit in clause.literals[:2]:
                        watchers = self._watches.get(lit)
                        if watchers is not None:
                            try:
                                watchers.remove(clause)
                            except ValueError:
                                pass
                    removed += 1
                else:
                    kept.append(clause)
            setattr(self, attr, kept)
        if removed:
            # Root assignments never participate in conflict analysis, so
            # their reason clauses (possibly just swept) can be dropped.
            for lit in self._trail:
                self._reason[abs(lit)] = None
        self.stats.root_satisfied_deleted += removed

    # -- unit propagation (two watched literals) --------------------------

    def _propagate(self) -> _Clause | None:
        """Propagate all pending assignments; return a conflicting clause or None."""
        while self._propagate_head < len(self._trail):
            lit = self._trail[self._propagate_head]
            self._propagate_head += 1
            false_lit = -lit
            watchers = self._watches.get(false_lit)
            if not watchers:
                continue
            new_watchers: list[_Clause] = []
            conflict: _Clause | None = None
            i = 0
            while i < len(watchers):
                clause = watchers[i]
                i += 1
                lits = clause.literals
                # Ensure the false literal is in slot 1.
                if lits[0] == false_lit:
                    lits[0], lits[1] = lits[1], lits[0]
                first = lits[0]
                if self._value(first) == _TRUE:
                    new_watchers.append(clause)
                    continue
                # Look for a replacement watch.
                moved = False
                for k in range(2, len(lits)):
                    if self._value(lits[k]) != _FALSE:
                        lits[1], lits[k] = lits[k], lits[1]
                        self._watches.setdefault(lits[1], []).append(clause)
                        moved = True
                        break
                if moved:
                    continue
                # Clause is unit or conflicting.
                new_watchers.append(clause)
                if not self._enqueue(first, clause):
                    conflict = clause
                    # keep remaining watchers registered
                    new_watchers.extend(watchers[i:])
                    break
            self._watches[false_lit] = new_watchers
            if conflict is not None:
                self._propagate_head = len(self._trail)
                return conflict
        return None

    # -- conflict analysis (first UIP) ------------------------------------

    def _bump_var(self, var: int) -> None:
        self._activity[var] += self._var_inc
        if self._activity[var] > 1e100:
            for v in range(1, self._num_vars + 1):
                self._activity[v] *= 1e-100
            self._var_inc *= 1e-100
        heappush(self._order_heap, (-self._activity[var], var))

    def _decay_var_activity(self) -> None:
        self._var_inc /= _VAR_DECAY

    def _bump_clause(self, clause: _Clause) -> None:
        clause.activity += self._cla_inc
        if clause.activity > 1e20:
            for c in self._learned:
                c.activity *= 1e-20
            self._cla_inc *= 1e-20

    def _analyze(self, conflict: _Clause) -> tuple[list[int], int]:
        """First-UIP analysis: returns (learned clause literals, backjump level)."""
        learned: list[int] = [0]  # slot 0 reserved for the asserting literal
        seen = self._seen
        touched: list[int] = []
        counter = 0
        lit = 0
        clause: _Clause | None = conflict
        index = len(self._trail)
        current_level = self._decision_level()

        while True:
            assert clause is not None
            if clause.learned:
                self._bump_clause(clause)
            start = 1 if lit != 0 else 0
            for q in clause.literals[start:]:
                var = abs(q)
                if not seen[var] and self._level[var] > 0:
                    seen[var] = True
                    touched.append(var)
                    self._bump_var(var)
                    if self._level[var] == current_level:
                        counter += 1
                    else:
                        learned.append(q)
            # pick next literal to resolve on: last assigned seen literal
            while True:
                index -= 1
                lit = self._trail[index]
                if seen[abs(lit)]:
                    break
            counter -= 1
            seen[abs(lit)] = False
            if counter == 0:
                break
            clause = self._reason[abs(lit)]
        learned[0] = -lit
        for var in touched:
            seen[var] = False

        # Conflict-clause minimization: drop literals implied by the rest.
        marked = set(abs(x) for x in learned)
        minimized = [learned[0]]
        for q in learned[1:]:
            reason = self._reason[abs(q)]
            if reason is None:
                minimized.append(q)
                continue
            if all(
                abs(r) in marked or self._level[abs(r)] == 0
                for r in reason.literals
                if abs(r) != abs(q)
            ):
                continue  # redundant
            minimized.append(q)
        learned = minimized

        if len(learned) == 1:
            return learned, 0
        # Backjump level = max level among the non-asserting literals.
        max_i = 1
        for i in range(2, len(learned)):
            if self._level[abs(learned[i])] > self._level[abs(learned[max_i])]:
                max_i = i
        learned[1], learned[max_i] = learned[max_i], learned[1]
        return learned, self._level[abs(learned[1])]

    def _record_learned(self, literals: list[int]) -> bool:
        """Install a learned clause; False if the asserting literal clashes
        with an assumption (formula UNSAT under the assumptions)."""
        if len(literals) == 1:
            return self._enqueue(literals[0], None)
        clause = _Clause(literals, learned=True)
        self._learned.append(clause)
        self._watch(clause)
        self._bump_clause(clause)
        self.stats.learned_clauses += 1
        return self._enqueue(literals[0], clause)

    def _reduce_learned(self) -> None:
        """Drop roughly half of the learned clauses, least active first;
        binary clauses and clauses currently locked as propagation
        reasons always survive."""
        self._learned.sort(key=lambda c: c.activity)
        keep_from = len(self._learned) // 2
        dropped = self._learned[:keep_from]
        locked = {id(self._reason[abs(lit)]) for lit in self._trail if self._reason[abs(lit)] is not None}
        survivors = []
        for clause in dropped:
            if id(clause) in locked or len(clause.literals) <= 2:
                survivors.append(clause)
                continue
            for lit in clause.literals[:2]:
                watchers = self._watches.get(lit)
                if watchers is not None and clause in watchers:
                    watchers.remove(clause)
            self.stats.deleted_clauses += 1
        self._learned = survivors + self._learned[keep_from:]

    # -- decision heuristic ------------------------------------------------

    def _pick_branch_var(self) -> int:
        if not self._incremental:
            best = 0
            best_act = -1.0
            for var in range(1, self._num_vars + 1):
                if self._assign[var] == _UNASSIGNED and self._activity[var] > best_act:
                    best = var
                    best_act = self._activity[var]
            return best
        # Lazy-deletion heap: entries for assigned vars are discarded,
        # entries whose recorded activity went stale (bump since push, or
        # a rescale) are refreshed and re-pushed.  Because every bump
        # pushes a fresh entry, a variable's priority is never
        # under-represented, so the first exact entry that surfaces is the
        # true (max activity, lowest index) choice — identical to the
        # linear scan's tie-breaking.
        heap = self._order_heap
        assign = self._assign
        activity = self._activity
        while heap:
            neg_act, var = heap[0]
            if assign[var] != _UNASSIGNED:
                heappop(heap)
            elif -neg_act != activity[var]:
                heappop(heap)
                heappush(heap, (-activity[var], var))
            else:
                return var
        return 0

    # -- main loop ----------------------------------------------------------

    def solve(self, assumptions: Iterable[int] = ()) -> SolveResult:
        """Solve the current clause set, optionally under unit assumptions.

        Assumptions are enqueued as pseudo-decisions below all real
        decisions; an UNSAT answer under assumptions means the clause set
        together with the assumptions is unsatisfiable (the clause set
        alone may still be satisfiable).

        In incremental mode, consecutive calls sharing an assumption
        prefix keep that part of the trail (and everything propagated or
        decided above it when the assumption sets are identical) instead
        of re-propagating from scratch; a SAT answer also leaves the
        satisfying trail in place so the next call — typically after a
        blocking clause lands — resumes the enumeration mid-search.
        """
        self.stats = SolverStats()
        # Credit this call with the add-time preprocessing done since the
        # previous solve (the per-call stats reset must not lose it).
        self.stats.preprocessed_clauses = self._pending_preprocessed
        self._pending_preprocessed = 0
        if self._root_conflict:
            return SolveResult(satisfiable=False, stats=self.stats)

        wanted = [int(lit) for lit in assumptions]
        for lit in wanted:
            self._ensure_var(abs(lit))

        if self._incremental:
            # Keep the longest trail prefix whose assumption levels match.
            k = 0
            installed = self._assumptions
            while k < len(wanted) and k < len(installed) and installed[k] == wanted[k]:
                k += 1
            if k < len(installed) or len(wanted) > k:
                # Either a mismatched assumption must be undone, or new
                # assumption levels must be pushed above level k: rewind
                # exactly to the shared prefix.
                self._backtrack(k)
            if k:
                self.stats.assumption_prefix_reused += 1
            if (
                self._dead_sweep_pending
                and self._decision_level() == 0
                and len(self._trail) >= max(64, 2 * self._swept_trail_len)
            ):
                self._sweep_root_satisfied()
        else:
            self._backtrack(0)
            conflict = self._propagate()
            if conflict is not None:
                self._root_conflict = True
                return SolveResult(satisfiable=False, stats=self.stats)
            k = 0

        num_assumptions = len(wanted)
        for lit in wanted[k:]:
            conflict = self._propagate()
            if conflict is not None:
                # Conflict while every decision level is an assumption
                # level: UNSAT under the assumption set (root-UNSAT when
                # there are no assumption levels yet).
                if self._decision_level() == 0:
                    self._root_conflict = True
                self._backtrack(0)
                return SolveResult(satisfiable=False, stats=self.stats)
            self._trail_lim.append(len(self._trail))
            if self._incremental:
                self._assumptions.append(lit)
            if not self._enqueue(lit, None):
                self._backtrack(0)
                return SolveResult(satisfiable=False, stats=self.stats)

        restart_limit = (
            _RESTART_FIRST * _luby(1)
            if self._restart_strategy == "luby"
            else _RESTART_FIRST
        )
        restart_count = 0
        conflicts_since_restart = 0
        learned_limit = max(
            int(_LEARNED_LIMIT_FACTOR * max(len(self._clauses), 1)), 100
        )

        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.stats.conflicts += 1
                conflicts_since_restart += 1
                if self._decision_level() <= num_assumptions:
                    self._backtrack(0)
                    if num_assumptions == 0:
                        self._root_conflict = True
                    return SolveResult(satisfiable=False, stats=self.stats)
                learned, back_level = self._analyze(conflict)
                self._backtrack(max(back_level, num_assumptions))
                if not self._record_learned(learned):
                    self._backtrack(0)
                    if num_assumptions == 0:
                        self._root_conflict = True
                    return SolveResult(satisfiable=False, stats=self.stats)
                self._decay_var_activity()
                self._cla_inc /= _CLAUSE_DECAY
                if conflicts_since_restart >= restart_limit:
                    self.stats.restarts += 1
                    restart_count += 1
                    conflicts_since_restart = 0
                    if self._restart_strategy == "luby":
                        restart_limit = _RESTART_FIRST * _luby(restart_count + 1)
                    else:
                        restart_limit = int(restart_limit * _RESTART_FACTOR)
                    self._backtrack(num_assumptions)
                if len(self._learned) > learned_limit:
                    self._reduce_learned()
                    learned_limit = int(learned_limit * 1.1)
                continue

            var = self._pick_branch_var()
            if var == 0:
                model = {
                    v: self._assign[v] == _TRUE for v in range(1, self._num_vars + 1)
                }
                if not self._incremental:
                    self._backtrack(0)
                return SolveResult(satisfiable=True, model=model, stats=self.stats)
            self.stats.decisions += 1
            self._trail_lim.append(len(self._trail))
            self.stats.max_decision_level = max(
                self.stats.max_decision_level, self._decision_level()
            )
            # Phase saving: re-explore the neighbourhood of the last
            # assignment (after restarts and across incremental solves).
            self._enqueue(var if self._saved_phase[var] else -var, None)


def _luby(i: int) -> int:
    """The i-th element (1-based) of the Luby restart sequence
    1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,... [Luby, Sinclair, Zuckerman 1993]."""
    while True:
        k = 1
        while (1 << k) - 1 < i:
            k += 1
        if (1 << k) - 1 == i:
            return 1 << (k - 1)
        i = i - (1 << (k - 1)) + 1


def solve_cnf(formula: CNF, assumptions: Iterable[int] = ()) -> SolveResult:
    """One-shot convenience wrapper used widely in tests."""
    return CDCLSolver(formula).solve(assumptions=assumptions)
