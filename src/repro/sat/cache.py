"""SAT-level query memoization: the cold-run accelerator.

The engine's file-level :class:`~repro.engine.cache.ResultCache` only
pays off when an *identical file* is re-audited.  Real PHP corpora (and
the Figure-10 generator) are full of structurally identical code shapes
under different identifier names: every such file re-runs the same CDCL
queries against a CNF that differs only in absolute variable indices.
This module memoizes at that level.

**Canonical CNF fingerprint.**  A :class:`CachingSatSolver` observes the
exact clause stream fed to the backend solver and renames variables by
first occurrence (clauses in insertion order, literals in clause order).
Two clause streams that are identical up to a variable renaming that
preserves emission order — which is what the deterministic
filter → AI → Tseitin pipeline produces for repeated code shapes — hash
to the same SHA-256 fingerprint.  The hash is maintained *incrementally*
(one update per added clause, ``hash.copy()`` per query), so a solve
call costs O(new clauses + assumptions) to fingerprint, not O(formula).
Each ``solve(assumptions)`` query is keyed by the running clause-stream
hash extended with the canonically renamed assumptions, which makes the
whole blocked-enumeration sequence of the BMC checker cacheable: the
k-th query of an assertion's counterexample loop in file B hits the
entry the k-th query in shape-identical file A stored.

**Stored outcome.**  ``UNSAT`` entries store the verdict alone; ``SAT``
entries store the model restricted to the canonical variables, renamed.
On a hit the model is renamed back through the (bijective) canonical map
and completed with ``False`` for variables that appear in no clause —
exactly the value both backend solvers assign to unconstrained
variables, so replayed enumerations are verdict- and trace-identical to
solved ones.

**Packs.**  :class:`SatQueryCache` is the store: an in-memory LRU for
one process/run plus optional on-disk persistence.  The unit of
persistence is the checked program, not the query: the BMC checker
solves one formula per program and enumerates its counterexamples over
one clause stream, so all of a program's queries share the key of its
first query (the hash of the whole encoded formula plus the first
assumption).  That key names the program's *pack*,
``<dir>/<p[:2]>/<p>.json``, a JSON object mapping each full query key
to its record.  A :class:`CachingSatSolver` reads its pack into the LRU
on its first ``solve`` (one read); after that every lookup and store is
memory-only, and :meth:`CachingSatSolver.save_pack` writes the pack
back once, atomically, only if the program solved a query.  A pack
only pre-loads records: each record is still looked up by its full
query key, so a pack can never answer a query it does not hold, and a
corrupt pack is evicted whole, never served.  Keys embed
:data:`SAT_CACHE_VERSION` and the backend name, so format changes and
backend-specific models never alias.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections import OrderedDict
from collections.abc import Iterable
from pathlib import Path

from repro.sat.cnf import CNF
from repro.sat.solver import SolveResult, SolverStats

__all__ = ["SAT_CACHE_VERSION", "SatQueryCache", "CachingSatSolver"]

#: Bump whenever the fingerprint scheme or record layout changes; stale
#: on-disk entries then become misses instead of wrong answers.
#: (2: learned-clause records joined the keyspace and the CDCL backend
#: became incremental, which changes the counters embedded in records;
#: 3: one pack per checked program replaced one file per query, and the
#: learned-clause records left the keyspace;
#: 4: the BMC encoder folds constants, so its canonical CNFs changed.)
SAT_CACHE_VERSION = "4"


class SatQueryCache:
    """Fingerprint → solve-outcome store shared across solver instances.

    ``get`` and ``put`` work on an in-memory LRU bounded by
    ``max_entries``.  With ``persist_dir`` set, :meth:`load_pack` and
    :meth:`save_pack` move one program's records between the LRU and its
    pack file (atomic temp-file + rename, tolerating concurrent
    writers).  Picklable: the LRU contents are dropped on pickling so
    shipping the cache to spawn-start workers stays cheap — workers
    re-warm from their packs.
    """

    def __init__(self, persist_dir: str | Path | None = None, max_entries: int = 65536) -> None:
        self.persist_dir = Path(persist_dir) if persist_dir is not None else None
        self.max_entries = max_entries
        self._memo: OrderedDict[str, dict] = OrderedDict()
        #: Process-local probe counters (informational; the per-solve
        #: counters that feed reports live in SolverStats).
        self.hits = 0
        self.misses = 0

    # -- pickling ---------------------------------------------------------

    def __getstate__(self) -> dict:
        return {
            "persist_dir": self.persist_dir,
            "max_entries": self.max_entries,
        }

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["persist_dir"], state["max_entries"])

    # -- records ----------------------------------------------------------

    @staticmethod
    def _valid(record: object) -> bool:
        return (
            isinstance(record, dict)
            and isinstance(record.get("sat"), bool)
            and isinstance(record.get("true"), list)
            and all(isinstance(v, int) for v in record["true"])
        )

    def get(self, key: str) -> dict | None:
        record = self._memo.get(key)
        if record is None:
            self.misses += 1
            return None
        self._memo.move_to_end(key)
        self.hits += 1
        return record

    def put(self, key: str, record: dict) -> None:
        self._remember(key, record)

    def _remember(self, key: str, record: dict) -> None:
        self._memo[key] = record
        self._memo.move_to_end(key)
        while len(self._memo) > self.max_entries:
            self._memo.popitem(last=False)

    def __len__(self) -> int:
        return len(self._memo)

    # -- packs ------------------------------------------------------------

    def _pack_path(self, pack: str) -> Path:
        assert self.persist_dir is not None
        return self.persist_dir / pack[:2] / f"{pack}.json"

    def load_pack(self, pack: str) -> dict[str, dict]:
        """Read pack ``pack`` into the LRU and return its records.

        A missing pack (or no ``persist_dir``) loads nothing.  A pack
        that is not a JSON object of valid records is unlinked and loads
        nothing: one bad record condemns the whole file.  Loading is not
        a lookup or a store: it bypasses ``get``/``put`` and their
        counters."""
        if self.persist_dir is None:
            return {}
        path = self._pack_path(pack)
        try:
            records = json.loads(path.read_text())
        except FileNotFoundError:
            return {}
        except (OSError, ValueError):
            records = None
        if not (
            isinstance(records, dict)
            and all(self._valid(record) for record in records.values())
        ):
            try:
                path.unlink()
            except OSError:
                pass
            return {}
        for key, record in records.items():
            self._remember(key, record)
        return records

    def save_pack(self, pack: str, records: dict[str, dict]) -> None:
        """Write ``records`` as pack ``pack``, replacing any older copy.

        Best-effort: a failed write leaves the LRU as it was and costs
        the next run misses, never a wrong answer."""
        if self.persist_dir is None:
            return
        path = self._pack_path(pack)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(json.dumps(records, separators=(",", ":")))
                os.replace(tmp, path)
            except OSError:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
        except OSError:
            pass


class CachingSatSolver:
    """Memoizing facade over a backend solver.

    Implements the incremental-solver surface the BMC checker uses
    (``add_formula`` / ``add_clause`` / ``solve(assumptions)``) and
    delegates to ``inner`` (a :class:`~repro.sat.solver.CDCLSolver` or
    :class:`~repro.sat.dpll.IncrementalDPLL`) on misses.  Hits skip the
    backend entirely and replay the stored model through the inverse
    canonical renaming.  Per-call :class:`SolverStats` report exactly one
    of ``cache_hits``/``cache_misses`` per solve, so existing stats
    plumbing surfaces the hit rate end to end.
    """

    def __init__(
        self,
        inner,
        cache: SatQueryCache,
        backend: str = "cdcl",
    ) -> None:
        self._inner = inner
        self._cache = cache
        self._canon: dict[int, int] = {}  # original var -> canonical var
        self._max_var = 0
        #: Clauses not yet fed to ``inner``: the backend is materialized
        #: lazily, on the first cache *miss*.  A fully-warm enumeration
        #: never pays the backend's clause-database / watch-list setup —
        #: on repeated-shape corpora that setup dominates the hit path.
        self._pending: list[CNF | tuple[int, ...]] = []
        seed = hashlib.sha256()
        seed.update(b"repro-sat-cache\x00")
        seed.update(SAT_CACHE_VERSION.encode())
        seed.update(b"\x00")
        seed.update(backend.encode())
        seed.update(b"\x00")
        self._hash = seed
        self.stats = SolverStats()
        #: Canonical-CNF fingerprint of the most recent solve() — the slow-
        #: query ledger's query identity, stable across files and runs.
        self.last_query_key: str | None = None
        #: This program's pack: named by its first query key, holding the
        #: records read from disk plus every record this solver looked up
        #: or stored since.  ``_dirty`` is set once a query was solved.
        self._pack: str | None = None
        self._pack_records: dict[str, dict] = {}
        self._dirty = False

    # -- canonicalization --------------------------------------------------

    def _feed(self, literals: Iterable[int]) -> None:
        canon = self._canon
        parts: list[str] = []
        max_var = self._max_var
        for lit in literals:
            var = abs(lit)
            if var > max_var:
                max_var = var
            c = canon.get(var)
            if c is None:
                c = len(canon) + 1
                canon[var] = c
            parts.append(str(c) if lit > 0 else str(-c))
        self._max_var = max_var
        self._hash.update(",".join(parts).encode())
        self._hash.update(b";")

    # -- solver surface ----------------------------------------------------

    def add_formula(self, formula: CNF) -> None:
        for clause in formula.clauses:
            self._feed(clause)
        self._max_var = max(self._max_var, formula.num_vars)
        self._pending.append(formula)

    def add_clause(self, literals: Iterable[int]) -> None:
        lits = tuple(literals)
        self._feed(lits)
        self._pending.append(lits)

    def _flush(self) -> None:
        for item in self._pending:
            if isinstance(item, CNF):
                self._inner.add_formula(item)
            else:
                self._inner.add_clause(item)
        self._pending.clear()

    def solve(self, assumptions: Iterable[int] = ()) -> SolveResult:
        assumptions = tuple(assumptions)
        key = self._query_key(assumptions)
        # Exposed for observability: the BMC checker records this as the
        # slow-query ledger fingerprint, tying hard queries back to their
        # canonical-CNF cache entries.
        self.last_query_key = key
        if self._pack is None:
            self._pack = key
            self._pack_records = self._cache.load_pack(key)
        record = self._cache.get(key)
        if record is not None:
            self._pack_records[key] = record
            self.stats = SolverStats(cache_hits=1)
            if not record["sat"]:
                return SolveResult(satisfiable=False, stats=self.stats)
            return SolveResult(
                satisfiable=True,
                model=self._replay_model(record["true"], assumptions),
                stats=self.stats,
            )
        self._flush()
        result = self._inner.solve(assumptions=assumptions)
        self.stats = result.stats
        result.stats.cache_misses += 1
        if result.satisfiable:
            self._store(
                key,
                {
                    "sat": True,
                    "true": sorted(
                        c for orig, c in self._canon.items() if result.model.get(orig)
                    ),
                },
            )
        else:
            self._store(key, {"sat": False, "true": []})
        return result

    def _store(self, key: str, record: dict) -> None:
        self._cache.put(key, record)
        self._pack_records[key] = record
        self._dirty = True

    def save_pack(self) -> None:
        """Persist this program's pack: one write, and only if a query was
        solved (a fully-warm program writes nothing).  The pack is the
        union of what was loaded and every record this solver used, so
        programs sharing a first query accumulate into one pack."""
        if self._dirty and self._pack is not None:
            self._cache.save_pack(self._pack, self._pack_records)
            self._dirty = False

    def _query_key(self, assumptions: tuple[int, ...]) -> str:
        """Clause-stream hash extended with the renamed assumptions.

        Assumption variables that never appeared in a clause get
        per-query overlay ids (not committed to the canonical map, so a
        later clause mentioning them still canonicalizes identically
        whether or not this query happened).
        """
        query = self._hash.copy()
        overlay: dict[int, int] = {}
        parts: list[str] = []
        for lit in assumptions:
            var = abs(lit)
            c = self._canon.get(var)
            if c is None:
                c = overlay.get(var)
                if c is None:
                    c = len(self._canon) + len(overlay) + 1
                    overlay[var] = c
            parts.append(str(c) if lit > 0 else str(-c))
        query.update(b"|")
        query.update(",".join(parts).encode())
        return query.hexdigest()

    def _replay_model(
        self, true_canon: list[int], assumptions: tuple[int, ...]
    ) -> dict[int, bool]:
        true_set = set(true_canon)
        model = {orig: c in true_set for orig, c in self._canon.items()}
        for var in range(1, self._max_var + 1):
            model.setdefault(var, False)
        # Assumption variables outside every clause are unconstrained
        # except by the assumption itself; honor it.
        for lit in assumptions:
            if abs(lit) not in self._canon:
                model[abs(lit)] = lit > 0
        return model
