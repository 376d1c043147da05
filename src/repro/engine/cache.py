"""Content-addressed on-disk result cache.

A verdict for a PHP file is a pure function of (a) the source text, (b)
the policy — prelude plus analyzer options — and (c) the analyzer
implementation itself.  The cache key is therefore the SHA-256 of all
three, so re-auditing an unchanged corpus is a directory of O(1) lookups
and editing either a file or the policy invalidates exactly the entries
it should.

Layout (git-object style fan-out to keep directories small)::

    <root>/objects/<key[:2]>/<key>.json

Entries are JSON records written atomically (temp file + rename) so a
killed audit never leaves a truncated entry; unreadable or corrupt
entries are treated as misses and evicted.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections import OrderedDict
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.websari.pipeline import WebSSARI

__all__ = [
    "ENGINE_VERSION",
    "HotResultCache",
    "ResultCache",
    "cache_key",
    "default_cache_dir",
    "policy_fingerprint",
]

#: Bump whenever a pipeline change can alter verdicts: every cached
#: entry keyed under an older version silently becomes a miss.
#: (2: records gained per-file SAT-solver counters.
#:  3: SolverStats grew sat-cache and preprocessing counters, and the
#:  CDCL solver gained add-time preprocessing + LBD-aware reduction,
#:  both of which change the counters embedded in records.
#:  4: records gained the per-file slow-query ledger.
#:  5: the CDCL solver became incremental (trail/VSIDS/learned-clause
#:  retention across the enumeration, gate retirement sweeps, learned
#:  clause import) and a racing backend landed — verdicts are
#:  unchanged but every embedded counter is.
#:  6: records gained the per-file ``includes`` section and project
#:  entries switched from whole-project to closure-scoped cache keys —
#:  old whole-project entries must become clean misses.
#:  7: records gained the per-file ``replay`` section (concrete witness
#:  replay verdicts) — pre-replay entries must become clean misses.
#:  8: the ``solver`` record section lost the ``learned_imported``
#:  counter when learned-clause exchange was deleted.
#:  9: the ``solver`` record section lost the LBD-deletion and
#:  racing-backend counters when those mechanisms were deleted.
#:  10: the BMC encoder folds constants, which changes the formula sizes
#:  and solver counters embedded in records.)
ENGINE_VERSION = "10"

#: Cache record schema version (independent of verdict semantics).
_RECORD_VERSION = 1


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro-audit``, else
    ``~/.cache/repro-audit``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-audit"


def policy_fingerprint(websari: "WebSSARI") -> str:
    """Digest of everything besides the source that determines a verdict:
    the prelude's function/superglobal tables, the lattice structure, and
    the analyzer options."""
    from repro.policy.preludefile import render_prelude

    lattice = websari.prelude.lattice
    elements = sorted(str(e) for e in lattice.elements)
    covers = sorted((str(a), str(b)) for a, b in lattice.covers())  # type: ignore[attr-defined]
    payload = json.dumps(
        {
            "prelude": render_prelude(websari.prelude),
            "lattice": {"elements": elements, "covers": covers},
            "options": {
                "accumulate": websari.accumulate,
                "max_counterexamples": websari.max_counterexamples,
                "max_unfold_depth": websari.max_unfold_depth,
                "sanitize_in_place": websari.sanitize_in_place,
                # Both backends must agree on verdicts, but cached records
                # embed per-backend solver counters, so key them apart.
                "solver": websari.solver,
                # Same coherence rule for the SAT-level query cache: it
                # never changes verdicts, but records embed its hit/miss
                # counters, so runs with and without it must not alias.
                "sat_cache": websari.sat_cache is not None,
                # Restart schedule and VSIDS/phase seed steer the search
                # order: verdict-neutral, counter-visible — same rule.
                "restart_strategy": websari.restart_strategy,
                "sat_seed": websari.sat_seed,
                # Ablation switch for the incremental machinery: verdicts
                # agree either way, embedded counters do not.
                "sat_incremental": websari.sat_incremental,
                # Witness replay adds the ``replay`` section to records:
                # verdict-neutral, record-visible — runs with and without
                # it must not serve each other's entries.
                "replay": websari.replay,
            },
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def cache_key(source: str, policy_fp: str, extra: str = "") -> str:
    """SHA-256 over engine version + policy fingerprint + source text.

    ``extra`` distinguishes task shapes that share source text (e.g. a
    project entry point vs. the same file audited standalone).
    """
    digest = hashlib.sha256()
    digest.update(b"repro-audit\x00")
    digest.update(ENGINE_VERSION.encode())
    digest.update(b"\x00")
    digest.update(policy_fp.encode())
    digest.update(b"\x00")
    digest.update(extra.encode())
    digest.update(b"\x00")
    digest.update(source.encode())
    return digest.hexdigest()


class ResultCache:
    """Content-addressed store of per-file audit records."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self._objects = self.root / "objects"

    def _path(self, key: str) -> Path:
        return self._objects / key[:2] / f"{key}.json"

    def get(self, key: str) -> dict | None:
        """Return the stored record, or None (corrupt entries are evicted)."""
        path = self._path(key)
        try:
            record = json.loads(path.read_text())
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            self._evict(path)
            return None
        if not isinstance(record, dict) or record.get("record_version") != _RECORD_VERSION:
            self._evict(path)
            return None
        return record

    def put(self, key: str, record: dict) -> None:
        """Store ``record`` under ``key``.

        Best-effort: a cache directory that cannot take the write (not a
        directory, read-only, full) leaves the run uncached, never
        aborted."""
        path = self._path(key)
        payload = dict(record)
        payload["record_version"] = _RECORD_VERSION
        try:
            try:
                fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
            except FileNotFoundError:
                # The key's fan-out directory is new: make it once.
                path.parent.mkdir(parents=True, exist_ok=True)
                fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        except OSError:
            return
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(json.dumps(payload, sort_keys=True))
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass

    @staticmethod
    def _evict(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass

    def __len__(self) -> int:
        if not self._objects.is_dir():
            return 0
        return sum(1 for _ in self._objects.glob("*/*.json"))


class HotResultCache(ResultCache):
    """A :class:`ResultCache` with a process-lifetime in-memory layer.

    Built for long-running processes (the ``repro watch`` daemon) that
    probe the same keys every poll cycle: a key served once from disk is
    answered from memory afterwards, so an idle watch cycle over N files
    costs N dict lookups, not N file reads.  Writes go to both layers;
    the memo is LRU-bounded so a daemon watching a huge, churning tree
    cannot grow without bound.  Disk stays the source of truth — other
    processes sharing the directory see every entry this one writes.
    """

    def __init__(self, root: str | Path, max_entries: int = 65536) -> None:
        super().__init__(root)
        self.max_entries = max_entries
        self._memo: OrderedDict[str, dict] = OrderedDict()
        self.hot_hits = 0
        self.disk_hits = 0

    def get(self, key: str) -> dict | None:
        record = self._memo.get(key)
        if record is not None:
            self._memo.move_to_end(key)
            self.hot_hits += 1
            return record
        record = super().get(key)
        if record is not None:
            self.disk_hits += 1
            self._remember(key, record)
        return record

    def put(self, key: str, record: dict) -> None:
        super().put(key, record)
        payload = dict(record)
        payload["record_version"] = _RECORD_VERSION
        self._remember(key, payload)

    def _remember(self, key: str, record: dict) -> None:
        self._memo[key] = record
        self._memo.move_to_end(key)
        while len(self._memo) > self.max_entries:
            self._memo.popitem(last=False)
