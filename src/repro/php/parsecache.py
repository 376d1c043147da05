"""Content-hash-keyed parse memo and the include graph.

A corpus audit parses the same shared prelude once per entry per run,
and every entry's include scan parses the files its verification then
splices.  Both would parse the same text several times.  An AST is a deterministic
function of (source text, filename), and every AST node is a frozen
dataclass — immutable and safely shared between consumers.
:class:`ParseCache` memoizes ``parse`` on exactly that function, in
memory, for one process: each request parses each file once.  Nothing is
written to disk; re-parsing is cheaper than reading a stored tree back,
and the cache directory holds only plain data.

:class:`IncludeGraph` is the other half of the layer: an in-memory
record of ``includer → included`` edges (with the content hash each file
had when scanned), built from :func:`repro.php.includes.scan_includes`
results.  Its reverse closure answers the daemon's invalidation
question — "a shared library changed; which entries must re-audit?".
It is never written to disk: the first cycle of every ``repro watch``
process audits every file, which rebuilds it.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from collections.abc import Iterable
from pathlib import Path

from repro.php import ast_nodes as ast
from repro.php.parser import parse

__all__ = [
    "ParseCache",
    "IncludeGraph",
    "content_digest",
]


def content_digest(text: str) -> str:
    """SHA-256 of one file's source text (the graph's edge stamp)."""
    return hashlib.sha256(text.encode()).hexdigest()


class ParseCache:
    """``(source, filename) → Program`` memo, one parse per content hash.

    The filename is part of the key because every span in the tree embeds
    it — two files with identical text must not serve each other's spans.
    Shared preludes keep their path across entries, so cross-entry reuse
    is unaffected.

    An in-memory LRU bounded by ``max_entries``.  Forked workers inherit
    it filled.  Pickling drops the memo, so shipping the cache to
    spawn-start workers stays cheap; each of them fills its own.
    """

    def __init__(self, persist_dir: str | Path | None = None, max_entries: int = 4096) -> None:
        # ``persist_dir`` is accepted and ignored: the cache no longer
        # writes to disk, but the pipeline benchmark's timed subclass
        # (bench/replica.py) still passes it.
        self.max_entries = max_entries
        self._memo: OrderedDict[str, ast.Program] = OrderedDict()
        #: Process-local probe counters; per-outcome deltas feed the
        #: engine's ``includes`` record field and ``/metrics``.
        self.hits = 0
        self.misses = 0

    def __getstate__(self) -> dict:
        return {"max_entries": self.max_entries}

    def __setstate__(self, state: dict) -> None:
        self.__init__(max_entries=state["max_entries"])

    @staticmethod
    def key(source: str, filename: str) -> str:
        digest = hashlib.sha256()
        digest.update(b"repro-parse\x00")
        digest.update(filename.encode())
        digest.update(b"\x00")
        digest.update(source.encode())
        return digest.hexdigest()

    def parse(self, source: str, filename: str = "<string>") -> ast.Program:
        """Drop-in for :func:`repro.php.parser.parse` (parse errors
        propagate unchanged; only successful parses are cached)."""
        key = self.key(source, filename)
        memo = self._memo
        program = memo.get(key)
        if program is not None:
            memo.move_to_end(key)
            self.hits += 1
            return program
        self.misses += 1
        program = parse(source, filename)
        memo[key] = program
        if len(memo) > self.max_entries:
            memo.popitem(last=False)
        return program


class IncludeGraph:
    """In-memory ``includer → included`` edges with content-hash stamps.

    One node per normalized project-relative path; :meth:`update_file`
    replaces a file's out-edges wholesale (an include scan is the full
    truth about that file), :meth:`remove_file` drops a deleted file's
    node.  :meth:`includers_of` walks the reverse edges transitively —
    the daemon's invalidation rule: every entry whose splice could have
    contained a dirty file must re-audit.
    """

    def __init__(self) -> None:
        #: path → set of paths it includes (directly).
        self._out: dict[str, set[str]] = {}
        #: path → set of paths that include it (directly).
        self._in: dict[str, set[str]] = {}
        #: path → content digest at last scan.
        self._digests: dict[str, str] = {}

    # -- mutation ---------------------------------------------------------

    def update_file(
        self, path: str, includes: Iterable[str], digest: str | None = None
    ) -> None:
        """Replace ``path``'s out-edges with ``includes`` (its full,
        current direct-include set)."""
        new = set(includes)
        for old in self._out.get(path, set()) - new:
            self._in.get(old, set()).discard(path)
        for added in new:
            self._in.setdefault(added, set()).add(path)
        self._out[path] = new
        if digest is not None:
            self._digests[path] = digest

    def remove_file(self, path: str) -> None:
        for target in self._out.pop(path, set()):
            self._in.get(target, set()).discard(path)
        self._digests.pop(path, None)
        # Keep reverse edges pointing AT the removed path: its includers
        # spliced it and must re-audit when asked via includers_of.

    # -- queries ----------------------------------------------------------

    def includes_of(self, path: str) -> set[str]:
        """Direct include targets of ``path``."""
        return set(self._out.get(path, set()))

    def includers_of(self, paths: Iterable[str]) -> set[str]:
        """Every file that transitively includes any of ``paths``
        (the given paths themselves are not in the answer unless they
        also include one another)."""
        stale: set[str] = set()
        frontier = list(paths)
        while frontier:
            current = frontier.pop()
            for includer in self._in.get(current, set()):
                if includer not in stale:
                    stale.add(includer)
                    frontier.append(includer)
        return stale

    def digest_of(self, path: str) -> str | None:
        return self._digests.get(path)

    @property
    def edge_count(self) -> int:
        return sum(len(targets) for targets in self._out.values())

    def __len__(self) -> int:
        return len(self._out)
