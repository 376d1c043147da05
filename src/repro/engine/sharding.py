"""Deterministic corpus sharding for ``repro audit --shard i/n``.

Splitting an audit across n machines needs a partition that is:

* **disjoint and exhaustive** — every entry lands on exactly one shard,
  so n shard audits merged together equal one whole-corpus audit;
* **coordination-free** — each machine computes its own subset from
  nothing but the corpus and its shard spec (the shared cache directory
  already tolerates concurrent writers, so shards need no locking);
* **cheap to decide** — an entry is assigned by its own bytes, before
  its include scan, so a machine scans and verifies only its own
  entries.

The assignment is ``sha256(salt ‖ content) mod n`` over the entry's own
source.  It is stable under renames and under edits to other files,
including the files an entry includes.  It is not a cache-sharing rule:
an entry's result-cache key also covers its include closure and its
project-relative name, so two entries with the same bytes share a shard
but not necessarily a cache entry.

Shard specs are written ``i/n`` with 1-based ``i`` (``--shard 2/4`` =
the second of four shards); internally assignments are 0-based.
"""

from __future__ import annotations

import hashlib

__all__ = ["assign_shard", "parse_shard"]

#: Domain separator: shard assignment must not collide with the other
#: sha256 keyings in the codebase (cache keys, CNF fingerprints).
_SALT = b"repro-shard\x00"


def parse_shard(spec: str) -> tuple[int, int]:
    """Parse ``"i/n"`` into 0-based ``(index, count)``.

    >>> parse_shard("2/4")
    (1, 4)
    """
    index_text, sep, count_text = spec.partition("/")
    try:
        if not sep:
            raise ValueError(spec)
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise ValueError(f"invalid shard spec {spec!r} (want I/N, e.g. 2/4)")
    if count < 1:
        raise ValueError(f"invalid shard spec {spec!r}: shard count must be >= 1")
    if not 1 <= index <= count:
        raise ValueError(
            f"invalid shard spec {spec!r}: index must be between 1 and {count}"
        )
    return index - 1, count


def assign_shard(content: str | bytes, count: int) -> int:
    """The 0-based shard owning ``content`` in an ``count``-way split.

    Pure content hash: independent of filename, corpus composition, and
    every analyzer option, so all participants agree without talking.
    """
    if count < 1:
        raise ValueError(f"shard count must be >= 1, got {count}")
    if isinstance(content, str):
        content = content.encode()
    digest = hashlib.sha256(_SALT + content).digest()
    return int.from_bytes(digest[:8], "big") % count
