"""Bounded top-K ledger of the hardest SAT queries seen by an audit.

Each BMC check times every per-assertion SAT solve and feeds the record
into a :class:`SlowQueryLedger` — a min-heap that keeps only the K most
expensive queries, so per-file and run-wide ledgers stay O(K) no
matter how many queries an audit issues.

Record schema (all keys optional except ``seconds``)::

    {
        "seconds": 0.731,          # solve wall time
        "file": "guestbook.php",   # audited file (attached by the engine)
        "assert_id": 3,            # assertion index within the file
        "iteration": 2,            # counterexample-enumeration round
        "decisions": 1842,         # solver decisions for this query
        "conflicts": 97,           # solver conflicts for this query
        "satisfiable": true,
        "backend": "cdcl",
        "fingerprint": "ab12...",  # canonical-CNF SHA-256 (sat cache key)
    }

Each file record carries its own ledger; the engine merges them into the
run-wide one that rides the JSONL stats trailer (``"slow_queries":
[...]``) and that ``repro report`` prints.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator

__all__ = ["SlowQueryLedger", "DEFAULT_CAPACITY"]

#: Default number of queries a ledger retains.
DEFAULT_CAPACITY = 16


class SlowQueryLedger:
    """Keep the ``capacity`` slowest query records by ``seconds``."""

    __slots__ = ("capacity", "_heap", "_seq")

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("ledger capacity must be >= 1")
        self.capacity = capacity
        # Min-heap of (seconds, insertion seq, record): the root is the
        # cheapest retained query and the first evicted.  The seq tiebreaks
        # equal times so heapq never compares the record dicts.
        self._heap: list[tuple[float, int, dict]] = []
        self._seq = 0

    def observe(self, record: dict) -> None:
        """Consider one query record for retention."""
        seconds = float(record.get("seconds", 0.0))
        entry = (seconds, self._seq, record)
        self._seq += 1
        if len(self._heap) < self.capacity:
            heapq.heappush(self._heap, entry)
        elif seconds > self._heap[0][0]:
            heapq.heapreplace(self._heap, entry)

    def merge(self, records: Iterable[dict] | None) -> None:
        """Fold another ledger's records (e.g. from a JSONL trailer) in."""
        for record in records or ():
            if isinstance(record, dict):
                self.observe(record)

    def records(self) -> list[dict]:
        """Retained records, most expensive first."""
        ordered = sorted(self._heap, key=lambda entry: (-entry[0], entry[1]))
        return [record for _seconds, _seq, record in ordered]

    def __len__(self) -> int:
        return len(self._heap)

    def __iter__(self) -> Iterator[dict]:
        return iter(self.records())

    def __bool__(self) -> bool:
        return bool(self._heap)
