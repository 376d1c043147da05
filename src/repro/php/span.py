"""Source locations and spans.

Every token, AST node, IR command, and AI instruction carries a
:class:`Span` so that error reports can point at concrete file/line/column
positions and the instrumentor can splice sanitization guards back into
the original source text at exact byte offsets (paper §4 — runtime guards
are inserted into the verified PHP files).
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["Position", "Span"]


class Position(NamedTuple):
    """A point in a source file: 0-based byte offset, 1-based line/column."""

    offset: int
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class Span(NamedTuple):
    """A half-open range [start, end) within a named source file."""

    filename: str
    start: Position
    end: Position

    @classmethod
    def point(cls, filename: str, offset: int, line: int, column: int) -> "Span":
        pos = Position(offset, line, column)
        return cls(filename, pos, pos)

    @classmethod
    def synthetic(cls, label: str = "<synthetic>") -> "Span":
        """Span for generated code that has no source location."""
        return cls.point(label, 0, 0, 0)

    def merge(self, other: "Span") -> "Span":
        """Smallest span covering both; filenames must agree.  On equal
        offsets the endpoint of ``self`` wins."""
        if self.filename != other.filename:
            # Spans from different files (e.g. across an include boundary)
            # keep the earlier file's identity.
            return self
        start, end = self.start, self.end
        if other.start.offset < start.offset:
            start = other.start
        if other.end.offset > end.offset:
            end = other.end
        return Span(self.filename, start, end)

    @property
    def line(self) -> int:
        return self.start.line

    def __str__(self) -> str:
        if self.start == self.end:
            return f"{self.filename}:{self.start}"
        return f"{self.filename}:{self.start}-{self.end}"
