"""Hierarchical span tracer — zero-dependency, thread- and process-safe.

A :class:`Span` is one timed operation (a pipeline stage, one SAT solve,
one assertion's enumeration); spans nest into trees via a per-thread
stack, so instrumented code never passes span objects around::

    tracer = Tracer()
    with tracer.span("sat") :
        with tracer.span("sat.solve", iteration=0) as sp:
            ...
            sp.set(decisions=42, conflicts=3)

Design points:

* **Monotonic clocks.**  Durations come from ``time.perf_counter``;
  absolute timestamps are reconstructed from one wall-clock anchor
  captured at tracer construction, so spans from different processes
  sort correctly on a shared timeline while individual durations are
  immune to wall-clock steps.
* **Thread safety.**  The active-span stack is ``threading.local``;
  finished root spans and span ids are guarded by a lock (ids also
  survive ``fork`` distinctly because every span records its pid).
* **Process safety.**  Span trees serialize to plain JSON-able dicts
  (:meth:`Span.to_dict` / :func:`span_from_dict`); audit workers ship
  their trees back to the scheduler with each outcome and the scheduler
  stitches them under per-file roots via :meth:`Tracer.add`.
* **Disabled mode is free.**  ``Tracer(enabled=False).span(...)``
  returns the module-level :data:`NULL_SPAN` singleton — no allocation,
  no clock reads — so always-on instrumentation costs one attribute
  check per call site.  :func:`get_tracer` defaults to the disabled
  :data:`NULL_TRACER`.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from contextlib import contextmanager

__all__ = [
    "NULL_SPAN",
    "NULL_TRACER",
    "Span",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "span_from_dict",
    "stage",
]


class Span:
    """One timed, attributed node of a trace tree.

    Not created directly — use :meth:`Tracer.span` (context manager) or
    :func:`span_from_dict` when deserializing.
    """

    __slots__ = ("name", "span_id", "start", "duration", "attrs", "children", "pid", "tid")

    def __init__(
        self,
        name: str,
        start: float = 0.0,
        duration: float = 0.0,
        attrs: dict | None = None,
        span_id: int = 0,
        pid: int = 0,
        tid: int = 0,
    ) -> None:
        self.name = name
        self.span_id = span_id
        #: Wall-clock epoch seconds (monotonic offset from the tracer anchor).
        self.start = start
        self.duration = duration
        self.attrs: dict = attrs if attrs is not None else {}
        self.children: list[Span] = []
        self.pid = pid
        self.tid = tid

    @property
    def end(self) -> float:
        return self.start + self.duration

    def set(self, **attrs) -> None:
        """Attach attributes (merged into any set at creation)."""
        self.attrs.update(attrs)

    def walk(self):
        """Yield this span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict:
        """JSON-able representation (recursive; inverse of
        :func:`span_from_dict`)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "start": self.start,
            "duration": self.duration,
            "attrs": dict(self.attrs),
            "pid": self.pid,
            "tid": self.tid,
            "children": [child.to_dict() for child in self.children],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, start={self.start:.6f}, "
            f"duration={self.duration:.6f}, children={len(self.children)})"
        )


def span_from_dict(payload: dict) -> Span:
    """Rebuild a :class:`Span` tree from :meth:`Span.to_dict` output."""
    span = Span(
        name=str(payload.get("name", "")),
        start=float(payload.get("start", 0.0)),
        duration=float(payload.get("duration", 0.0)),
        attrs=dict(payload.get("attrs") or {}),
        span_id=int(payload.get("span_id", 0)),
        pid=int(payload.get("pid", 0)),
        tid=int(payload.get("tid", 0)),
    )
    span.children = [span_from_dict(child) for child in payload.get("children") or ()]
    return span


class _NullSpan:
    """The do-nothing span: context manager + ``set`` that ignore everything."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> None:
        pass


#: Shared no-op span — ``Tracer(enabled=False).span(...)`` always returns
#: exactly this object.
NULL_SPAN = _NullSpan()


class _ActiveSpan:
    """Context manager that opens a real span on the tracer's thread stack."""

    __slots__ = ("_tracer", "_name", "_attrs", "_span")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._span: Span | None = None

    def __enter__(self) -> Span:
        self._span = self._tracer._open(self._name, self._attrs)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        assert self._span is not None
        if exc_type is not None:
            self._span.attrs.setdefault("error", exc_type.__name__)
        self._tracer._close(self._span)
        return False


class Tracer:
    """Collects span trees; hand out spans via :meth:`span`.

    Finished parentless spans accumulate in an internal root list;
    :meth:`take_roots` drains it (e.g. for serialization or export).
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._local = threading.local()
        self._roots: list[Span] = []
        self._ids = itertools.count(1)
        # One wall-clock anchor: absolute time = anchor + perf_counter().
        self._anchor = time.time() - time.perf_counter()

    # -- span lifecycle -----------------------------------------------------

    def now(self) -> float:
        """Monotonic-progressing epoch seconds."""
        return self._anchor + time.perf_counter()

    def span(self, name: str, **attrs):
        """Context manager for one timed operation (no-op when disabled)."""
        if not self.enabled:
            return NULL_SPAN
        return _ActiveSpan(self, name, attrs)

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, attrs: dict) -> Span:
        span = Span(
            name,
            start=self.now(),
            attrs=attrs,
            span_id=next(self._ids),
            pid=os.getpid(),
            tid=threading.get_ident(),
        )
        self._stack().append(span)
        return span

    def _close(self, span: Span) -> None:
        span.duration = self.now() - span.start
        stack = self._stack()
        # Tolerate exotic exits (generators, mismatched frames): unwind to
        # this span rather than corrupting the stack.
        while stack and stack[-1] is not span:
            stack.pop()
        if stack:
            stack.pop()
        if stack:
            stack[-1].children.append(span)
        else:
            with self._lock:
                self._roots.append(span)

    # -- assembling trees from elsewhere ------------------------------------

    def add(self, span: Span) -> None:
        """Attach an already-finished span tree (e.g. deserialized from a
        worker) under the current open span, or as a root."""
        if not self.enabled:
            return
        stack = getattr(self._local, "stack", None)
        if stack:
            stack[-1].children.append(span)
        else:
            with self._lock:
                self._roots.append(span)

    def take_roots(self) -> list[Span]:
        """Return and clear the finished root spans."""
        with self._lock:
            roots, self._roots = self._roots, []
        return roots


#: The default, disabled tracer every call site sees until one is installed.
NULL_TRACER = Tracer(enabled=False)

_active: Tracer = NULL_TRACER


def get_tracer() -> Tracer:
    """The process-wide active tracer (the no-op one by default)."""
    return _active


def set_tracer(tracer: Tracer | None) -> Tracer:
    """Install ``tracer`` (None restores the no-op); returns the previous
    tracer so callers can restore it in a ``finally``."""
    global _active
    previous = _active
    _active = tracer if tracer is not None else NULL_TRACER
    return previous


@contextmanager
def stage(name: str, timings: dict[str, float], **attrs):
    """One timed pipeline stage: a span on the active tracer whose
    duration is also stored in ``timings[name]``.

    With tracing on, the recorded seconds *are* the span's duration, so
    per-file stage timings and the trace never disagree; with tracing
    off this is the only clock read.  A stage that raises records no
    timing (its span still closes, flagged with the error).
    """
    tracer = get_tracer()
    if tracer.enabled:
        with tracer.span(name, **attrs) as span:
            yield
        timings[name] = span.duration
    else:
        started = time.perf_counter()
        yield
        timings[name] = time.perf_counter() - started
