"""Tests for the observability layer (repro.obs): span tracer and
Chrome trace-event export."""

import json
import os
import threading

import pytest

from repro.obs import (
    NULL_SPAN,
    NULL_TRACER,
    Span,
    Tracer,
    chrome_trace_events,
    get_tracer,
    set_tracer,
    span_from_dict,
    write_chrome_trace,
)


class TestSpanNesting:
    def test_with_blocks_build_a_tree(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("middle"):
                with tracer.span("inner"):
                    pass
            with tracer.span("sibling"):
                pass
        roots = tracer.take_roots()
        assert [r.name for r in roots] == ["outer"]
        outer = roots[0]
        assert [c.name for c in outer.children] == ["middle", "sibling"]
        assert [c.name for c in outer.children[0].children] == ["inner"]

    def test_take_roots_drains(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        assert len(tracer.take_roots()) == 1
        assert tracer.take_roots() == []

    def test_durations_are_positive_and_nested(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer = tracer.take_roots()[0]
        inner = outer.children[0]
        assert outer.duration >= inner.duration >= 0
        assert outer.start <= inner.start
        assert inner.end <= outer.end + 1e-6

    def test_attributes_at_open_and_via_set(self):
        tracer = Tracer()
        with tracer.span("solve", iteration=3) as sp:
            sp.set(decisions=42, conflicts=1)
        span = tracer.take_roots()[0]
        assert span.attrs == {"iteration": 3, "decisions": 42, "conflicts": 1}

    def test_exception_annotates_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("x")
        span = tracer.take_roots()[0]
        assert span.attrs["error"] == "ValueError"

    def test_span_ids_unique_and_pid_recorded(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("s"):
                pass
        roots = tracer.take_roots()
        ids = [r.span_id for r in roots]
        assert len(set(ids)) == 3
        assert all(r.pid == os.getpid() for r in roots)

    def test_add_attaches_under_open_span_or_as_root(self):
        tracer = Tracer()
        orphan = Span("worker-tree", start=1.0, duration=0.5)
        with tracer.span("parent"):
            tracer.add(orphan)
        parent = tracer.take_roots()[0]
        assert parent.children == [orphan]
        rootless = Span("loose")
        tracer.add(rootless)
        assert tracer.take_roots() == [rootless]


class TestDisabledMode:
    def test_disabled_span_is_the_noop_singleton(self):
        tracer = Tracer(enabled=False)
        assert tracer.span("anything", key="value") is NULL_SPAN
        assert tracer.span("other") is NULL_SPAN

    def test_null_span_context_manager_and_set(self):
        with NULL_SPAN as sp:
            sp.set(decisions=1)  # silently ignored

    def test_disabled_tracer_collects_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("a"):
            pass
        tracer.add(Span("b"))
        assert tracer.take_roots() == []

    def test_global_default_is_disabled(self):
        assert get_tracer() is NULL_TRACER

    def test_set_tracer_returns_previous_and_none_restores(self):
        mine = Tracer()
        previous = set_tracer(mine)
        try:
            assert get_tracer() is mine
        finally:
            set_tracer(previous)
        assert get_tracer() is NULL_TRACER
        set_tracer(None)
        assert get_tracer() is NULL_TRACER


class TestSerialization:
    def test_round_trip_preserves_tree(self):
        tracer = Tracer()
        with tracer.span("file", filename="a.php"):
            with tracer.span("sat.solve", iteration=0) as sp:
                sp.set(decisions=7)
        original = tracer.take_roots()[0]
        rebuilt = span_from_dict(original.to_dict())
        assert rebuilt.name == original.name
        assert rebuilt.attrs == original.attrs
        assert rebuilt.start == original.start
        assert rebuilt.duration == original.duration
        assert rebuilt.pid == original.pid
        assert [c.name for c in rebuilt.children] == ["sat.solve"]
        assert rebuilt.children[0].attrs == {"iteration": 0, "decisions": 7}

    def test_to_dict_is_json_able(self):
        tracer = Tracer()
        with tracer.span("s", n=1):
            pass
        payload = tracer.take_roots()[0].to_dict()
        assert json.loads(json.dumps(payload)) == payload

    def test_from_dict_tolerates_missing_fields(self):
        span = span_from_dict({"name": "bare"})
        assert span.name == "bare"
        assert span.children == [] and span.attrs == {}


class TestThreadSafety:
    def test_threads_keep_independent_stacks(self):
        tracer = Tracer()
        errors = []

        def work(tag):
            try:
                for i in range(50):
                    with tracer.span(f"{tag}-outer"):
                        with tracer.span(f"{tag}-inner", i=i):
                            pass
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(t,)) for t in ("a", "b", "c")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        roots = tracer.take_roots()
        assert len(roots) == 150
        # Inner spans always nest under an outer of the same thread's tag.
        for root in roots:
            tag = root.name.split("-")[0]
            assert [c.name for c in root.children] == [f"{tag}-inner"]
        ids = [s.span_id for r in roots for s in r.walk()]
        assert len(ids) == len(set(ids))


class TestChromeExport:
    def _sample_roots(self):
        tracer = Tracer()
        with tracer.span("file", filename="a.php"):
            with tracer.span("sat.solve", decisions=3):
                pass
        return tracer.take_roots()

    def test_events_structure(self):
        events = chrome_trace_events(self._sample_roots())
        complete = [e for e in events if e["ph"] == "X"]
        meta = [e for e in events if e["ph"] == "M"]
        assert [e["name"] for e in complete] == ["file", "sat.solve"]
        assert meta and meta[0]["name"] == "process_name"
        for event in complete:
            assert event["ts"] >= 0 and event["dur"] >= 0
            assert event["pid"] == os.getpid()
        assert complete[1]["args"] == {"decisions": 3}

    def test_timestamps_relative_to_earliest(self):
        events = chrome_trace_events(self._sample_roots())
        assert min(e["ts"] for e in events if e["ph"] == "X") == 0

    def test_write_chrome_trace_valid_file(self, tmp_path):
        out = tmp_path / "nested" / "trace.json"
        written = write_chrome_trace(out, self._sample_roots())
        assert written == out
        payload = json.loads(out.read_text())
        assert isinstance(payload["traceEvents"], list)
        assert payload["displayTimeUnit"] == "ms"
        assert payload["otherData"]["producer"] == "repro.obs"

    def test_empty_roots(self, tmp_path):
        out = tmp_path / "trace.json"
        write_chrome_trace(out, [])
        assert json.loads(out.read_text())["traceEvents"] == []

