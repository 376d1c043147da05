"""The witness replayer: BMC counterexample → concrete HTTP request →
interpreter run → ``confirmed`` / ``refuted`` / ``unsupported``.

For each :class:`~repro.bmc.trace.CounterexampleTrace` the replayer

1. synthesizes the concrete :class:`HttpRequest` the trace implies — the
   taint sentinel planted on *every* input the program can read, then
   overridden by the request constraints solved from the trace's deciding
   branch decisions (via the span→condition table of
   :mod:`repro.replay.conditions`);
2. executes the program through :func:`run_php` and checks the sensitive
   channels for the intact sentinel;
3. records the verdict:

   * ``confirmed`` — the sentinel reached a sink.  Confirmation is
     *optimistic*: an unsolved branch condition does not block it, since
     an observed exploit is an exploit no matter how the request was
     steered;
   * ``refuted`` — no sentinel arrived **and** every deciding branch was
     solved, so the synthesized request genuinely exercised the witness
     path and the static verdict looks like a false positive;
   * ``unsupported`` — the run left the interpreter's subset (runtime
     error, step budget) or a deciding branch was unsolvable, so the
     witness is neither confirmed nor contradicted.  Never an audit
     failure — unsupported traces quarantine.

4. optionally re-runs the *patched* program (cause-site guards from
   :mod:`repro.instrument`) under the same request, asserting the payload
   no longer reaches the sink — the auto-patcher's end-to-end validation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.interp.environment import HttpRequest
from repro.interp.interpreter import PhpRuntimeError, run_php
from repro.php.includes import ParseHook
from repro.php.parser import parse
from repro.replay.conditions import (
    ABSENT,
    Constraints,
    collect_input_keys,
    index_conditions,
    merge_constraints,
    solve_condition,
)
from repro.replay.sentinel import SENTINEL, sentinel_observed

__all__ = [
    "ReplayResult",
    "synthesize_request",
    "canonical_request",
    "request_identity",
    "replay_counterexamples",
    "replay_source",
    "summarize_replays",
    "skipped_traces",
    "replay_for_task",
    "MAX_REPLAYED_TRACES",
    "REPLAY_MAX_STEPS",
]

#: Per-file cap on replayed traces: enumeration can produce hundreds of
#: counterexamples per assertion; replaying each is a full interpreter
#: run, so the tail is skipped and counted (never silently dropped).
MAX_REPLAYED_TRACES = 32

#: Step budget per replay run — far above any corpus program, far below
#: the default interpreter budget, so a steering mistake that produces an
#: infinite loop degrades to ``unsupported`` quickly.
REPLAY_MAX_STEPS = 200_000


@dataclass
class ReplayResult:
    """Verdict for one replayed counterexample trace."""

    assert_id: int
    function: str
    span: str
    verdict: str  # confirmed | refuted | unsupported
    #: Channel that carried the sentinel (confirmed verdicts only).
    channel: str | None = None
    reason: str = ""
    #: Canonical request payload (see :func:`canonical_request`).
    request: dict = field(default_factory=dict)
    #: Deciding branch variables whose conditions could not be solved.
    unsolved: list[str] = field(default_factory=list)
    #: Verdict of the re-run against the patched source: ``refuted``
    #: means the patch killed the witness (the expected outcome),
    #: ``confirmed`` means the payload still got through, ``unsupported``
    #: means the patched run left the subset; None when not attempted.
    patched: str | None = None

    def to_record(self) -> dict:
        return {
            "assert_id": self.assert_id,
            "function": self.function,
            "span": self.span,
            "verdict": self.verdict,
            "channel": self.channel,
            "reason": self.reason,
            "request": self.request,
            "unsolved": list(self.unsolved),
            "patched": self.patched,
        }


# -- request synthesis -------------------------------------------------------


def synthesize_request(
    condition_table,
    input_keys,
    trace,
) -> tuple[HttpRequest, list[str]]:
    """Build the concrete request a trace implies.

    Baseline: the sentinel on every readable input (maximally tainted,
    and truthy for plain branch tests).  Each deciding branch whose
    source condition solves statically overrides the affected fields;
    branches that do not solve (or whose constraints conflict with an
    earlier branch) are returned as ``unsolved``.
    """
    constraints: Constraints = {}
    unsolved: list[str] = []
    for name in sorted(trace.deciding_branches):
        value = trace.deciding_branches[name]
        span = trace.branch_spans.get(name)
        condition = condition_table.get(span) if span is not None else None
        solved = solve_condition(condition, value) if condition is not None else None
        if solved is None:
            unsolved.append(name)
            continue
        merged = merge_constraints(constraints, solved)
        if merged is None:
            unsolved.append(name)
            continue
        constraints = merged

    fields_: dict[tuple[str, str], str | None] = {
        slot: SENTINEL for slot in input_keys
    }
    fields_.update(constraints)

    request = HttpRequest()
    channels = {"get": request.get, "post": request.post, "cookie": request.cookies}
    for (channel, key), value in fields_.items():
        if value is ABSENT:
            continue
        if channel in channels:
            channels[channel][key] = value
        elif channel == "referer":
            request.referer = value
        elif channel == "user_agent":
            request.user_agent = value
    return request, unsolved


def canonical_request(request: HttpRequest) -> dict:
    """Deterministic JSON-safe rendering of a synthesized request."""
    record: dict = {}
    for name, mapping in (
        ("get", request.get),
        ("post", request.post),
        ("cookies", request.cookies),
    ):
        if mapping:
            record[name] = {key: mapping[key] for key in sorted(mapping)}
    if request.referer:
        record["referer"] = request.referer
    if request.user_agent:
        record["user_agent"] = request.user_agent
    return record


def canonical_request_text(request: HttpRequest) -> str:
    return json.dumps(canonical_request(request), sort_keys=True)


# -- replay ------------------------------------------------------------------


class _TaskParses:
    """Task-local parse memo: each distinct ``(text, filename)`` is parsed
    once per replayed task, however many traces and patched re-runs use
    it.  A parse failure is memoised as its exception and re-raised, so
    every trace that meets it reports the same reason.

    Original sources parse through ``parse_hook`` (the engine worker
    passes its parse cache, which already holds them).  Patched sources
    that differ from the original use the plain parser and live only in
    this memo: no other task reads them, so they stay out of the
    verifier's in-memory parse cache, where they would only take LRU
    slots from trees later tasks do read.
    """

    def __init__(self, parse_hook: ParseHook | None = None) -> None:
        self._hook = parse_hook if parse_hook is not None else parse
        self._memo: dict[tuple[str, str], object] = {}

    def original(self, text: str, filename: str):
        return self._get(text, filename, self._hook)

    def patched(self, text: str, filename: str):
        return self._get(text, filename, parse)

    def _get(self, text: str, filename: str, do_parse):
        key = (text, filename)
        if key not in self._memo:
            try:
                self._memo[key] = do_parse(text, filename)
            except Exception as exc:  # noqa: BLE001 - re-raised to each caller
                self._memo[key] = exc
        outcome = self._memo[key]
        if isinstance(outcome, Exception):
            raise outcome.with_traceback(None)
        return outcome


def _parse_tables(sources: dict[str, str], do_parse: ParseHook):
    """Span→condition table plus input-key inventory over all files.

    Files that fail to parse contribute nothing (their branch conditions
    stay unsolvable — the optimistic path still applies)."""
    table: dict = {}
    input_keys: dict[tuple[str, str], None] = {}
    for filename, text in sources.items():
        try:
            program = do_parse(text, filename)
        except Exception:  # noqa: BLE001 - degrade, never crash the audit
            continue
        table.update(index_conditions(program))
        for slot in collect_input_keys(program):
            input_keys.setdefault(slot, None)
    return table, list(input_keys)


def _patched_sources(sources: dict[str, str], grouping) -> dict[str, str]:
    from repro.instrument.instrumentor import apply_edits, collect_bmc_edits

    patched: dict[str, str] = {}
    for filename, text in sources.items():
        edits, _notes = collect_bmc_edits(text, grouping, filename)
        patched[filename] = apply_edits(text, edits) if edits else text
    return patched


def request_identity(request: HttpRequest) -> tuple:
    """Hashable identity of a request for sharing runs between traces.

    Every mapping keeps its insertion order: a ``foreach`` over
    ``$_GET`` sees key order, so two requests that differ only in it
    are different requests (:func:`canonical_request` sorts, and would
    conflate them).
    """
    return (
        tuple(request.get.items()),
        tuple(request.post.items()),
        tuple(request.cookies.items()),
        request.referer,
        request.user_agent,
        tuple(request.server.items()),
    )


def replay_counterexamples(
    sources: dict[str, str],
    entry: str,
    traces,
    grouping=None,
    *,
    database=None,
    session=None,
    max_steps: int = REPLAY_MAX_STEPS,
    max_traces: int = MAX_REPLAYED_TRACES,
    parse_hook: ParseHook | None = None,
) -> list[ReplayResult]:
    """Replay counterexample traces of one verified entry.

    ``sources`` maps filename → text for the entry and everything it may
    include (a standalone file passes just itself).  With ``grouping``
    the patched re-run is attempted for confirmed traces.  Pass a shared
    ``database``/``session`` to replay against accumulated application
    state (stored-taint scenarios); by default each trace runs against a
    fresh environment.  Every source is parsed once for the whole call;
    ``parse_hook`` (default :func:`repro.php.parser.parse`) parses the
    original sources.

    A run against a fresh environment is a pure function of program and
    request (the interpreter is deterministic), so traces that
    synthesize the same request (see :func:`request_identity`) share one
    original run and one patched run.  With a shared ``database`` or
    ``session`` runs are stateful and order-dependent, and every trace
    keeps its own.
    """
    parses = _TaskParses(parse_hook)
    condition_table, input_keys = _parse_tables(sources, parses.original)

    def program(texts: dict[str, str], hook: ParseHook) -> tuple:
        """(sources, include files, parse hook) of one program."""
        return texts, {k: v for k, v in texts.items() if k != entry} or None, hook

    original = program(sources, parses.original)
    patched: tuple | None = None
    shared: dict | None = {} if database is None and session is None else None

    def run(runnable: tuple, request: HttpRequest) -> tuple[str | None, Exception | None]:
        """The channel that carried the sentinel (None when none did), or
        the exception that ended the run."""
        key = (runnable is original, request_identity(request))
        if shared is not None and key in shared:
            return shared[key]
        texts, files, hook = runnable
        # A shared database accumulates query_log entries across runs;
        # scope observation to queries this run issues.
        log_start = len(database.query_log) if database is not None else 0
        try:
            env = run_php(
                texts[entry],
                request=request,
                database=database,
                files=files,
                session=session,
                max_steps=max_steps,
                filename=entry,
                parse_hook=hook,
            )
        except Exception as exc:  # noqa: BLE001 - degrade, never crash
            outcome = (None, exc.with_traceback(None))
        else:
            outcome = (sentinel_observed(env, sql_log_start=log_start), None)
        if shared is not None:
            shared[key] = outcome
        return outcome

    results: list[ReplayResult] = []
    for trace in traces[:max_traces]:
        request, unsolved = synthesize_request(condition_table, input_keys, trace)
        result = ReplayResult(
            assert_id=trace.assert_id,
            function=trace.function,
            span=str(trace.span),
            verdict="unsupported",
            request=canonical_request(request),
            unsolved=unsolved,
        )
        results.append(result)
        channel, error = run(original, request)
        if isinstance(error, PhpRuntimeError):
            result.reason = f"interpreter: {error}"
            continue
        if error is not None:
            result.reason = f"{type(error).__name__}: {error}"
            continue

        if channel is not None:
            result.verdict = "confirmed"
            result.channel = channel
            result.reason = f"sentinel reached {channel} sink"
        elif unsolved:
            result.verdict = "unsupported"
            result.reason = (
                "sentinel not observed; unsolved branch conditions: "
                + ", ".join(unsolved)
            )
        else:
            result.verdict = "refuted"
            result.reason = "sentinel not observed on the fully steered path"

        if result.verdict == "confirmed" and grouping is not None:
            if patched is None:
                patched = program(
                    _patched_sources(sources, grouping), parses.patched
                )
            patched_channel, error = run(patched, request)
            if isinstance(error, PhpRuntimeError):
                result.patched = "unsupported"
                result.reason += f"; patched run: {error}"
            elif error is not None:
                result.patched = "unsupported"
                result.reason += f"; patched run: {type(error).__name__}: {error}"
            elif patched_channel is None:
                result.patched = "refuted"
            else:
                result.patched = "confirmed"
                result.reason += "; payload SURVIVED the patch"
    return results


def replay_source(
    source: str,
    report,
    filename: str = "<string>",
    **kwargs,
) -> list[ReplayResult]:
    """Convenience wrapper for a standalone source + VerificationReport."""
    return replay_counterexamples(
        {filename: source},
        filename,
        report.bmc.all_counterexamples(),
        report.grouping,
        **kwargs,
    )


# -- engine integration ------------------------------------------------------


def skipped_traces(traces) -> int:
    """Traces past the :data:`MAX_REPLAYED_TRACES` cap (counted, never
    silently dropped)."""
    return max(0, len(traces) - MAX_REPLAYED_TRACES)


def summarize_replays(results: list[ReplayResult], skipped: int = 0) -> dict:
    """The ``replay`` section of a file record (JSON-safe)."""
    summary = {
        "confirmed": 0,
        "refuted": 0,
        "unsupported": 0,
        "patched_refuted": 0,
        "patched_confirmed": 0,
        "patched_unsupported": 0,
        "skipped": skipped,
        "traces": [result.to_record() for result in results],
    }
    for result in results:
        summary[result.verdict] += 1
        if result.patched is not None:
            summary[f"patched_{result.patched}"] += 1
    return summary


def replay_for_task(task, report, parse_hook: ParseHook | None = None) -> dict:
    """Replay every counterexample of one engine task; never raises.

    Returns the ``replay`` record for the task's :class:`FileOutcome`.
    ``parse_hook`` parses the task's original sources (the worker passes
    its parse cache; see :func:`replay_counterexamples`).
    Any unexpected failure inside the replayer itself degrades to a
    record with an ``error`` note and all traces ``unsupported``.
    """
    traces = report.bmc.all_counterexamples()
    try:
        if task.project_files is not None:
            sources = dict(task.project_files)
            entry = task.entry or task.filename
            sources.setdefault(entry, "")
        else:
            entry = task.entry or task.filename
            sources = {entry: task.source or ""}
        results = replay_counterexamples(
            sources,
            entry,
            traces,
            report.grouping,
            parse_hook=parse_hook,
        )
        summary = summarize_replays(results, skipped=skipped_traces(traces))
    except Exception as exc:  # noqa: BLE001 - replay must never fail an audit
        summary = summarize_replays([], skipped=0)
        summary["unsupported"] = len(traces)
        summary["error"] = f"{type(exc).__name__}: {exc}"
    return summary
