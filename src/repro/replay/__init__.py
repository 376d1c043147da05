"""Concrete witness replay: confirm BMC counterexamples end-to-end.

See docs/REPLAY.md for the request-synthesis and verdict-semantics
design.  Public surface:

* :data:`SENTINEL` / :func:`sentinel_observed` — the marked attack
  payload and the sink observer;
* :func:`replay_counterexamples` / :func:`replay_source` — replay the
  traces of one verified entry (original and patched source);
* :func:`replay_for_task` / :func:`summarize_replays` — the engine
  integration that produces the ``replay`` section of file records.
"""

from repro.replay.conditions import (
    collect_input_keys,
    index_conditions,
    solve_condition,
)
from repro.replay.replayer import (
    MAX_REPLAYED_TRACES,
    REPLAY_MAX_STEPS,
    ReplayResult,
    canonical_request,
    canonical_request_text,
    replay_counterexamples,
    replay_for_task,
    replay_source,
    skipped_traces,
    summarize_replays,
    synthesize_request,
)
from repro.replay.sentinel import SENTINEL, sentinel_observed

__all__ = [
    "SENTINEL",
    "sentinel_observed",
    "ReplayResult",
    "replay_counterexamples",
    "replay_source",
    "replay_for_task",
    "summarize_replays",
    "skipped_traces",
    "synthesize_request",
    "canonical_request",
    "canonical_request_text",
    "collect_input_keys",
    "index_conditions",
    "solve_condition",
    "MAX_REPLAYED_TRACES",
    "REPLAY_MAX_STEPS",
]
