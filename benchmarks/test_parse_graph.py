"""PARSE-GRAPH — closure-scoped keys, parse-cache reuse, pooled parses.

The corpus is the shape the include graph was built for: ``N`` small
entry files all splicing one fat shared prelude (plus one standalone
leaf that never touches it).  Four contracts, from ISSUE 9:

* **invalidation** — with a persistent result cache, a second
  cold-process audit after touching one leaf entry re-verifies exactly
  that entry; editing the shared prelude re-verifies every includer.
* **parse reuse** — the verifier's in-memory parse memo parses each
  distinct file once per sweep: the prelude once, not once per entry.
* **pooled parses** — with ``jobs=2`` each worker scans the entries it
  verifies, so the run parses each distinct file at most once per
  worker: at most twice the inline count.
* **parity** — verdicts and summaries are identical across closure
  slices, pooled workers and whole-project tasks.

A trajectory point is appended to ``BENCH_parse_graph.json`` at the
repo root.  Smoke mode (``REPRO_BENCH_SMOKE=1``, used by CI) shrinks
the corpus but keeps every contract; the point then goes to
``$REPRO_BENCH_OUT`` instead of the tracked file.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro import WebSSARI
from repro.engine import (
    AuditEngine,
    AuditTask,
    EngineConfig,
    EntryTask,
    ResultCache,
    execute_task,
)
from repro.php import SourceProject
from repro.php.parsecache import ParseCache

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

#: Entry files splicing the shared prelude.
N_ENTRIES = 10 if SMOKE else 16
#: Statements in the shared prelude — fat enough that parsing it
#: dominates the parse stage when repeated once per entry.
PRELUDE_STATEMENTS = 60 if SMOKE else 400


def make_corpus() -> dict[str, str]:
    prelude = ["<?php"]
    for i in range(PRELUDE_STATEMENTS):
        prelude.append(f"$p{i} = 'prelude value {i}';")
    prelude.append("$shared = $_GET['q'];")
    files = {"common.php": "\n".join(prelude) + "\n"}
    for i in range(N_ENTRIES):
        # Alternate verdicts: even entries echo the tainted prelude
        # variable (vulnerable), odd ones a constant (safe).
        sink = "$shared" if i % 2 == 0 else f"'entry {i}'"
        files[f"entry{i}.php"] = f"<?php include 'common.php'; echo {sink};\n"
    files["leaf.php"] = "<?php echo 'standalone leaf';\n"
    return files


def make_tasks(files: dict[str, str]) -> list[EntryTask]:
    """Entry tasks the way ``verify_project`` and the watch loop build
    them."""
    project = SourceProject(files)
    return [EntryTask(i, entry, entry, project) for i, entry in enumerate(sorted(files))]


def whole_project_outcomes(files: dict[str, str]) -> list:
    """The historical baseline: each entry verified against the whole
    project, outside the engine."""
    websari = WebSSARI()
    return [
        execute_task(
            AuditTask(index=i, filename=entry, project_files=dict(files), entry=entry),
            websari,
        )
        for i, entry in enumerate(sorted(files))
    ]


def sweep(
    files: dict[str, str],
    *,
    jobs: int = 1,
    parse_cache: ParseCache | None = None,
    cache: ResultCache | None = None,
):
    websari = WebSSARI(parse_cache=parse_cache)
    engine = AuditEngine(websari=websari, config=EngineConfig(jobs=jobs, cache=cache))
    return engine.run(make_tasks(files))


def parse_seconds(result) -> float:
    return sum(o.timings.get("parse", 0.0) for o in result.outcomes)


def record_trajectory(point: dict) -> None:
    path = Path(__file__).resolve().parent.parent / "BENCH_parse_graph.json"
    try:
        trajectory = json.loads(path.read_text())
        assert isinstance(trajectory, list)
    except (OSError, ValueError, AssertionError):
        trajectory = []
    trajectory.append(point)
    path.write_text(json.dumps(trajectory, indent=2, sort_keys=True) + "\n")


@pytest.mark.benchmark(group="parse-graph")
def test_closure_keys_parse_cache_and_slicing(benchmark, tmp_path):
    files = make_corpus()
    total_bytes = sum(len(text) for text in files.values())
    n_tasks = len(files)

    # -- baseline: verdict reference, whole project -----------------------
    baseline = whole_project_outcomes(files)

    # -- contract: closure-scoped invalidation across cold processes ----
    result_dir = tmp_path / "results"
    first = sweep(files, cache=ResultCache(result_dir))
    assert first.stats.cache_misses == n_tasks

    edited_leaf = dict(files)
    edited_leaf["entry1.php"] = files["entry1.php"].replace("entry 1", "entry 1 v2")
    second = sweep(edited_leaf, cache=ResultCache(result_dir))
    assert second.stats.cache_misses == 1, "a leaf edit must re-verify only itself"
    assert second.stats.cache_hits == n_tasks - 1

    edited_prelude = dict(files)
    edited_prelude["common.php"] = files["common.php"].replace(
        "prelude value 0", "prelude value 0 v2"
    )
    third = sweep(edited_prelude, cache=ResultCache(result_dir))
    # Every includer of common.php misses (plus common.php itself as its
    # own entry); the standalone leaf still hits.
    assert third.stats.cache_misses == N_ENTRIES + 1
    assert third.stats.cache_hits == 1

    # -- contract: one parse per distinct file per sweep ----------------
    memo = ParseCache()
    closure = benchmark.pedantic(
        lambda: sweep(files, parse_cache=memo), rounds=1, iterations=1
    )
    assert memo.misses == len(files), (
        f"{memo.misses} parses for {len(files)} distinct files"
    )

    # -- contract: each worker parses each distinct file at most once ---
    pooled = sweep(files, jobs=2)
    pooled_parses = sum(o.includes["parse_cache_misses"] for o in pooled.outcomes)
    assert pooled_parses <= 2 * len(files), (
        f"{pooled_parses} parses over 2 workers for {len(files)} distinct files"
    )

    # -- contract: verdict parity across every switch combination -------
    reference = [(o.safe, o.summary) for o in baseline]
    for label, result in [
        ("closure", closure),
        ("closure+pool", pooled),
    ]:
        got = [(o.safe, o.summary) for o in result.outcomes]
        assert got == reference, f"{label} sweep changed a verdict"

    print()
    print(
        f"parse graph — {N_ENTRIES} entries × {PRELUDE_STATEMENTS}-statement "
        f"prelude ({total_bytes} bytes)"
    )
    print(
        f"parse stage: {parse_seconds(closure):.3f}s, "
        f"{memo.misses} parses, {memo.hits} memo hits"
    )
    print(f"pooled (2 workers): {pooled_parses} parses")

    point = {
        "bench": "parse_graph",
        "entries": N_ENTRIES,
        "prelude_statements": PRELUDE_STATEMENTS,
        "corpus_bytes": total_bytes,
        "leaf_edit_misses": second.stats.cache_misses,
        "prelude_edit_misses": third.stats.cache_misses,
        "parse_seconds": round(parse_seconds(closure), 4),
        "parses": memo.misses,
        "pooled_parses": pooled_parses,
    }
    out = os.environ.get("REPRO_BENCH_OUT")
    if out:
        Path(out).write_text(json.dumps(point, indent=2, sort_keys=True) + "\n")
    if not SMOKE:
        record_trajectory(point)
