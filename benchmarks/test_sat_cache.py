"""SAT-CACHE — query-level memoization: cold vs warm on repeated shapes.

The file-level ``ResultCache`` is deliberately disabled here; the only
acceleration in play is ``repro.sat.cache`` (canonical-CNF query memo,
persisted to disk).  The corpus is what the cache was built for: PHP
files that are structurally identical up to identifier renaming, under
a multilevel lattice policy (12 levels) that makes the SAT share of the
pipeline realistic rather than trivial.

Three sweeps through ``repro.engine`` (``jobs=1``, file cache off):

* nocache — no SAT cache at all: the parity baseline,
* cold    — empty persist dir; in-run repeated shapes already hit,
* warm    — fresh process-level cache over the same persist dir: every
  query replays from its program's pack (one read per file, no
  writes), the backend solver is never materialized.

Acceptance contract (ISSUE 3): warm ≥ 2× faster than cold, verdicts
identical across all three sweeps, warm run is all hits.  A trajectory
point is appended to ``BENCH_sat_cache.json`` at the repo root.

Smoke mode (``REPRO_BENCH_SMOKE=1``, used by CI) shrinks the corpus and
drops the timing assertion — queue jitter on shared runners makes small
absolute times meaningless — but keeps the parity and hit-count
contracts, which are what CI is there to guard.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro import WebSSARI
from repro.engine import AuditEngine, EngineConfig, EntryTask
from repro.lattice import linear_lattice
from repro.php import SourceProject
from repro.policy import Prelude
from repro.sat.cache import SatQueryCache

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

#: Sinks per file.
DISTINCT_KS = [6, 8] if SMOKE else [24, 28, 32, 36, 40, 44]
#: Shapes repeated verbatim-up-to-renaming inside the run: these hit the
#: cache in the *cold* sweep already (cross-file sharing).
REPEAT_KS = [6] if SMOKE else [24, 28]

LEVELS = 12
#: Guarded sanitized concats per sink.  Each branch doubles the path
#: count the UNSAT proof must cover, so the solver's share of cold time
#: grows much faster than the (linear) encode/hash cost that warm
#: replay still pays — this is what makes the cache ratio decisive.
BRANCHES = 2


def build_policy() -> Prelude:
    """A 12-level linear lattice: tainted web inputs, one high sink."""
    names = [f"l{i}" for i in range(LEVELS)]
    prelude = Prelude(linear_lattice(names))
    prelude.add_superglobal("_GET", names[-2])
    prelude.add_superglobal("_COOKIE", names[-1])
    prelude.add_sink("out_hi", names[-1])
    prelude.add_sanitizer("scrub", names[0])
    return prelude


def shape(tag: str, k: int) -> str:
    """One safe file: ``k`` branchy sinks, every path verifying UNSAT."""
    lines = ["<?php"]
    for j in range(k):
        var = f"$a{tag}_{j}"
        lines.append(f"{var} = $_GET['q{tag}_{j}'];")
        for i in range(BRANCHES):
            lines.append(
                f"if ($_GET['m{tag}_{j}_{i}']) "
                f"{{ {var} = {var} . scrub($_COOKIE['c{tag}_{j}_{i}']); }}"
            )
        lines.append(f"out_hi({var});")
    return "\n".join(lines) + "\n"


def make_corpus() -> list[tuple[str, str]]:
    files = [(f"distinct{i}.php", shape(f"d{i}", k)) for i, k in enumerate(DISTINCT_KS)]
    files += [(f"repeat{i}.php", shape(f"r{i}", k)) for i, k in enumerate(REPEAT_KS)]
    return files


def sweep(
    files: list[tuple[str, str]],
    sat_cache: SatQueryCache | None,
    incremental: bool = True,
):
    project = SourceProject(dict(files))
    tasks = [EntryTask(i, name, name, project) for i, (name, _) in enumerate(files)]
    websari = WebSSARI(
        prelude=build_policy(),
        sat_cache=sat_cache,
        sat_incremental=incremental,
    )
    engine = AuditEngine(websari=websari, config=EngineConfig(jobs=1, cache=None))
    return engine.run(tasks)


def assertions_per_second(result) -> float:
    """Throughput in audited assertions/s (0.0 when the clock is too
    coarse to measure the sweep, which happens on the smoke corpus)."""
    total = sum(o.num_ai_assertions for o in result.outcomes)
    seconds = result.stats.wall_seconds
    return round(total / seconds, 2) if seconds else 0.0


def record_trajectory(point: dict) -> None:
    path = Path(__file__).resolve().parent.parent / "BENCH_sat_cache.json"
    try:
        trajectory = json.loads(path.read_text())
        assert isinstance(trajectory, list)
    except (OSError, ValueError, AssertionError):
        trajectory = []
    trajectory.append(point)
    path.write_text(json.dumps(trajectory, indent=2, sort_keys=True) + "\n")


@pytest.mark.benchmark(group="sat-cache")
def test_cold_vs_warm_sat_cache(benchmark, tmp_path):
    files = make_corpus()
    persist = tmp_path / "sat"

    nocache = sweep(files, sat_cache=None)

    cold_cache = SatQueryCache(persist_dir=persist)
    cold = sweep(files, sat_cache=cold_cache)

    # Fresh cache object over the same directory: the in-memory LRU is
    # empty, so every hit below is a disk replay — the cross-run story.
    warm_cache = SatQueryCache(persist_dir=persist)
    warm = benchmark.pedantic(
        lambda: sweep(files, sat_cache=warm_cache), rounds=1, iterations=1
    )

    print()
    print(
        f"SAT query cache — {len(files)} files, {LEVELS}-level lattice, "
        f"file-level cache disabled"
    )
    for label, result, cache in [
        ("nocache", nocache, None),
        ("cold", cold, cold_cache),
        ("warm", warm, warm_cache),
    ]:
        stats = result.stats
        probes = f"{cache.hits} hits / {cache.misses} misses" if cache else "-"
        print(f"{label:8s} {stats.wall_seconds:6.2f}s  sat-cache: {probes}")
    # Guarded: the smoke corpus is small enough that a coarse clock can
    # report the warm sweep as 0.00s.
    warm_seconds = warm.stats.wall_seconds
    ratio = cold.stats.wall_seconds / warm_seconds if warm_seconds else float("inf")
    print(f"cold/warm speedup: {ratio:.2f}x")

    # Verdict parity: the cache must be invisible in the results.
    for other in (cold, warm):
        assert [o.safe for o in other.outcomes] == [o.safe for o in nocache.outcomes]
        assert [o.summary for o in other.outcomes] == [
            o.summary for o in nocache.outcomes
        ]

    # The repeated shapes hit within the cold run; the warm run is pure
    # replay (this corpus has no budget-exhausted queries to re-solve).
    assert cold_cache.hits > 0, "in-run repeated shapes must share queries"
    assert warm_cache.hits > 0 and warm_cache.misses == 0
    warm_solver = [o.solver for o in warm.outcomes]
    assert sum(s.get("cache_hits", 0) for s in warm_solver) > 0
    assert sum(s.get("cache_misses", 0) for s in warm_solver) == 0
    # Fully-warm replay must answer every query without materializing
    # the backend solver at all — zero decisions, not just zero misses.
    assert sum(s.get("decisions", 0) for s in warm_solver) == 0, (
        "warm replay ran the backend solver"
    )

    if not SMOKE:
        # Acceptance contract: warm replay ≥ 2× faster than cold solve.
        assert ratio >= 2.0, f"warm speedup {ratio:.2f}x below the 2x contract"
        record_trajectory(
            {
                "bench": "sat_cache",
                "files": len(files),
                "lattice_levels": LEVELS,
                "nocache_seconds": round(nocache.stats.wall_seconds, 4),
                "cold_seconds": round(cold.stats.wall_seconds, 4),
                "warm_seconds": round(warm.stats.wall_seconds, 4),
                "cold_warm_speedup": round(ratio, 3),
                "warm_hits": warm_cache.hits,
            }
        )


@pytest.mark.benchmark(group="sat-incremental")
def test_incremental_sat(benchmark, tmp_path):
    """Contract: incremental enumeration makes the *cold* sweep ≥ 1.5×
    faster than the pre-incremental baseline (measured in-process via
    the ``sat_incremental=False`` ablation), with byte-identical
    verdicts.  A trajectory point with
    ``assertions_per_second`` for all three sweeps lands in
    ``BENCH_sat_cache.json`` (or ``$REPRO_BENCH_OUT`` in smoke mode, so
    CI can archive the numbers without touching the tracked file).
    """
    files = make_corpus()
    persist = tmp_path / "sat-inc"

    # Pre-incremental baseline: per-solve backtrack-to-root, linear
    # VSIDS scan — the seed solver's cold behaviour.
    baseline = sweep(files, SatQueryCache(), incremental=False)

    # The headline configuration: incremental CDCL over a cold
    # persistent cache.
    cold_cache = SatQueryCache(persist_dir=persist)
    cold = benchmark.pedantic(
        lambda: sweep(files, sat_cache=cold_cache), rounds=1, iterations=1
    )

    # Warm replay over the persisted directory (backend never runs).
    warm_cache = SatQueryCache(persist_dir=persist)
    warm = sweep(files, sat_cache=warm_cache)

    sweeps = [
        ("baseline", baseline),
        ("incremental", cold),
        ("warm", warm),
    ]
    print()
    print(
        f"SAT incremental — {len(files)} files, "
        f"{LEVELS}-level lattice, file-level cache disabled"
    )
    for label, result in sweeps:
        print(
            f"{label:12s} {result.stats.wall_seconds:6.2f}s  "
            f"{assertions_per_second(result):8.1f} assertions/s"
        )

    # Verdict parity: the incremental machinery and the warm cache are
    # invisible in the results.
    for label, result in sweeps[1:]:
        assert [o.safe for o in result.outcomes] == [
            o.safe for o in baseline.outcomes
        ], f"{label} sweep changed a verdict"
        assert [o.summary for o in result.outcomes] == [
            o.summary for o in baseline.outcomes
        ], f"{label} sweep changed a summary"

    base_seconds = baseline.stats.wall_seconds
    cold_seconds = cold.stats.wall_seconds
    speedup = base_seconds / cold_seconds if cold_seconds else float("inf")
    print(f"incremental cold speedup vs baseline: {speedup:.2f}x")

    point = {
        "bench": "sat_incremental",
        "files": len(files),
        "lattice_levels": LEVELS,
        "baseline_seconds": round(base_seconds, 4),
        "incremental_seconds": round(cold_seconds, 4),
        "incremental_speedup": round(speedup, 3),
        "assertions_per_second": {
            "cold": assertions_per_second(baseline),
            "warm": assertions_per_second(warm),
            "incremental": assertions_per_second(cold),
        },
    }
    out = os.environ.get("REPRO_BENCH_OUT")
    if out:
        Path(out).write_text(json.dumps(point, indent=2, sort_keys=True) + "\n")
    if not SMOKE:
        # Acceptance contract (ISSUE 8): ≥ 1.5× over the seed cold run.
        assert speedup >= 1.5, (
            f"incremental cold speedup {speedup:.2f}x below the 1.5x contract"
        )
        record_trajectory(point)
