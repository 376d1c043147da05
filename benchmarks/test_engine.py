"""ENGINE — batch-audit engine: cold vs warm cache on the Figure-10 corpus.

Dumps every generated Figure-10 project to disk (283 files), then
measures three sweeps of every file as a project entry through
``repro.engine``:

* cold, inline (``jobs=1``, empty cache) — the sequential baseline,
* cold, pooled (``jobs=4``) — worker-pool overhead / speedup (scales
  with available cores; on a single-core box it can only tie),
* warm (second run, same cache) — the content-addressed cache paying
  off.

Asserts the acceptance contract: the warm run serves ≥90% of files
from cache (100% in practice) with byte-identical per-file verdicts.
"""

from __future__ import annotations

import pytest

from repro import WebSSARI
from repro.corpus import FIGURE_10
from repro.corpus.generator import generate_catalog_project
from repro.engine import AuditEngine, EngineConfig, EntryTask, ResultCache
from repro.php import SourceProject


def dump_corpus(root):
    for entry in FIGURE_10:
        generated = generate_catalog_project(entry)
        for path in generated.project.paths():
            target = root / entry.name / path
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(generated.project.source(path))
    return sorted(root.rglob("*.php"))


def sweep(root, files, jobs, cache):
    """Every file as an entry of its Figure-10 project (the first
    directory under ``root``), read from disk."""
    projects = {}
    tasks = []
    for i, path in enumerate(files):
        name, *rest = path.relative_to(root).parts
        if name not in projects:
            projects[name] = SourceProject.from_directory(root / name)
        tasks.append(EntryTask(i, str(path), "/".join(rest), projects[name]))
    engine = AuditEngine(websari=WebSSARI(), config=EngineConfig(jobs=jobs, cache=cache))
    return engine.run(tasks)


@pytest.mark.benchmark(group="engine")
def test_cold_vs_warm_cache(benchmark, tmp_path):
    root = tmp_path / "corpus"
    files = dump_corpus(root)
    assert len(files) > 200

    cold_inline = sweep(root, files, jobs=1, cache=ResultCache(tmp_path / "c1"))

    pool_cache = ResultCache(tmp_path / "c2")
    cold_pool = sweep(root, files, jobs=4, cache=pool_cache)
    warm = benchmark.pedantic(
        lambda: sweep(root, files, jobs=4, cache=pool_cache), rounds=1, iterations=1
    )

    print()
    print(f"Batch-audit engine — {len(files)} files from the Figure-10 corpus")
    for label, result in [
        ("cold jobs=1 (inline)", cold_inline),
        ("cold jobs=4 (pool)", cold_pool),
        ("warm jobs=4 (cached)", warm),
    ]:
        stats = result.stats
        print(
            f"{label:22s} {stats.wall_seconds:6.2f}s  "
            f"{stats.cache_hits:3d} hits / {stats.cache_misses:3d} misses  "
            f"{stats.vulnerable} vulnerable, {stats.failed} failed"
        )

    # Acceptance contract: second cached run ≥90% hits, identical verdicts.
    assert warm.stats.hit_rate() >= 0.90
    assert [o.summary for o in warm.outcomes] == [o.summary for o in cold_pool.outcomes]
    assert [o.safe for o in warm.outcomes] == [o.safe for o in cold_inline.outcomes]
    assert warm.stats.wall_seconds < cold_inline.stats.wall_seconds
