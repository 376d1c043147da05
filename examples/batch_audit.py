"""Batch audit: sweep a corpus through the parallel engine, twice.

Builds a small on-disk corpus (vulnerable, safe, and broken files),
reads it as one project, audits every file as an entry of that project
with a 2-worker pool and a content-addressed result cache,
then audits it again to show the warm run served entirely from cache
with byte-identical verdicts — and that editing one file invalidates
exactly that file.

Run:  python examples/batch_audit.py
"""

import tempfile
from pathlib import Path

from repro.engine import AuditEngine, EngineConfig, EntryTask, ResultCache
from repro.php import SourceProject

CORPUS = {
    "guestbook.php": """<?php
$msg = $_POST['msg'];
echo "<li>$msg</li>";
""",
    "search.php": """<?php
$q = $_GET['q'];
DoSQL("SELECT * FROM pages WHERE body LIKE '%$q%'");
""",
    "about.php": """<?php
echo '<h1>About</h1>';
echo htmlspecialchars($_GET['ref']);
""",
    "broken.php": """<?php
if ($x {   // unbalanced — the frontend rejects this file
""",
}


def run(root: Path, cache: ResultCache):
    # Each task names an entry of the project; the process that runs it
    # scans the entry's includes, keys and probes the cache, and verifies.
    project = SourceProject.from_directory(root)
    tasks = [
        EntryTask(i, str(root / entry), entry, project)
        for i, entry in enumerate(project.paths())
    ]
    engine = AuditEngine(config=EngineConfig(jobs=2, cache=cache))
    return engine.run(tasks)


with tempfile.TemporaryDirectory() as tmp:
    root = Path(tmp) / "corpus"
    root.mkdir()
    for name, source in CORPUS.items():
        (root / name).write_text(source)
    cache = ResultCache(Path(tmp) / "cache")

    print("== cold run (2 workers, empty cache) ==")
    cold = run(root, cache)
    for outcome in cold.outcomes:
        verdict = (
            ("VULNERABLE" if not outcome.safe else "SAFE")
            if outcome.status == "ok"
            else outcome.status
        )
        print(f"  {Path(outcome.filename).name:16} {verdict}")
    for line in cold.stats.summary_lines():
        print("  " + line)
    assert cold.any_vulnerable and cold.stats.frontend_errors == 1

    print("\n== warm run (same corpus) ==")
    warm = run(root, cache)
    for line in warm.stats.summary_lines():
        print("  " + line)
    assert warm.stats.hit_rate() == 1.0, "every file should be a cache hit"
    assert [o.summary for o in warm.outcomes] == [o.summary for o in cold.outcomes]

    print("\n== after editing one file ==")
    (root / "guestbook.php").write_text(
        "<?php\necho htmlspecialchars($_POST['msg']);\n"
    )
    edited = run(root, cache)
    for line in edited.stats.summary_lines():
        print("  " + line)
    assert edited.stats.cache_misses == 1, "only the edited file re-audits"

print("\nbatch audit example OK")
