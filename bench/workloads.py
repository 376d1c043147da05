"""The four workloads: seeded inputs, on-disk trees and the seeded edits.

Every input comes from ``repro.corpus`` with the run's ``--seed``; the
program under test only ever sees the generated trees.  The generator's
seeded topology (``expected_ts`` / ``expected_bmc``) is the truth each
request's verdicts are checked against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

#: Figure 10 totals over the 38 catalog projects, for any seed.
FIG10_TOTALS = (969, 578)

#: Projects per workload in ``--smoke`` mode.
SMOKE_PROJECTS = 3

#: Probability that an edit lands in the shared ``lib/common.php``.
COMMON_EDIT_P = 0.25


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``fig10`` (38 catalog projects) or ``corpus`` (the 230-project §5 sample).
    inputs: str
    jobs: int
    replay: bool
    #: ``cold``: fresh trees and cache dir per pass.  ``edit``: one tree and
    #: one cache dir for the run, primed in set-up, one edit per request.
    mode: str
    why: str


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "fig10-cold", "fig10", jobs=1, replay=False, mode="cold",
            why="the paper's Figure 10 sweep (38 projects, TS 969 / BMC 578) with "
            "every cache cold: front end and BMC dominate, caches show only as cost",
        ),
        Workload(
            "corpus-cold", "corpus", jobs=1, replay=False, mode="cold",
            why="the 230-project section 5 corpus: 4x the bytes of Figure 10, a "
            "heavy size tail and 161 clean projects; per-byte front-end cost dominates",
        ),
        Workload(
            "fig10-replay", "fig10", jobs=2, replay=True, mode="cold",
            why="Figure 10 with witness replay at --jobs 2: the interpreter is most "
            "of the time, and it is the only workload with a worker pool",
        ),
        Workload(
            "fig10-edit", "fig10", jobs=1, replay=False, mode="edit",
            why="one seeded comment edit per request on a primed cache: result, "
            "parse and SAT caches do the work and BMC does little",
        ),
    )
}


@dataclass(frozen=True)
class Project:
    name: str
    files: dict[str, str]
    ts: int
    bmc: int


def build_projects(workload: Workload, seed: int, smoke: bool) -> list[Project]:
    from repro.corpus import FIGURE_10, generate_catalog_project, generate_corpus

    if workload.inputs == "fig10":
        generated = [
            generate_catalog_project(entry, seed=seed + i)
            for i, entry in enumerate(FIGURE_10)
        ]
    else:
        generated = generate_corpus(scale=0.02, seed=seed)
    projects = [
        Project(
            name=f"{i:03d}-{g.spec.name}",
            files={path: g.project.source(path) for path in g.project.paths()},
            ts=g.expected_ts,
            bmc=g.expected_bmc,
        )
        for i, g in enumerate(generated)
    ]
    if smoke:
        rng = random.Random(f"{seed}/smoke")
        projects = sorted(rng.sample(projects, SMOKE_PROJECTS), key=lambda p: p.name)
    return projects


def write_tree(root: Path, files: dict[str, str]) -> None:
    for path, text in files.items():
        target = root / path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text)


def pass_order(seed: int, pass_index: int, count: int) -> list[int]:
    """The seeded visiting order of one pass (a fresh shuffle per pass)."""
    order = list(range(count))
    random.Random(f"{seed}/order/{pass_index}").shuffle(order)
    return order


def apply_edit(root: Path, project: Project, seed: int, pass_index: int, number: int) -> None:
    """Insert ``// bench edit <number>`` after the first ``<?php`` of one
    file: ``lib/common.php`` with probability :data:`COMMON_EDIT_P`, else
    one page.  A comment changes the cache key of every entry that reads
    the file, but no verdict."""
    rng = random.Random(f"{seed}/edit/{pass_index}/{project.name}")
    pages = sorted(p for p in project.files if p.startswith("page"))
    if "lib/common.php" in project.files and (not pages or rng.random() < COMMON_EDIT_P):
        path = "lib/common.php"
    else:
        path = rng.choice(pages)
    target = root / path
    text = target.read_text()
    target.write_text(text.replace("<?php", f"<?php\n// bench edit {number}", 1))
