"""Command-line interface.

```
python -m repro [--prelude P] <command> ...
python -m repro verify  file.php [dir/ ...] [--detailed] [--stats]
                        [--sat-cache on|off] [--trace out.json] ANALYSIS
python -m repro audit   dir/ [--jsonl out.jsonl] [--detailed] [--quiet]
                        [--trace out.json] [--metrics out.prom]
                        [--sat-cache on|off] [--shard I/N] ENGINE ANALYSIS
python -m repro watch   dir/ [--interval S] [--debounce S] [--out-dir D]
                        [--serve-metrics [HOST]:PORT] [--once] [--quiet]
                        [--sat-cache on|off] ENGINE ANALYSIS
python -m repro report  audit.jsonl [--top N] [--json] [--html OUT]
python -m repro report  --diff old.jsonl new.jsonl
python -m repro patch   file.php [-o out.php] [--strategy bmc|ts]
python -m repro html    file.php [-o report.html]
python -m repro figure10 [--jobs N]

ANALYSIS = [--solver cdcl|dpll] [--replay on|off]
ENGINE   = [--jobs N] [--timeout S] [--cache-dir D] [--no-cache]
           [--start-method fork|spawn]
```

``ANALYSIS`` and ``ENGINE`` are declared once each (as argparse
parents) and mean the same under every subcommand that takes them;
``--sat-cache`` and ``--quiet`` differ per subcommand.

``verify`` and ``audit`` treat each directory argument as a project
root (a file argument's root is its parent directory) and verify every
entry with its includes resolved.  ``verify`` runs the entries one by
one in-process; ``audit`` is the batch engine, over a worker pool with
per-file timeouts, crash isolation, and a content-addressed result
cache (see ``repro.engine``).  Both share the CI-friendly exit-code
contract:

* ``0`` — every analyzed file verified safe;
* ``1`` — at least one file has a confirmed vulnerability (takes
  precedence over errors);
* ``2`` — no vulnerabilities found, but at least one file could not be
  analyzed (parse/read error, timeout, worker crash) or no input files.

``watch`` is the incremental re-audit daemon: it polls a tree and pushes
only changed files through the audit engine, serves live Prometheus
metrics, and drains gracefully on SIGINT/SIGTERM (see ``repro.daemon``
and docs/DAEMON.md).  ``audit --shard i/n`` splits one audit across
machines that share a cache directory, with no coordination (see
``repro.engine.sharding``).  ``report`` summarizes an audit JSONL stream (``--json`` for machine-readable
output, ``--html OUT`` for a self-contained dashboard, or diffs two
streams — exit 1 when the diff shows new/regressed vulnerable files);
``--trace``
writes a Chrome trace-event file loadable in Perfetto or
``chrome://tracing``; ``--metrics`` writes a Prometheus text snapshot
(see ``repro.obs`` and docs/OBSERVABILITY.md).  ``patch`` writes
instrumented source; ``html`` writes the cross-referenced report;
``figure10`` regenerates the paper's table.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from repro.php.includes import TreeProject
from repro.policy.preludefile import load_prelude
from repro.websari.htmlreport import render_html_report
from repro.websari.pipeline import WebSSARI

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.worker import EntryTask

__all__ = ["main", "build_parser"]

EXIT_CODES_HELP = (
    "exit codes: 0 = all analyzed files safe; "
    "1 = confirmed vulnerability in at least one file (takes precedence "
    "over errors); 2 = no vulnerabilities but at least one file failed "
    "to analyze, or no input files"
)


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive: {text}")
    return value


def _analysis_flags() -> argparse.ArgumentParser:
    """The analysis flags ``verify``, ``audit`` and ``watch`` share."""
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument(
        "--solver", choices=("cdcl", "dpll"), default="cdcl",
        help="SAT backend (dpll is the slow ablation baseline)",
    )
    flags.add_argument(
        "--replay", choices=("on", "off"), default="off",
        help="concretely replay each counterexample through the PHP "
        "interpreter with a synthesized witness request and report "
        "confirmed/refuted/unsupported per trace (folded into the policy "
        "fingerprint, so toggling it invalidates cached results; see "
        "docs/REPLAY.md)",
    )
    return flags


def _engine_flags() -> argparse.ArgumentParser:
    """The batch-engine flags ``audit`` and ``watch`` share."""
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument(
        "--jobs", "-j", type=int, default=os.cpu_count() or 1,
        help="worker processes (default: CPU count; 1 = run in-process)",
    )
    flags.add_argument(
        "--timeout", type=_positive_float, default=None,
        help="per-file wall-clock limit in seconds (needs --jobs >= 2)",
    )
    flags.add_argument(
        "--cache-dir", type=Path, default=None,
        help="result cache directory (default: $REPRO_CACHE_DIR or ~/.cache/repro-audit)",
    )
    flags.add_argument("--no-cache", action="store_true", help="disable the result cache")
    flags.add_argument(
        "--start-method", choices=("fork", "spawn"), default=None,
        help="worker-pool start method (default: fork where available; "
        "spawn is the portable escape hatch — fork workers inherit the "
        "parent's parse memo, and verdicts are identical either way)",
    )
    return flags


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser, built once per process (callers
    only parse with it)."""
    analysis, engine = _analysis_flags(), _engine_flags()
    parser = argparse.ArgumentParser(
        prog="repro",
        description="WebSSARI/xBMC: verify and patch PHP web applications "
        "(reproduction of Huang et al., DSN 2004)",
    )
    parser.add_argument(
        "--prelude",
        type=Path,
        default=None,
        help="path to a prelude file extending the default PHP policy",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser(
        "verify",
        help="verify PHP files or directories",
        description="Verify every PHP entry with its includes resolved, one "
        "at a time in-process. Each directory argument is a project root; "
        "a file argument's root is its parent directory.",
        epilog=EXIT_CODES_HELP,
        parents=[analysis],
    )
    verify.add_argument("paths", nargs="+", type=Path)
    verify.add_argument("--detailed", action="store_true", help="print counterexample traces")
    verify.add_argument(
        "--stats", action="store_true",
        help="print per-file SAT-solver and formula statistics",
    )
    verify.add_argument(
        "--sat-cache", choices=("on", "off"), default="off",
        help="memoize SAT queries by canonical CNF fingerprint across the "
        "files of this run (in-memory; see docs/SOLVER.md)",
    )
    verify.add_argument(
        "--trace", type=Path, default=None, metavar="OUT.json",
        help="write a Chrome trace-event file of the run (open in Perfetto)",
    )

    audit = sub.add_parser(
        "audit",
        help="batch-verify in parallel with result caching",
        description="Verify every PHP entry with its includes resolved, over "
        "a worker pool with per-file timeouts, crash isolation, and a "
        "content-addressed result cache keyed on the entry's include "
        "closure + policy + engine version (unchanged entries are skipped "
        "on re-audit). Each directory argument is a project root; a file "
        "argument's root is its parent directory.",
        epilog=EXIT_CODES_HELP,
        parents=[analysis, engine],
    )
    audit.add_argument("paths", nargs="+", type=Path)
    audit.add_argument(
        "--jsonl", type=Path, default=None,
        help="stream per-file records and final stats to this JSONL file",
    )
    audit.add_argument("--detailed", action="store_true", help="print counterexample traces")
    audit.add_argument(
        "--quiet", "-q", action="store_true", help="suppress per-file reports (stats only)"
    )
    audit.add_argument(
        "--trace", type=Path, default=None, metavar="OUT.json",
        help="write a Chrome trace-event file with nested per-file spans "
        "down to per-assertion SAT solves (open in Perfetto)",
    )
    audit.add_argument(
        "--metrics", type=Path, default=None, metavar="OUT.prom",
        help="write a Prometheus text-format metrics snapshot of the run",
    )
    audit.add_argument(
        "--sat-cache", choices=("on", "off"), default="off",
        help="opt-in: memoize SAT queries by canonical CNF fingerprint, "
        "persisted under <cache-dir>/sat; independent of --no-cache. Off by "
        "default: on the constant-folded formula its hashing and pack I/O "
        "cost more than the trivial solves it skips (see docs/SOLVER.md)",
    )
    audit.add_argument(
        "--shard", metavar="I/N", default=None,
        help="audit only shard I of N (1-based): each entry is assigned by "
        "a hash of its own source before its include scan, so the N shards "
        "are disjoint and exhaustive — machines sharing a --cache-dir can "
        "each take one shard with zero coordination "
        "(see docs/AUDIT_ENGINE.md)",
    )

    watch = sub.add_parser(
        "watch",
        help="re-audit a tree continuously as files change",
        description="Incremental re-audit daemon: poll ROOT for changed "
        ".php files every --interval seconds and push only the dirty set "
        "through the audit engine; unchanged files are answered by the "
        "content-addressed result cache (kept hot in memory for the "
        "daemon's lifetime). Every non-idle cycle appends a JSONL stream "
        "under --out-dir, each merging fresh outcomes with the last known "
        "record of unchanged files, so `repro report --diff` works "
        "between any two cycles. SIGINT/SIGTERM drains in-flight work "
        "(trailer carries interrupted: true) and exits 0.",
        epilog="exit codes: 0 = clean shutdown (signal drain or --once); "
        "2 = root is not a watchable directory or bad --serve-metrics "
        "address",
        parents=[analysis, engine],
    )
    watch.add_argument("root", type=Path, help="directory tree to watch")
    watch.add_argument(
        "--interval", type=_positive_float, default=2.0,
        help="seconds between tree polls (default 2.0)",
    )
    watch.add_argument(
        "--debounce", type=float, default=0.5,
        help="defer files modified within this many seconds of the poll "
        "(in-progress writes; 0 disables, default 0.5)",
    )
    watch.add_argument(
        "--out-dir", type=Path, default=None,
        help="per-cycle JSONL directory (default: <cache-dir>/watch)",
    )
    watch.add_argument(
        "--serve-metrics", metavar="[HOST]:PORT", default=None,
        help="serve live Prometheus metrics plus /healthz on this address "
        "(empty host = loopback; if the port is taken an ephemeral one "
        "is used and printed)",
    )
    watch.add_argument(
        "--once", action="store_true",
        help="run the initial full-audit cycle and exit (smoke testing; "
        "implies --debounce 0 so a just-created corpus is not deferred)",
    )
    watch.add_argument(
        "--quiet", "-q", action="store_true", help="suppress per-cycle summaries"
    )
    watch.add_argument(
        "--sat-cache", choices=("on", "off"), default="off",
        help="opt-in persistent SAT-query memo under <cache-dir>/sat; off by "
        "default because it costs more than it saves (see docs/SOLVER.md)",
    )

    report = sub.add_parser(
        "report",
        help="summarize or diff audit JSONL streams",
        description="Render one `repro audit --jsonl` stream as a summary "
        "table (verdicts, cache hits, stage times, slowest files), or diff "
        "two streams into new / fixed / regressed file lists.",
        epilog="exit codes: 0 = report rendered (diff: no regressions); "
        "1 = diff found new or regressed vulnerable files; 2 = unreadable "
        "or malformed stream; 3 = replay disagreements (vulnerable "
        "verdicts whose concrete replays were all refuted)",
    )
    report.add_argument(
        "path", nargs="?", type=Path, help="audit JSONL stream to summarize"
    )
    report.add_argument(
        "--diff", nargs=2, type=Path, metavar=("OLD", "NEW"),
        help="compare two audit streams instead of summarizing one",
    )
    report.add_argument(
        "--top", type=int, default=10, help="slowest files to list (default 10)"
    )
    report.add_argument(
        "--json", action="store_true",
        help="emit the summary as machine-readable JSON instead of text",
    )
    report.add_argument(
        "--html", type=Path, metavar="OUT", default=None,
        help="also write a self-contained HTML dashboard to OUT",
    )

    patch = sub.add_parser("patch", help="verify and insert runtime guards")
    patch.add_argument("path", type=Path)
    patch.add_argument("-o", "--output", type=Path, default=None, help="default: <file>.patched.php")
    patch.add_argument("--strategy", choices=("bmc", "ts"), default="bmc")

    html = sub.add_parser("html", help="write a cross-referenced HTML report")
    html.add_argument("path", type=Path)
    html.add_argument("-o", "--output", type=Path, default=None, help="default: <file>.report.html")

    figure10 = sub.add_parser("figure10", help="regenerate the paper's Figure 10 table")
    figure10.add_argument(
        "--jobs", "-j", type=int, default=1,
        help="verify each project's entry files over N worker processes",
    )
    return parser


def _collect_entries(paths: list[Path]) -> list[tuple[Path, Path]]:
    """Expand files and directories into deduplicated ``(file, root)``
    pairs of PHP files.

    A directory argument is the project root of every file under it; a
    file argument's root is its parent directory.  Passing a directory
    plus a file inside it yields the file once, under the first argument
    that reaches it; files discovered during a directory walk that cannot
    be read are skipped with a warning rather than crashing the walk
    (explicitly named files are kept, so their failure is reported
    per-file downstream).
    """
    files: list[tuple[Path, Path]] = []
    seen: set[Path] = set()

    def add(path: Path, root: Path) -> None:
        try:
            identity = path.resolve()
        except OSError:
            identity = path
        if identity not in seen:
            seen.add(identity)
            files.append((path, root))

    for path in paths:
        if path.is_dir():
            for candidate in sorted(path.rglob("*.php")):
                if not candidate.is_file():
                    print(
                        f"warning: skipping {candidate} (not a readable file)",
                        file=sys.stderr,
                    )
                    continue
                if not os.access(candidate, os.R_OK):
                    print(
                        f"warning: skipping {candidate} (permission denied)",
                        file=sys.stderr,
                    )
                    continue
                add(candidate, path)
        else:
            add(path, path.parent)
    return files


def _make_websari(args: argparse.Namespace) -> WebSSARI:
    from repro.sat.cache import SatQueryCache

    prelude = load_prelude(args.prelude) if args.prelude else None
    sat_cache = (
        SatQueryCache() if getattr(args, "sat_cache", "off") == "on" else None
    )
    return WebSSARI(
        prelude=prelude,
        solver=getattr(args, "solver", "cdcl"),
        sat_cache=sat_cache,
        replay=getattr(args, "replay", "off") == "on",
    )


def _solver_stats_lines(report) -> list[str]:
    """Terminal rendering of one report's aggregated SolverStats."""
    bmc = report.bmc
    totals = bmc.solver_stats
    counters = ", ".join(
        f"{totals.get(name, 0)} {label}"
        for name, label in (
            ("decisions", "decisions"),
            ("propagations", "propagations"),
            ("conflicts", "conflicts"),
            ("learned_clauses", "learned"),
            ("restarts", "restarts"),
        )
    )
    lines = [
        f"  solver[{bmc.solver_backend}]: {counters} "
        f"in {bmc.num_solve_calls} solve call(s)",
        f"  preprocessing: {totals.get('preprocessed_clauses', 0)} clause(s) "
        "simplified at add time",
    ]
    if totals.get("cache_hits", 0) or totals.get("cache_misses", 0):
        lines.append(
            f"  sat-cache: {totals.get('cache_hits', 0)} hit(s), "
            f"{totals.get('cache_misses', 0)} miss(es)"
        )
    if totals.get("root_satisfied_deleted", 0):
        lines.append(
            f"  incremental: {totals['root_satisfied_deleted']} "
            "dead clause(s) reclaimed"
        )
    lines.append(
        f"  formula: {bmc.num_vars} var(s), {bmc.num_clauses} clause(s), "
        f"{bmc.solve_seconds:.3f}s solving"
    )
    return lines


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.engine.worker import WorkerSession, execute_entry
    from repro.obs import Tracer, get_tracer, set_tracer, write_chrome_trace

    websari = _make_websari(args)
    files = _collect_entries(args.paths)
    if not files:
        print("no PHP files found", file=sys.stderr)
        return 2
    tracer = Tracer(enabled=True) if args.trace else None
    previous_tracer = set_tracer(tracer) if tracer is not None else None
    any_vulnerable = False
    try:
        # The same tasks `audit` builds, run one by one in-process; replay
        # (when on) re-executes each entry with its included sources.
        tasks, _, any_error = _entry_tasks(files)
        session = WorkerSession(websari=websari, want_report=True)
        wholes: dict = {}
        for task in tasks:
            with get_tracer().span("file", filename=task.filename):
                outcome = execute_entry(task, session, wholes)
            if outcome.status == "unreadable":
                print(f"{task.filename}: {outcome.error}", file=sys.stderr)
                any_error = True
                continue
            if outcome.status != "ok":
                kind = outcome.status.replace("-", " ")
                print(f"{task.filename}: {kind}: {outcome.error}", file=sys.stderr)
                any_error = True
                continue
            report = outcome.report
            print(report.detailed_report() if args.detailed else report.summary())
            if args.stats:
                for line in _solver_stats_lines(report):
                    print(line)
            if outcome.replay:
                _print_replay(outcome.replay)
            print()
            any_vulnerable = any_vulnerable or not report.safe
    finally:
        if tracer is not None:
            set_tracer(previous_tracer)
            write_chrome_trace(args.trace, tracer.take_roots())
            print(f"wrote trace to {args.trace}", file=sys.stderr)
    if any_error and any_vulnerable:
        # Both conditions hold: report both, vulnerabilities win the exit
        # code (an un-analyzable file must not mask confirmed findings).
        print(
            "note: some files failed to analyze AND vulnerabilities were "
            "confirmed; exiting 1 (vulnerabilities take precedence)",
            file=sys.stderr,
        )
    if any_vulnerable:
        return 1
    return 2 if any_error else 0


def _print_replay(summary: dict) -> None:
    """Terminal rendering of one file's ``replay`` record."""
    line = (
        f"  replay: {summary['confirmed']} confirmed, "
        f"{summary['refuted']} refuted, "
        f"{summary['unsupported']} unsupported"
    )
    if summary["skipped"]:
        line += f", {summary['skipped']} skipped"
    if summary.get("error"):
        line += f" (replay error: {summary['error']})"
    print(line)
    for trace in summary["traces"]:
        line = f"    assertion {trace['assert_id']}: {trace['verdict']}"
        if trace.get("channel"):
            line += f" via {trace['channel']}"
        if trace.get("patched"):
            line += f"; patched: {trace['patched']}"
        if trace.get("reason"):
            line += f" ({trace['reason']})"
        print(line)


def _tree_project(root: Path, entries: list[Path]) -> TreeProject:
    """The lazy on-disk project rooted at ``root``: every ``.php`` file
    under it, plus the named entries whatever their suffix."""
    files = [path for path in sorted(root.rglob("*.php")) if path.is_file()]
    return TreeProject(
        {
            TreeProject.normalize(os.path.relpath(path, root)): str(path)
            for path in files + entries
        }
    )


def _entry_tasks(
    files: list[tuple[Path, Path]],
    shard: tuple[int, int] | None = None,
) -> "tuple[list[EntryTask], int, bool]":
    """The engine task of every ``(file, root)`` entry.

    Each names its entry and its root's project, exactly as ``watch``
    and ``verify_project`` do; the process that runs the task scans the
    entry's includes against that root.  With ``shard`` ``(i, n)``,
    entries whose source hashes to another shard are left out, which
    reads each entry here.  Returns the tasks, the number of entries
    left to other shards, and whether any entry could not be read for
    its shard (each reported on stderr).
    """
    from repro.engine.sharding import assign_shard
    from repro.engine.worker import EntryTask

    by_root: dict[Path, list[Path]] = {}
    for path, root in files:
        by_root.setdefault(root, []).append(path)
    projects = {root: _tree_project(root, paths) for root, paths in by_root.items()}

    tasks: list[EntryTask] = []
    any_read_error = False
    skipped_other_shards = 0
    for path, root in files:
        project = projects[root]
        entry = project.normalize(os.path.relpath(path, root))
        if shard is not None:
            try:
                source = project.source(entry)
            except OSError as error:
                print(f"{path}: {error}", file=sys.stderr)
                any_read_error = True
                continue
            if assign_shard(source, shard[1]) != shard[0]:
                skipped_other_shards += 1
                continue
        tasks.append(EntryTask(len(tasks), str(path), entry, project))
    return tasks, skipped_other_shards, any_read_error


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.engine import (
        AuditEngine,
        EngineConfig,
        JsonlSink,
        ResultCache,
        default_cache_dir,
    )
    from repro.engine.sharding import parse_shard
    from repro.obs import RunTotals, Tracer, render_prometheus, write_chrome_trace

    shard = None
    if args.shard:
        try:
            shard = parse_shard(args.shard)
        except ValueError as error:
            print(f"audit: {error}", file=sys.stderr)
            return 2

    websari = _make_websari(args)
    # With --sat-cache on, persist SAT query results under the engine's
    # cache root even when --no-cache disables the file-level result
    # cache: the layers are independent (see docs/SOLVER.md).
    websari.attach_persistent_sat_cache(args.cache_dir or default_cache_dir())
    files = _collect_entries(args.paths)
    if not files:
        print("no PHP files found", file=sys.stderr)
        return 2

    tasks, skipped_other_shards, any_read_error = _entry_tasks(files, shard)
    if shard is not None:
        print(
            f"shard {args.shard}: {len(tasks)} of "
            f"{len(tasks) + skipped_other_shards} file(s) assigned here",
            file=sys.stderr,
        )

    cache = None if args.no_cache else ResultCache(args.cache_dir or default_cache_dir())
    sink = JsonlSink(args.jsonl) if args.jsonl else None
    tracer = Tracer(enabled=True) if args.trace else None
    metrics = RunTotals() if args.metrics else None
    config = EngineConfig(
        jobs=max(1, args.jobs),
        timeout=args.timeout,
        start_method=args.start_method,
        cache=cache,
        progress=sys.stderr.isatty(),
        jsonl=sink,
        tracer=tracer,
        metrics=metrics,
    )
    try:
        result = AuditEngine(websari=websari, config=config).run(tasks)
    finally:
        if sink is not None:
            sink.close()
        if tracer is not None:
            write_chrome_trace(args.trace, tracer.take_roots())
            print(f"wrote trace to {args.trace}", file=sys.stderr)
        if metrics is not None:
            args.metrics.write_text(render_prometheus(metrics))
            print(f"wrote metrics to {args.metrics}", file=sys.stderr)

    for outcome in result.outcomes:
        if outcome.status == "ok":
            if not args.quiet:
                print(outcome.detailed if args.detailed else outcome.summary)
                print()
        elif outcome.status == "unreadable":
            print(f"{outcome.filename}: {outcome.error}", file=sys.stderr)
        else:
            detail = (outcome.error or "").splitlines()
            suffix = f": {detail[0]}" if detail else ""
            print(f"{outcome.filename}: {outcome.status}{suffix}", file=sys.stderr)
    for line in result.stats.summary_lines():
        print(line)

    if result.any_vulnerable:
        return 1
    return 2 if (result.any_failed or any_read_error) else 0


def _cmd_watch(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.daemon import MetricsServer, WatchLoop
    from repro.daemon.metrics_server import parse_bind
    from repro.engine import HotResultCache, default_cache_dir
    from repro.obs import RunTotals, render_prometheus

    if not args.root.is_dir():
        print(f"watch: {args.root} is not a directory", file=sys.stderr)
        return 2
    bind = None
    if args.serve_metrics:
        try:
            bind = parse_bind(args.serve_metrics)
        except ValueError as error:
            print(f"watch: invalid metrics address: {error}", file=sys.stderr)
            return 2

    websari = _make_websari(args)
    cache_root = Path(args.cache_dir or default_cache_dir())
    websari.attach_persistent_sat_cache(cache_root)
    # Hot layer on top of the shared on-disk cache: unchanged files are
    # answered from memory for the daemon's lifetime.
    cache = None if args.no_cache else HotResultCache(cache_root)
    # The include graph is independent of the result cache: reverse-graph
    # invalidation must work even under --no-cache.  It lives in memory:
    # the first cycle of every process audits every file anyway.
    from repro.php.parsecache import IncludeGraph

    # Nothing reads the totals unless they are served.
    metrics = RunTotals() if bind is not None else None
    stop = threading.Event()
    loop = WatchLoop(
        args.root,
        websari,
        cache=cache,
        jobs=max(1, args.jobs),
        timeout=args.timeout,
        start_method=args.start_method,
        interval=args.interval,
        # --once is one-shot smoke: a freshly created corpus is always
        # inside the debounce window, so honoring it would silently
        # audit nothing and exit 0.
        debounce=0.0 if args.once else max(0.0, args.debounce),
        out_dir=args.out_dir or cache_root / "watch",
        metrics=metrics,
        stop_event=stop,
        quiet=args.quiet,
        include_graph=IncludeGraph(),
    )

    def _request_stop(signum, frame) -> None:
        print(
            f"watch: received {signal.Signals(signum).name}, draining "
            "in-flight work...",
            file=sys.stderr,
        )
        stop.set()

    previous = {
        signum: signal.signal(signum, _request_stop)
        for signum in (signal.SIGINT, signal.SIGTERM)
    }
    server = None
    try:
        if bind is not None:
            server = MetricsServer(
                lambda: render_prometheus(metrics, loop.health()),
                host=bind[0], port=bind[1], health=loop.health,
            ).start()
            note = " (requested port busy; fell back)" if server.fell_back else ""
            print(
                f"watch: serving metrics on http://{server.host}:{server.port}/metrics{note}",
                file=sys.stderr,
            )
        if args.once:
            loop.run_cycle()
            return 0
        return loop.run_forever()
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        if server is not None:
            server.close()


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs import (
        ReportError,
        diff_runs,
        load_audit,
        render_dashboard,
        render_diff,
        render_report,
        summarize_run,
    )

    if args.diff and args.path:
        print("report: give either a stream to summarize or --diff, not both", file=sys.stderr)
        return 2
    if not args.diff and not args.path:
        print("report: nothing to do (give a JSONL path or --diff OLD NEW)", file=sys.stderr)
        return 2
    if args.diff and (args.json or args.html):
        print("report: --json/--html only apply to single-stream summaries", file=sys.stderr)
        return 2
    try:
        if args.diff:
            old_path, new_path = args.diff
            old = load_audit(old_path)
            new = load_audit(new_path)
            diff = diff_runs(old, new)
            print(render_diff(old, new, diff))
            return 1 if diff.has_regressions else 0
        run = load_audit(args.path)
        summary = summarize_run(run, top=args.top)
        if args.html is not None:
            args.html.write_text(render_dashboard(run, top=args.top))
        if args.json:
            print(json.dumps(summary, indent=2, sort_keys=True))
        else:
            print(render_report(run, top=args.top))
        if args.html is not None:
            print(f"report: wrote dashboard to {args.html}", file=sys.stderr)
        if summary["replay_disagreements"]:
            # A vulnerable verdict whose concrete replays were refuted is
            # the one state that demands human eyes: either the abstraction
            # over-approximated or the replayer under-approximated.
            return 3
        return 0
    except ReportError as error:
        print(f"report: {error}", file=sys.stderr)
        return 2


def _cmd_patch(args: argparse.Namespace) -> int:
    websari = _make_websari(args)
    source = args.path.read_text()
    report, patched = websari.patch_source(
        source, filename=str(args.path), strategy=args.strategy
    )
    output = args.output or args.path.with_suffix(".patched.php")
    output.write_text(patched.source)
    print(report.summary())
    print(f"wrote {output} ({patched.num_guards} guard(s), {patched.num_edits} edit(s))")
    return 0


def _cmd_html(args: argparse.Namespace) -> int:
    websari = _make_websari(args)
    source = args.path.read_text()
    report = websari.verify_source(source, filename=str(args.path))
    output = args.output or args.path.with_suffix(".report.html")
    output.write_text(render_html_report(report, source))
    print(f"wrote {output}")
    return 0 if report.safe else 1


def _cmd_figure10(args: argparse.Namespace) -> int:
    from repro.corpus import FIGURE_10, PAPER_TOTALS
    from repro.corpus.generator import generate_catalog_project

    websari = _make_websari(args)
    print(f"{'Project':40s} {'A':>3s} {'TS':>5s} {'BMC':>5s}")
    total_ts = total_bmc = 0
    for entry in FIGURE_10:
        generated = generate_catalog_project(entry)
        report = websari.verify_project(generated.project, jobs=args.jobs)
        total_ts += report.ts_error_count
        total_bmc += report.bmc_group_count
        print(
            f"{entry.name[:40]:40s} {entry.activity:3d} "
            f"{report.ts_error_count:5d} {report.bmc_group_count:5d}"
        )
    print(f"{'Total':40s}     {total_ts:5d} {total_bmc:5d}")
    reduction = 100.0 * (total_ts - total_bmc) / total_ts if total_ts else 0.0
    print(
        f"reduction: {reduction:.1f}% "
        f"(paper: {PAPER_TOTALS['reduction_percent']}% from stated totals)"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "verify": _cmd_verify,
        "audit": _cmd_audit,
        "watch": _cmd_watch,
        "report": _cmd_report,
        "patch": _cmd_patch,
        "html": _cmd_html,
        "figure10": _cmd_figure10,
    }
    try:
        return handlers[args.command](args)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # Downstream closed the pipe (| head, pager quit): exit quietly
        # like a well-behaved filter.  Redirect stdout to devnull first
        # so the interpreter's shutdown flush doesn't raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
