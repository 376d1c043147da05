"""WebSSARI: the end-to-end verification and assurance pipeline (Figures 8–9).

``PHP source → filter F(p) → AI → renaming ρ → constraint generation →
SAT → counterexample analysis → (optionally) instrumentation``, with the
TS baseline run alongside for comparison.  :class:`WebSSARI` is the
library's primary entry point:

>>> from repro import WebSSARI
>>> report = WebSSARI().verify_source("<?php echo $_GET['q'];")
>>> report.safe
False
>>> report.bmc_group_count
1
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ai.renaming import RenamedProgram, rename
from repro.ai.translate import translate_filter_result
from repro.analysis.grouping import GroupingResult, group_errors
from repro.bmc.checker import AccumulatePolicy, BMCResult, check_program
from repro.instrument.instrumentor import (
    InstrumentationResult,
    instrument_bmc,
    instrument_ts,
)
from repro.bmc.checker import SolverBackend
from repro.ir.commands import count_commands
from repro.ir.filter import filter_program
from repro.lattice import FiniteLattice
from repro.obs import get_tracer, stage
from repro.php import ast_nodes as ast
from repro.php.includes import SourceProject, resolve_includes
from repro.php.parsecache import ParseCache
from repro.policy.prelude import Prelude, default_php_prelude
from repro.sat.cache import SatQueryCache
from repro.typestate.ts import TSReport, analyze_commands

__all__ = ["WebSSARI", "VerificationReport", "ProjectReport", "count_statements"]


def count_statements(node) -> int:
    """Number of statements in an AST subtree (the paper's per-project
    "statements" metric)."""
    if isinstance(node, (ast.Program, ast.Block)):
        return sum(count_statements(child) for child in node.statements)
    total = 1
    if isinstance(node, ast.If):
        total += count_statements(node.then)
        for clause in node.elseifs:
            total += count_statements(clause.body)
        if node.orelse is not None:
            total += count_statements(node.orelse)
    elif isinstance(node, (ast.While, ast.Foreach, ast.For)):
        total += count_statements(node.body)
    elif isinstance(node, ast.DoWhile):
        total += count_statements(node.body)
    elif isinstance(node, ast.Switch):
        for case in node.cases:
            total += sum(count_statements(child) for child in case.body)
    elif isinstance(node, ast.FunctionDecl):
        total += count_statements(node.body)
    return total


@dataclass
class VerificationReport:
    """Everything WebSSARI learned about one entry file."""

    filename: str
    ts: TSReport
    bmc: BMCResult
    grouping: GroupingResult
    num_statements: int
    num_ai_branches: int
    num_ai_assertions: int
    warnings: list[str] = field(default_factory=list)

    @property
    def safe(self) -> bool:
        return self.bmc.safe

    @property
    def ts_error_count(self) -> int:
        """TS-reported individual errors (the TS column of Figure 10)."""
        return self.ts.num_violations

    @property
    def bmc_group_count(self) -> int:
        """BMC-reported error introductions (the BMC column of Figure 10)."""
        return self.grouping.num_groups

    def summary(self) -> str:
        from repro.websari.report import render_summary

        return render_summary(self)

    def detailed_report(self) -> str:
        from repro.websari.report import render_detailed

        return render_detailed(self)


@dataclass
class ProjectReport:
    """Aggregated verification results for a multi-file project."""

    reports: list[VerificationReport]
    num_files: int
    num_statements: int

    @property
    def vulnerable_reports(self) -> list[VerificationReport]:
        return [r for r in self.reports if not r.safe]

    @property
    def num_vulnerable_files(self) -> int:
        return len(self.vulnerable_reports)

    @property
    def ts_error_count(self) -> int:
        return sum(r.ts_error_count for r in self.reports)

    @property
    def bmc_group_count(self) -> int:
        return sum(r.bmc_group_count for r in self.reports)

    @property
    def safe(self) -> bool:
        return all(r.safe for r in self.reports)


class WebSSARI:
    """The verifier.  Construct once, reuse across files and projects."""

    def __init__(
        self,
        prelude: Prelude | None = None,
        accumulate: AccumulatePolicy = "safe-only",
        max_counterexamples: int = 256,
        max_unfold_depth: int = 3,
        sanitize_in_place: bool = True,
        solver: SolverBackend = "cdcl",
        sat_cache: "SatQueryCache | None" = None,
        restart_strategy: str = "geometric",
        sat_seed: int = 0,
        sat_incremental: bool = True,
        parse_cache: "ParseCache | None" = None,
        replay: bool = False,
    ) -> None:
        self.prelude = prelude if prelude is not None else default_php_prelude()
        self.accumulate = accumulate
        self.max_counterexamples = max_counterexamples
        self.max_unfold_depth = max_unfold_depth
        #: Figure-6-faithful in-place sanitizer postconditions; see
        #: repro.ir.filter.ProgramFilter for the soundness caveat.
        self.sanitize_in_place = sanitize_in_place
        #: SAT backend for the BMC engine: "cdcl" (the ZChaff stand-in) or
        #: "dpll" (the ablation baseline, markedly slower).
        self.solver = solver
        #: SAT-level query memo shared across every file this verifier
        #: checks (repro.sat.cache); None disables the layer.
        self.sat_cache = sat_cache
        #: CDCL restart schedule ("geometric" | "luby") and VSIDS/phase
        #: seed, threaded into the solver and folded into the engine
        #: policy fingerprint.
        self.restart_strategy = restart_strategy
        self.sat_seed = sat_seed
        #: Ablation switch for the incremental CDCL machinery (trail /
        #: VSIDS / learned-clause retention across the enumeration).
        #: True is the production default;
        #: False measures the pre-incremental baseline in-process.
        self.sat_incremental = sat_incremental
        #: In-memory content-hash parse memo (repro.php.parsecache): each
        #: file text is parsed once per verifier.  Forked engine workers
        #: inherit it filled; spawned ones unpickle an empty copy.
        self.parse_cache = parse_cache if parse_cache is not None else ParseCache()
        #: Concrete witness replay (repro.replay): re-execute every BMC
        #: counterexample through the interpreter with a synthesized
        #: request and record confirmed/refuted/unsupported per trace.
        #: Folded into the engine policy fingerprint.
        self.replay = replay

    @property
    def lattice(self) -> FiniteLattice:
        return self.prelude.lattice  # type: ignore[return-value]

    def attach_persistent_sat_cache(self, cache_root: "str | Path") -> None:
        """Re-home the SAT query cache under ``<cache_root>/sat``.

        No-op when the verifier was built without a SAT cache.  The two
        cache layers are independent: the file-level result cache may be
        disabled while SAT queries still persist (see docs/SOLVER.md).
        Long-running callers (the ``repro watch`` daemon) keep one
        persistent cache alive across every re-audit cycle.
        """
        if self.sat_cache is None:
            return
        from pathlib import Path

        self.sat_cache = SatQueryCache(persist_dir=Path(cache_root) / "sat")

    # -- one file --------------------------------------------------------------

    def verify_source(self, source: str, filename: str = "<string>") -> VerificationReport:
        with get_tracer().span("file", filename=filename):
            return self.verify_file(filename, source=source)[0]

    def verify_ast(self, program: ast.Program, filename: str = "<string>") -> VerificationReport:
        return self.verify_file(filename, program=program)[0]

    def verify_file(
        self,
        filename: str,
        *,
        source: str | None = None,
        program: ast.Program | None = None,
        project: SourceProject | None = None,
        entry: str | None = None,
        timings: dict[str, float] | None = None,
    ) -> tuple[VerificationReport, dict]:
        """Run the per-file pipeline on one file and return its report
        plus the ``includes`` section of its engine record.

        The file is a standalone ``source`` (parsed under the name
        ``entry`` when given, else ``filename``), an already-parsed
        ``program``, or ``entry`` of ``project`` (includes spliced, and
        the section then counts edges, included files, unresolved paths
        and this call's parse-cache hits and misses).  Stages are
        ``parse`` (skipped for a ``program``), ``filter``, ``ai`` (TS +
        translate + rename) and ``sat`` (BMC + grouping); each is one
        tracer span whose seconds land in ``timings``.  Every caller —
        single files, sequential projects, engine workers — goes through
        here.
        """
        timings = {} if timings is None else timings
        includes: dict = {}
        include_warnings: list[str] = []
        if program is None:
            cache = self.parse_cache
            with stage("parse", timings):
                if project is None:
                    program = entry_program = cache.parse(source or "", entry or filename)
                else:
                    hits, misses = cache.hits, cache.misses
                    resolution = resolve_includes(
                        project, entry or filename, parse_hook=cache.parse
                    )
                    program, entry_program = resolution.program, resolution.entry_program
                    assert entry_program is not None
                    include_warnings = resolution.warnings
                    includes = {
                        "edges": len(resolution.edges),
                        "included_files": len(resolution.included_files),
                        "unresolved": len(resolution.unresolved),
                        "parse_cache_hits": cache.hits - hits,
                        "parse_cache_misses": cache.misses - misses,
                    }
                # Statements of the entry's own program, not the spliced one.
                num_statements = count_statements(entry_program)
        else:
            num_statements = count_statements(program)
        with stage("filter", timings):
            filtered = filter_program(
                program,
                prelude=self.prelude,
                max_unfold_depth=self.max_unfold_depth,
                sanitize_in_place=self.sanitize_in_place,
            )
        with stage("ai", timings):
            ts_report = analyze_commands(filtered.commands, lattice=self.lattice)
            ai_program = translate_filter_result(filtered)
            renamed: RenamedProgram = rename(ai_program)
        with stage("sat", timings, backend=self.solver):
            bmc_result = check_program(
                renamed,
                lattice=self.lattice,
                accumulate=self.accumulate,
                max_counterexamples=self.max_counterexamples,
                solver_backend=self.solver,
                sat_cache=self.sat_cache,
                restart_strategy=self.restart_strategy,
                sat_seed=self.sat_seed,
                sat_incremental=self.sat_incremental,
            )
            grouping = group_errors(bmc_result)
        report = VerificationReport(
            filename=filename,
            ts=ts_report,
            bmc=bmc_result,
            grouping=grouping,
            num_statements=num_statements,
            num_ai_branches=ai_program.num_branches,
            num_ai_assertions=ai_program.num_assertions,
            warnings=list(ai_program.warnings) + include_warnings,
        )
        return report, includes

    # -- patching ---------------------------------------------------------------

    def patch_source(
        self, source: str, filename: str = "<string>", strategy: str = "bmc"
    ) -> tuple[VerificationReport, InstrumentationResult]:
        """Verify and insert runtime guards; returns (report, patched).

        ``strategy='bmc'`` patches at error-introduction points (one guard
        per group); ``strategy='ts'`` patches every violating sink
        argument — the two columns of Figure 10.
        """
        report = self.verify_source(source, filename)
        if strategy == "bmc":
            patched = instrument_bmc(source, report.grouping, filename)
        elif strategy == "ts":
            patched = instrument_ts(source, report.ts, filename)
        else:
            raise ValueError(f"unknown strategy {strategy!r} (use 'bmc' or 'ts')")
        return report, patched

    def patch_project(
        self,
        project: SourceProject,
        entries: list[str] | None = None,
        strategy: str = "bmc",
    ) -> tuple["ProjectReport", SourceProject, dict[str, InstrumentationResult]]:
        """Verify and patch every entry of a project.

        Returns the pre-patch report, a new :class:`SourceProject` with
        instrumented sources, and the per-file instrumentation results.
        Files that verified safe are copied through untouched.
        """
        from repro.instrument.instrumentor import (
            apply_edits,
            collect_bmc_edits,
            collect_ts_edits,
        )

        if strategy not in ("bmc", "ts"):
            raise ValueError(f"unknown strategy {strategy!r} (use 'bmc' or 'ts')")
        report = self.verify_project(project, entries=entries)
        originals = {path: project.source(path) for path in project.paths()}
        edits_by_file: dict[str, list] = {path: [] for path in originals}
        results: dict[str, InstrumentationResult] = {}

        for file_report in report.reports:
            if file_report.safe:
                continue
            # A flaw found via this entry may need its guard in another
            # file (e.g. taint introduced inside an include): collect the
            # edits each file wants, against the ORIGINAL sources, and
            # merge; identical edits from overlapping entries deduplicate.
            total_edits = 0
            notes: list[str] = []
            for path, source in originals.items():
                if strategy == "bmc":
                    edits, file_notes = collect_bmc_edits(
                        source, file_report.grouping, path
                    )
                else:
                    edits, file_notes = collect_ts_edits(source, file_report.ts, path)
                edits_by_file[path].extend(edits)
                total_edits += len(edits)
                notes.extend(file_notes)
            results[file_report.filename] = InstrumentationResult(
                source="",  # final text is assembled project-wide below
                num_guards=(
                    file_report.bmc_group_count
                    if strategy == "bmc"
                    else file_report.ts_error_count
                ),
                num_edits=total_edits,
                notes=notes,
            )

        patched_files = {
            path: apply_edits(source, edits_by_file[path])
            for path, source in originals.items()
        }
        for filename, result in results.items():
            result.source = patched_files[filename]
        return report, SourceProject(patched_files), results

    # -- projects -------------------------------------------------------------------

    def verify_project(
        self,
        project: SourceProject,
        entries: list[str] | None = None,
        jobs: int | None = None,
    ) -> ProjectReport:
        """Verify every entry file of a project, resolving includes.

        By default every ``.php`` file is treated as an entry point (the
        way a web server would expose them); pass ``entries`` to restrict.
        With ``jobs`` > 1, entries are fanned over the batch-audit
        engine's worker pool (``repro.engine``); results are identical to
        the sequential path, in the same order.
        """
        paths = entries if entries is not None else project.paths()
        if jobs is not None and jobs > 1:
            return self._verify_project_parallel(project, paths, jobs)
        reports = [
            self.verify_file(path, project=project, entry=path)[0] for path in paths
        ]
        return ProjectReport(
            reports=reports,
            num_files=len(project),
            num_statements=sum(r.num_statements for r in reports),
        )

    def _verify_project_parallel(
        self, project: SourceProject, paths: list[str], jobs: int
    ) -> ProjectReport:
        """Fan entry files over the audit engine's worker pool.

        Each worker scans, resolves includes and verifies one entry,
        returning the full :class:`VerificationReport`.  Analysis failures
        that the sequential path would raise are re-raised here, so the
        two paths have the same contract.  Tasks are the same
        :class:`~repro.engine.worker.EntryTask` the watch loop and
        ``repro audit`` build; the project crosses each worker's pipe
        once.
        """
        from repro.engine import AuditEngine, EngineConfig, EntryTask

        tasks = [EntryTask(i, path, path, project) for i, path in enumerate(paths)]
        engine = AuditEngine(
            websari=self, config=EngineConfig(jobs=jobs, want_reports=True)
        )
        result = engine.run(tasks)
        reports: list[VerificationReport] = []
        for outcome in result.outcomes:
            if outcome.report is None:
                if outcome.status in ("frontend-error", "unreadable"):
                    from repro.php.errors import FrontendError

                    raise FrontendError(f"{outcome.filename}: {outcome.error}")
                raise RuntimeError(
                    f"{outcome.filename}: {outcome.status}: {outcome.error}"
                )
            reports.append(outcome.report)
        return ProjectReport(
            reports=reports,
            num_files=len(project),
            num_statements=sum(r.num_statements for r in reports),
        )
