"""Verdict parity across solver backends and the SAT query cache.

All acceleration layers — the query cache and the incremental CDCL
machinery (trail/VSIDS/lemma retention across the enumeration) — are
pure optimizations: for any program, every ``(solver backend,
sat-cache, incremental)`` combination must produce the same
:class:`BMCResult` verdicts, the same counterexample counts, and the
same witness signatures.  These tests pin that property over
Figure-10-generator projects (the property-style corpus: deterministic
seeds, varied topology/shapes), random fuzz programs, and a few
hand-picked tricky sources, and pin byte-stable JSONL output across two
identical audits.
"""

import json
import random

import pytest

from repro.corpus.generator import ProjectSpec, generate_fuzz_program, generate_project
from repro.sat.cache import SatQueryCache
from repro.websari.pipeline import WebSSARI


def _variants():
    """One verifier per (backend, cache) combination, fresh caches each.

    Covers the full cdcl/dpll × cache on/off grid plus the
    incremental-machinery ablation and the non-default solver settings
    (Luby restarts, nonzero VSIDS/phase seed).
    """
    return {
        ("cdcl", "off"): WebSSARI(solver="cdcl"),
        ("cdcl", "on"): WebSSARI(solver="cdcl", sat_cache=SatQueryCache()),
        ("dpll", "off"): WebSSARI(solver="dpll"),
        ("dpll", "on"): WebSSARI(solver="dpll", sat_cache=SatQueryCache()),
        ("cdcl-nonincremental", "off"): WebSSARI(
            solver="cdcl", sat_incremental=False
        ),
        ("cdcl-nonincremental", "on"): WebSSARI(
            solver="cdcl", sat_cache=SatQueryCache(), sat_incremental=False
        ),
        ("cdcl-luby-seeded", "on"): WebSSARI(
            solver="cdcl",
            sat_cache=SatQueryCache(),
            restart_strategy="luby",
            sat_seed=7,
        ),
    }


def _witnesses(assertion):
    """Order-insensitive witness signature of one assertion: the set of
    enumerated paths (deciding-branch assignments) and what each one
    violates.  Enumeration *order* is solver-dependent; the set is not.
    """
    return tuple(
        sorted(
            (
                tuple(sorted(cx.deciding_branches.items())),
                tuple(sorted(cx.violating_names)),
            )
            for cx in assertion.counterexamples
        )
    )


def _signature(report):
    """Everything that must agree across variants for one entry file."""
    return (
        report.safe,
        report.bmc.safe,
        [
            (a.assert_id, a.safe, len(a.counterexamples), a.truncated, _witnesses(a))
            for a in report.bmc.assertions
        ],
        report.bmc_group_count,
        report.ts_error_count,
    )


SPECS = [
    # Small on purpose: dpll is the slow ablation baseline.  Varied
    # seeds rotate the generator through its cluster shapes (star,
    # chain, conditional root, function propagation, loop sinks).
    ProjectSpec(name="parity-a", ts_errors=3, bmc_groups=2, target_statements=30,
                target_files=2, seed=11),
    ProjectSpec(name="parity-b", ts_errors=4, bmc_groups=2, target_statements=30,
                target_files=2, seed=22),
    ProjectSpec(name="parity-c", ts_errors=2, bmc_groups=1, target_statements=40,
                target_files=2, seed=33),
    ProjectSpec(name="parity-d", ts_errors=5, bmc_groups=3, target_statements=30,
                target_files=3, seed=44),
]


class TestGeneratedProjectParity:
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
    def test_all_variants_agree(self, spec):
        generated = generate_project(spec)
        variants = _variants()
        signatures = {}
        for key, websari in variants.items():
            report = websari.verify_project(generated.project)
            signatures[key] = [
                (r.filename, _signature(r)) for r in report.reports
            ]
        baseline = signatures[("cdcl", "off")]
        for key, signature in signatures.items():
            assert signature == baseline, f"variant {key} diverged"
        # The corpus must actually exercise the solvers (vulnerable files).
        assert any(not sig[0] for _, sig in baseline)

    def test_warm_cache_replays_identically(self):
        # Verify the same project twice through ONE cached verifier: the
        # second pass is (almost) pure replay and must not drift.
        generated = generate_project(SPECS[0])
        websari = WebSSARI(solver="cdcl", sat_cache=SatQueryCache())
        first = websari.verify_project(generated.project)
        second = websari.verify_project(generated.project)
        assert [_signature(r) for r in first.reports] == [
            _signature(r) for r in second.reports
        ]
        warm_stats = [r.bmc.solver_stats for r in second.reports]
        assert any(s.get("cache_hits", 0) > 0 for s in warm_stats)
        assert all(s.get("cache_misses", 0) == 0 for s in warm_stats)


class TestFuzzProgramParity:
    """The ISSUE-8 parity sweep: random loop-free F(p) programs through
    the full variant grid, witness-equivalence included."""

    SEED = 20260808
    COUNT = 6

    @pytest.mark.parametrize("index", range(COUNT))
    def test_all_variants_agree(self, index):
        program = generate_fuzz_program(random.Random(self.SEED + index))
        signatures = {
            key: _signature(
                websari.verify_source(program.source, f"fuzz{index}.php")
            )
            for key, websari in _variants().items()
        }
        baseline = signatures[("cdcl", "off")]
        for key, signature in signatures.items():
            assert signature == baseline, (
                f"fuzz{index}: variant {key} diverged "
                f"(seed={self.SEED + index})\nsource:\n{program.source}"
            )


class TestJsonlDeterminism:
    """Two identical default-settings audits must emit byte-identical
    JSONL modulo wall-clock fields (a nonzero solver seed stays covered
    in-process by ``TestSeedAndAblation``)."""

    VOLATILE = {"duration", "timings", "stage_seconds", "ts", "wall_seconds", "seconds"}

    def _scrub(self, record):
        out = {}
        for key, value in record.items():
            if key in self.VOLATILE:
                continue
            if key == "slow_queries":
                # The ledger ranks by wall seconds — a timing artifact —
                # so compare it as an order-free set of scrubbed records,
                # sorted on the whole record (the fingerprint is null
                # without the SAT cache, so no single field is a total key).
                value = sorted(
                    (
                        {k: v for k, v in q.items() if k not in self.VOLATILE}
                        for q in value
                    ),
                    key=lambda q: json.dumps(q, sort_keys=True),
                )
            out[key] = value
        return out

    def _audit(self, tmp_path, corpus, tag):
        from repro.cli import main

        out = tmp_path / f"audit-{tag}.jsonl"
        # Each audit gets its own empty cache dir: ``--no-cache`` still
        # persists SAT packs there, and a warm second run would report
        # hits where the first reported misses.
        main(
            [
                "audit",
                str(corpus),
                "--jobs",
                "1",
                "--cache-dir",
                str(tmp_path / f"cache-{tag}"),
                "--no-cache",
                "--jsonl",
                str(out),
                "--quiet",
            ]
        )
        with open(out) as handle:
            return [self._scrub(json.loads(line)) for line in handle]

    def test_two_runs_identical(self, tmp_path):
        corpus = tmp_path / "php"
        corpus.mkdir()
        rng = random.Random(99)
        for i in range(4):
            program = generate_fuzz_program(rng)
            (corpus / f"f{i}.php").write_text(program.source)
        first = self._audit(tmp_path, corpus, "a")
        second = self._audit(tmp_path, corpus, "b")
        assert first == second


class TestTrickySourcesParity:
    SOURCES = {
        "multi-sink": (
            "<?php $a = $_GET['x']; echo $a; print $a; "
            "mysql_query('SELECT ' . $a);\n"
        ),
        "accumulation": (
            "<?php $y = 'ok';\n"
            "if ($_GET['a']) { $y = $y . $_GET['a']; }\n"
            "if ($_GET['b']) { $y = $y . $_GET['b']; }\n"
            "if ($_GET['c']) { $y = $y . $_GET['c']; }\n"
            "echo $y;\n"
        ),
        "sanitized": (
            "<?php $q = htmlspecialchars($_GET['q']); echo $q;\n"
        ),
        "mixed": (
            "<?php $s = htmlspecialchars($_POST['s']); echo $s; "
            "echo $_COOKIE['session'];\n"
        ),
    }

    @pytest.mark.parametrize("name", sorted(SOURCES))
    def test_all_variants_agree(self, name):
        source = self.SOURCES[name]
        signatures = {
            key: _signature(websari.verify_source(source, f"{name}.php"))
            for key, websari in _variants().items()
        }
        baseline = signatures[("cdcl", "off")]
        for key, signature in signatures.items():
            assert signature == baseline, f"variant {key} diverged"
