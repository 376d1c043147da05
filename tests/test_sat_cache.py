"""Tests for the SAT-level query cache (repro.sat.cache).

Covers the store (LRU bound), the :class:`CachingSatSolver` facade
(canonical fingerprinting, hit/miss accounting, model replay fidelity
across variable renamings and both backends), and per-program pack
persistence (one read and at most one write per checked program,
corruption tolerance, pickling, verdict parity).
"""

import json
import pickle

import pytest

from repro.sat.cache import SAT_CACHE_VERSION, CachingSatSolver, SatQueryCache
from repro.sat.cnf import CNF
from repro.sat.dpll import IncrementalDPLL
from repro.sat.solver import CDCLSolver


def caching(cache, backend="cdcl"):
    inner = CDCLSolver() if backend == "cdcl" else IncrementalDPLL()
    return CachingSatSolver(inner, cache, backend=backend)


class TestSatQueryCache:
    def test_get_put_roundtrip_and_counters(self):
        cache = SatQueryCache()
        assert cache.get("k1") is None
        cache.put("k1", {"sat": True, "true": [1, 3]})
        assert cache.get("k1") == {"sat": True, "true": [1, 3]}
        assert cache.hits == 1 and cache.misses == 1

    def test_saved_pack_bytes_are_the_json_dumps_rendering(self, tmp_path):
        cache = SatQueryCache(persist_dir=tmp_path)
        records = {"k2": {"sat": True, "true": [1, 3]}, "k1": {"sat": False, "true": []}}
        cache.save_pack("k2", records)
        (path,) = pack_files(tmp_path)
        assert path.read_bytes() == json.dumps(records, separators=(",", ":")).encode()

    def test_lru_evicts_oldest(self):
        cache = SatQueryCache(max_entries=2)
        for key in ("a", "b", "c"):
            cache.put(key, {"sat": False, "true": []})
        assert len(cache) == 2
        assert cache.get("a") is None  # evicted
        assert cache.get("c") is not None

    def test_get_refreshes_lru_order(self):
        cache = SatQueryCache(max_entries=2)
        cache.put("a", {"sat": False, "true": []})
        cache.put("b", {"sat": False, "true": []})
        cache.get("a")  # a is now most-recent
        cache.put("c", {"sat": False, "true": []})
        assert cache.get("b") is None and cache.get("a") is not None


class TestCachingSatSolver:
    def test_first_solve_misses_second_identical_shape_hits(self):
        cache = SatQueryCache()
        a = caching(cache)
        a.add_formula(CNF([[1, 2], [-1, 2]], num_vars=2))
        ra = a.solve()
        assert ra.satisfiable is True
        assert ra.stats.cache_misses == 1 and ra.stats.cache_hits == 0

        # Same shape under a different variable numbering: must hit.
        b = caching(cache)
        b.add_formula(CNF([[5, 9], [-5, 9]], num_vars=9))
        rb = b.solve()
        assert rb.satisfiable is True
        assert rb.stats.cache_hits == 1 and rb.stats.cache_misses == 0

    def test_replayed_model_satisfies_renamed_formula(self):
        cache = SatQueryCache()
        a = caching(cache)
        a.add_formula(CNF([[1, 2], [-1, 3], [-2, -3]], num_vars=3))
        assert a.solve().satisfiable is True

        formula_b = CNF([[4, 7], [-4, 8], [-7, -8]], num_vars=8)
        b = caching(cache)
        b.add_formula(formula_b)
        rb = b.solve()
        assert rb.stats.cache_hits == 1
        assert formula_b.evaluate(rb.model)

    def test_unsat_is_cached(self):
        cache = SatQueryCache()
        a = caching(cache)
        a.add_formula(CNF([[1], [-1]], num_vars=1))
        assert a.solve().satisfiable is False
        b = caching(cache)
        b.add_formula(CNF([[3], [-3]], num_vars=3))
        rb = b.solve()
        assert rb.satisfiable is False and rb.stats.cache_hits == 1

    def test_assumptions_distinguish_queries(self):
        cache = SatQueryCache()
        s = caching(cache)
        s.add_formula(CNF([[1, 2]], num_vars=2))
        assert s.solve(assumptions=[1]).satisfiable is True
        r = s.solve(assumptions=[-1])
        # Different assumptions: a fresh query, not a (wrong) hit.
        assert r.stats.cache_misses == 1
        assert r.satisfiable is True and r.model[2] is True

    def test_incremental_clause_addition_extends_key(self):
        cache = SatQueryCache()
        s = caching(cache)
        s.add_formula(CNF([[1, 2]], num_vars=2))
        assert s.solve().stats.cache_misses == 1
        s.add_clause([-1])
        r = s.solve()
        assert r.stats.cache_misses == 1, "grown formula must not alias the old key"
        assert r.model[2] is True

    def test_unconstrained_variables_replay_false(self):
        cache = SatQueryCache()
        a = caching(cache)
        a.add_formula(CNF([[1]], num_vars=5))  # vars 2..5 in no clause
        ra = a.solve()
        b = caching(cache)
        b.add_formula(CNF([[1]], num_vars=5))
        rb = b.solve()
        assert rb.stats.cache_hits == 1
        for var in range(2, 6):
            assert rb.model[var] is ra.model[var] is False

    def test_backends_never_alias(self):
        cache = SatQueryCache()
        c = caching(cache, backend="cdcl")
        c.add_formula(CNF([[1, 2]], num_vars=2))
        assert c.solve().stats.cache_misses == 1
        d = caching(cache, backend="dpll")
        d.add_formula(CNF([[1, 2]], num_vars=2))
        assert d.solve().stats.cache_misses == 1, "backend name is part of the key"

    def test_dpll_inner_replays_identically(self):
        cache = SatQueryCache()
        a = caching(cache, backend="dpll")
        formula = CNF([[1, 2], [-1, 3], [-2, -3]], num_vars=3)
        a.add_formula(formula)
        ra = a.solve()
        b = caching(cache, backend="dpll")
        b.add_formula(formula)
        rb = b.solve()
        assert rb.stats.cache_hits == 1
        assert rb.model == ra.model

    def test_version_is_part_of_the_key_seed(self, monkeypatch):
        cache = SatQueryCache()
        a = caching(cache)
        a.add_formula(CNF([[1]], num_vars=1))
        a.solve()
        monkeypatch.setattr("repro.sat.cache.SAT_CACHE_VERSION", SAT_CACHE_VERSION + "x")
        b = caching(cache)
        b.add_formula(CNF([[1]], num_vars=1))
        assert b.solve().stats.cache_misses == 1


class TestCheckerIntegration:
    def test_cross_file_hits_with_identical_verdicts(self):
        from repro.websari.pipeline import WebSSARI

        shape = (
            "<?php\n"
            "$out{0} = 'ok';\n"
            "if ($_GET['q{0}']) {{ $out{0} = $out{0} . $_GET['q{0}']; }}\n"
            "echo $out{0};\n"
        )
        cache = SatQueryCache()
        websari = WebSSARI(sat_cache=cache)
        baseline = WebSSARI()
        for i in range(3):
            source = shape.format(i)
            cached_report = websari.verify_source(source, f"f{i}.php")
            plain_report = baseline.verify_source(source, f"f{i}.php")
            assert cached_report.safe is plain_report.safe is False
            assert cached_report.bmc_group_count == plain_report.bmc_group_count
            assert cached_report.summary() == plain_report.summary()
        assert cache.hits > 0, "files 2..3 must replay file 1's queries"

    def test_solver_stats_surface_hit_counters(self):
        from repro.websari.pipeline import WebSSARI

        cache = SatQueryCache()
        websari = WebSSARI(sat_cache=cache)
        source = "<?php if ($_GET['a']) { echo $_GET['a']; }\n"
        first = websari.verify_source(source, "a.php")
        second = websari.verify_source(source, "b.php")
        assert first.bmc.solver_stats.get("cache_misses", 0) > 0
        assert second.bmc.solver_stats.get("cache_hits", 0) > 0
        assert second.bmc.solver_stats.get("cache_misses", 0) == 0


SOURCE = (
    "<?php $y = 'ok';\n"
    "if ($_GET['a']) { $y = $y . $_GET['a']; }\n"
    "if ($_GET['b']) { $y = $y . $_GET['b']; }\n"
    "echo $y;\n"
    "echo htmlspecialchars($_GET['c']);\n"
)


def renamed_program(source):
    from repro.ai.renaming import rename
    from repro.ai.translate import translate_filter_result
    from repro.ir.filter import filter_program
    from repro.php.parser import parse

    return rename(translate_filter_result(filter_program(parse(source))))


def check(source, cache=None):
    from repro.bmc.checker import check_program

    return check_program(renamed_program(source), sat_cache=cache)


def verdicts(bmc):
    """Per-assertion verdicts and the set of enumerated witness paths."""
    return [
        (
            a.assert_id,
            a.safe,
            a.truncated,
            sorted(tuple(sorted(cx.deciding_branches.items())) for cx in a.counterexamples),
        )
        for a in bmc.assertions
    ]


def pack_files(root):
    return sorted(root.rglob("*.json"))


class CountingCache(SatQueryCache):
    """Counts pack reads and writes."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.loads = 0
        self.saves = 0

    def load_pack(self, pack):
        self.loads += 1
        return super().load_pack(pack)

    def save_pack(self, pack, records):
        self.saves += 1
        super().save_pack(pack, records)


class TestPacks:
    def test_cold_check_writes_exactly_one_pack(self, tmp_path):
        cache = CountingCache(persist_dir=tmp_path / "sat")
        bmc = check(SOURCE, cache)
        files = pack_files(tmp_path / "sat")
        assert len(files) == 1
        assert (cache.loads, cache.saves) == (1, 1)
        # The pack is named by the program's first query key and holds a
        # record for every query the program solved.
        first_key = files[0].stem
        assert files[0].parent.name == first_key[:2]
        pack = json.loads(files[0].read_text())
        assert first_key in pack
        assert len(pack) == bmc.num_solve_calls
        assert bmc.solver_stats["cache_misses"] == bmc.num_solve_calls
        # Lookups and stores stay one per query.
        assert cache.misses == bmc.num_solve_calls and len(cache) == len(pack)

    def test_warm_recheck_hits_everything_and_writes_nothing(self, tmp_path):
        check(SOURCE, SatQueryCache(persist_dir=tmp_path / "sat"))
        (path,) = pack_files(tmp_path / "sat")
        before = path.stat()

        warm = CountingCache(persist_dir=tmp_path / "sat")
        bmc = check(SOURCE, warm)
        stats = bmc.solver_stats
        assert stats["cache_hits"] == bmc.num_solve_calls > 0
        assert stats["cache_misses"] == 0
        assert stats["decisions"] == 0, "a warm program must not run the backend"
        assert (warm.loads, warm.saves) == (1, 0)
        assert pack_files(tmp_path / "sat") == [path]
        after = path.stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)

    @pytest.mark.parametrize(
        "corrupt",
        ["not json", "non-dict", "one bad record"],
    )
    def test_corrupt_pack_is_evicted_not_served(self, tmp_path, corrupt):
        fresh = check(SOURCE)
        check(SOURCE, SatQueryCache(persist_dir=tmp_path / "sat"))
        (path,) = pack_files(tmp_path / "sat")
        pack = json.loads(path.read_text())
        # "one bad record" flips every record to UNSAT (which would
        # silence every counterexample if served) and breaks one's shape.
        poisoned = {key: {"sat": False, "true": []} for key in pack}
        poisoned[next(iter(pack))] = {"sat": "yes", "true": [1]}
        text = {
            "not json": "{not json",
            "non-dict": json.dumps(list(pack.values())),
            "one bad record": json.dumps(poisoned),
        }[corrupt]

        path.write_text(text)
        cache = SatQueryCache(persist_dir=tmp_path / "sat")
        assert cache.load_pack(path.stem) == {}
        assert not path.exists(), "an invalid pack must be evicted"
        assert len(cache) == 0

        path.write_text(text)
        cache = SatQueryCache(persist_dir=tmp_path / "sat")
        bmc = check(SOURCE, cache)
        assert verdicts(bmc) == verdicts(fresh)
        assert cache.hits == 0
        # The program solved everything again and rewrote a valid pack.
        assert json.loads(path.read_text()) == pack

    def test_shared_first_query_divergent_programs_union_into_one_pack(self, tmp_path):
        # Same formula and first assertion; the second sink differs, so
        # the programs share their first query key (one pack) and then
        # diverge.
        prefix = "<?php $a = $_GET['x']; $b = 'ok'; echo $a; "
        program_a = prefix + "echo $b;\n"
        program_b = prefix + "echo $a;\n"
        fresh = {"a": check(program_a), "b": check(program_b)}

        root = tmp_path / "sat"
        cold_a = check(program_a, SatQueryCache(persist_dir=root))
        cache_b = SatQueryCache(persist_dir=root)
        cold_b = check(program_b, cache_b)
        assert cache_b.hits >= 1 and cache_b.misses >= 1, "programs must share, then diverge"
        (path,) = pack_files(root)
        assert verdicts(cold_a) == verdicts(fresh["a"])
        assert verdicts(cold_b) == verdicts(fresh["b"])

        # The pack holds both record sets: a fresh cache replays both
        # programs without solving anything.
        pack = json.loads(path.read_text())
        assert len(pack) == cache_b.hits + cache_b.misses + (
            cold_a.num_solve_calls - cache_b.hits
        )
        for name, source in (("a", program_a), ("b", program_b)):
            warm = SatQueryCache(persist_dir=root)
            bmc = check(source, warm)
            assert warm.misses == 0 and warm.hits == bmc.num_solve_calls
            assert verdicts(bmc) == verdicts(fresh[name])

    def test_program_without_queries_touches_no_pack(self, tmp_path):
        cache = CountingCache(persist_dir=tmp_path / "sat")
        bmc = check("<?php $x = 'a';\n", cache)
        assert bmc.num_solve_calls == 0
        assert (cache.loads, cache.saves) == (0, 0)
        assert not (tmp_path / "sat").exists()

    def test_unwritable_store_is_best_effort(self, tmp_path):
        # A regular file where the store's directory should be: every
        # pack read and write fails, and the check must still match a
        # fresh solve instead of raising.
        blocker = tmp_path / "sat"
        blocker.write_text("not a directory")
        cache = CountingCache(persist_dir=blocker)
        bmc = check(SOURCE, cache)
        assert verdicts(bmc) == verdicts(check(SOURCE))
        assert (cache.loads, cache.saves) == (1, 1)
        assert bmc.solver_stats["cache_misses"] == bmc.num_solve_calls
        assert blocker.read_text() == "not a directory"

    def test_pickled_clone_rewarms_from_its_pack(self, tmp_path):
        cache = SatQueryCache(persist_dir=tmp_path / "sat", max_entries=4096)
        check(SOURCE, cache)
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.persist_dir == cache.persist_dir
        assert clone.max_entries == 4096
        assert len(clone) == 0  # memo dropped...
        bmc = check(SOURCE, clone)
        assert bmc.solver_stats["cache_misses"] == 0  # ...re-warmed from the pack

    def test_jobs_two_verdicts_equal_jobs_one(self, tmp_path):
        from repro.corpus.generator import ProjectSpec, generate_project
        from repro.websari.pipeline import WebSSARI

        spec = ProjectSpec(name="packs", ts_errors=4, bmc_groups=2, target_statements=30,
                           target_files=3, seed=44)
        project = generate_project(spec).project
        results = {}
        for jobs in (1, 2):
            websari = WebSSARI(sat_cache=SatQueryCache())
            websari.attach_persistent_sat_cache(tmp_path / f"jobs{jobs}")
            report = websari.verify_project(project, jobs=jobs)
            results[jobs] = [(r.filename, r.safe, verdicts(r.bmc)) for r in report.reports]
            assert len(pack_files(tmp_path / f"jobs{jobs}" / "sat")) <= len(report.reports)
        assert results[2] == results[1]
        assert any(not safe for _, safe, _ in results[1])
