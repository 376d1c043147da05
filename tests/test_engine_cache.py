"""Tests for the content-addressed result cache (repro.engine.cache)."""

import json
from pathlib import Path

from repro.engine.cache import (
    ENGINE_VERSION,
    ResultCache,
    cache_key,
    default_cache_dir,
    policy_fingerprint,
)
from repro.policy.preludefile import parse_prelude
from repro.websari.pipeline import WebSSARI


class TestCacheKey:
    def test_deterministic(self):
        assert cache_key("<?php", "fp") == cache_key("<?php", "fp")

    def test_source_changes_key(self):
        assert cache_key("<?php echo 1;", "fp") != cache_key("<?php echo 2;", "fp")

    def test_policy_changes_key(self):
        assert cache_key("<?php", "fp-a") != cache_key("<?php", "fp-b")

    def test_extra_changes_key(self):
        assert cache_key("<?php", "fp", "entry=a.php") != cache_key("<?php", "fp", "entry=b.php")

    def test_no_field_concatenation_collisions(self):
        # (source, extra) pairs must not collide by sliding bytes between fields.
        assert cache_key("ab", "fp", "c") != cache_key("b", "fp", "ca")


class TestPolicyFingerprint:
    def test_stable_across_equal_policies(self):
        assert policy_fingerprint(WebSSARI()) == policy_fingerprint(WebSSARI())

    def test_prelude_changes_fingerprint(self):
        custom = parse_prelude("sink show tainted xss\n")
        assert policy_fingerprint(WebSSARI()) != policy_fingerprint(WebSSARI(prelude=custom))

    def test_options_change_fingerprint(self):
        assert policy_fingerprint(WebSSARI()) != policy_fingerprint(
            WebSSARI(max_unfold_depth=5)
        )
        assert policy_fingerprint(WebSSARI()) != policy_fingerprint(
            WebSSARI(sanitize_in_place=False)
        )


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key("src", "fp")
        assert cache.get(key) is None
        cache.put(key, {"filename": "a.php", "status": "ok"})
        record = cache.get(key)
        assert record["filename"] == "a.php"
        assert record["status"] == "ok"
        assert len(cache) == 1

    def test_corrupt_entry_is_miss_and_evicted(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key("src", "fp")
        cache.put(key, {"status": "ok"})
        path = cache._path(key)
        path.write_text("{not json")
        assert cache.get(key) is None
        assert not path.exists()

    def test_wrong_record_version_is_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key("src", "fp")
        path = cache._path(key)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({"status": "ok", "record_version": -1}))
        assert cache.get(key) is None

    def test_written_bytes_are_the_json_dumps_rendering(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key("src", "fp")
        record = {"status": "ok", "warnings": ["caf\u00e9 <b>"], "timings": {"parse": 0.25}}
        cache.put(key, record)
        expected = json.dumps({**record, "record_version": 1}, sort_keys=True)
        assert cache._path(key).read_bytes() == expected.encode()

    def test_fanout_layout(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key("src", "fp")
        cache.put(key, {"status": "ok"})
        assert (tmp_path / "objects" / key[:2] / f"{key}.json").exists()

    def test_first_put_into_a_fresh_root_makes_its_directory_once(
        self, tmp_path, monkeypatch
    ):
        made = []
        real_mkdir = Path.mkdir

        def counting_mkdir(self, *args, **kwargs):
            made.append(self)
            return real_mkdir(self, *args, **kwargs)

        monkeypatch.setattr(Path, "mkdir", counting_mkdir)
        cache = ResultCache(tmp_path / "fresh" / "root")
        key = cache_key("src", "fp")
        cache.put(key, {"status": "ok"})
        assert cache.get(key)["status"] == "ok"
        assert made[0] == cache._path(key).parent
        # The fan-out directory exists now: later records make none.
        made.clear()
        cache.put(key, {"status": "ok", "summary": "again"})
        assert cache.get(key)["summary"] == "again"
        assert made == []

    def test_root_that_is_a_plain_file_stays_uncached(self, tmp_path):
        root = tmp_path / "root"
        root.write_text("not a directory\n")
        cache = ResultCache(root)
        key = cache_key("src", "fp")
        cache.put(key, {"status": "ok"})  # must not raise
        assert cache.get(key) is None
        assert len(cache) == 0
        assert root.read_text() == "not a directory\n"


class TestDefaultCacheDir:
    def test_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
        assert default_cache_dir() == tmp_path / "custom"

    def test_xdg_fallback(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert default_cache_dir() == tmp_path / "repro-audit"


def test_engine_version_is_nonempty_string():
    assert isinstance(ENGINE_VERSION, str) and ENGINE_VERSION
