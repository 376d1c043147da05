"""Shared fixtures for the tier-1 suite."""

import pytest


@pytest.fixture(autouse=True)
def _isolated_cache_dir(tmp_path_factory, monkeypatch):
    """Point the default cache directory at a fresh per-test directory.

    ``repro audit``/``watch`` persist SAT packs under the
    default cache dir even with ``--no-cache``; without this a
    test would read (and warm) the user's ``~/.cache/repro-audit``, and
    its counters would depend on what earlier runs left there.
    Subprocesses inherit the variable through the environment.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("repro-cache")))
