"""Shared fixtures for the test suite."""

import pytest

from repro.service import CACHE_DIR_ENV


@pytest.fixture(autouse=True)
def _isolated_result_store(monkeypatch, tmp_path_factory):
    """Point the default result store at a fresh directory per test.

    Caching commands run without ``--cache-dir`` otherwise read and
    write ``~/.cache/repro``, where a result another checkout stored can
    answer in place of the code under test. ``default_cache_dir()``
    reads the variable at call time, and worker processes inherit it.
    """
    monkeypatch.setenv(CACHE_DIR_ENV,
                       str(tmp_path_factory.mktemp("repro-cache")))
