"""Shared test fixtures."""

import contextlib

import pytest


@pytest.fixture(autouse=True)
def _isolated_result_cache(tmp_path, monkeypatch):
    """Point the on-disk result cache at a per-test directory.

    Keeps test runs from reading or polluting a developer's
    ``.repro_cache/`` in the working directory.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro_cache"))
    yield


@pytest.fixture
def reference_contexts(monkeypatch):
    """A context manager under which machines build the scalar contexts.

    The batched contexts are the only runtime path; the base
    ``SmContext``/``MpContext`` classes are the per-event reference
    semantics they must match bit for bit. Inside ``with
    reference_contexts():`` every new SC machine builds the base classes
    instead, so the differential suite can run the same experiment on
    both context families. Relaxed models keep ``RelaxedSmContext``
    either way.
    """
    from repro.mp.api import MpContext
    from repro.sm.api import SmContext

    @contextlib.contextmanager
    def use():
        with monkeypatch.context() as patch:
            patch.setattr("repro.sm.machine.BatchedSmContext", SmContext)
            patch.setattr("repro.mp.machine.BatchedMpContext", MpContext)
            yield

    return use
