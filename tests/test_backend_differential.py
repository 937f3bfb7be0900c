"""Differential suite: batched vs reference contexts, bit for bit.

The batched contexts (``BatchedSmContext``/``BatchedMpContext``) are
the only runtime path, and they promise to change *nothing* about a
simulation except its wall-clock speed. These tests hold them to that
promise the strongest way available: run every experiment once as
shipped and once under the ``reference_contexts`` fixture, which makes
the machines build the scalar base contexts instead, and require the
resulting :class:`RunRecord`\\ s to be equal in every fact — cycle
totals, event counts, per-category breakdowns, check outcomes, rendered
tables, config and cache key. Only the wall time may differ.

The fastest experiments run in tier-1; the rest are ``slow``. The
litmus and stress suites additionally re-run on both context families:
the memory-consistency invariants must hold identically, with
identical outcome histograms.
"""

import contextlib

import pytest

from repro import api
from repro.runner.cache import cache_key
from repro.specs import load_spec

#: The CI-sized EM3D workload, defined once as an experiment spec.
EM3D_SMALL = load_spec("em3d-small").overrides

#: exp_id -> overrides shrinking the run to differential-test size.
#: Every experiment keeps its default shape (strategies, proc counts,
#: protocol variants); only the workload is scaled down.
SMALL = {
    "mse": {"procs": 4, "app": {"bodies": 16, "elements_per_body": 4,
                                "iterations": 3}},
    "gauss": {"procs": 4, "app": {"n": 64}},
    "gauss_collectives": {"procs": 8, "app": {"n": 48}},
    "gauss_contention": {"app": {"n": 48}},
    "em3d": EM3D_SMALL,
    "em3d_bigcache": EM3D_SMALL,
    "em3d_localalloc": EM3D_SMALL,
    "em3d_protocols": EM3D_SMALL,
    "lcp": {"procs": 4, "app": {"n": 96}},
    "alcp": {"procs": 4, "app": {"n": 96}},
    "validation": {},
}

#: Record fields allowed to differ between the two context families:
#: provenance, not simulated facts.
PROVENANCE = ("elapsed_seconds", "cached")

TIER1 = ("mse", "validation")
HEAVY = tuple(exp for exp in SMALL if exp not in TIER1)


def _fresh_record(exp_id, **overrides):
    """One record, in-process memo cleared and disk cache bypassed."""
    api.clear_memory_cache()
    return api.record_for(exp_id, dict(SMALL[exp_id], **overrides), use_cache=False)


def _record_pair(exp_id, reference_contexts, **overrides):
    """Fresh records on the batched and on the reference contexts."""
    batched = _fresh_record(exp_id, **overrides)
    with reference_contexts():
        reference = _fresh_record(exp_id, **overrides)
    return batched, reference


def _assert_identical(batched, reference):
    a = batched.to_jsonable()
    b = reference.to_jsonable()
    for key in PROVENANCE:
        a.pop(key, None)
        b.pop(key, None)
    assert a == b


def test_reference_contexts_fixture_swaps_the_context_classes(reference_contexts):
    from repro.mp.api import MpContext
    from repro.mp.batched import BatchedMpContext
    from repro.mp.machine import MpMachine
    from repro.sm.api import SmContext
    from repro.sm.batched import BatchedSmContext
    from repro.sm.machine import SmMachine

    assert type(SmMachine().contexts[0]) is BatchedSmContext
    assert type(MpMachine().contexts[0]) is BatchedMpContext
    with reference_contexts():
        assert type(SmMachine().contexts[0]) is SmContext
        assert type(MpMachine().contexts[0]) is MpContext
    assert type(SmMachine().contexts[0]) is BatchedSmContext


@pytest.mark.parametrize("exp_id", TIER1)
def test_backends_bit_identical(exp_id, reference_contexts):
    _assert_identical(*_record_pair(exp_id, reference_contexts))


@pytest.mark.slow
@pytest.mark.parametrize("exp_id", HEAVY)
def test_backends_bit_identical_slow(exp_id, reference_contexts):
    _assert_identical(*_record_pair(exp_id, reference_contexts))


# -- memory-model differentials ----------------------------------------------


def _assert_explicit_sc_identical(exp_id):
    """consistency="sc" is the default, spelled out: same key, same
    record, bit for bit."""
    default = _fresh_record(exp_id)
    explicit = _fresh_record(exp_id, consistency="sc")
    assert default.to_jsonable()["config"]["consistency"] == "sc"
    assert default.cache_key == explicit.cache_key
    _assert_identical(default, explicit)


@pytest.mark.parametrize("family", ("batched", "reference"))
@pytest.mark.parametrize("exp_id", TIER1)
def test_explicit_sc_identical_to_default(exp_id, family, reference_contexts):
    """The relaxed-model machinery leaves the SC path untouched on both
    context families."""
    with reference_contexts() if family == "reference" else contextlib.nullcontext():
        _assert_explicit_sc_identical(exp_id)


@pytest.mark.slow
@pytest.mark.parametrize("exp_id", HEAVY)
def test_explicit_sc_identical_to_default_slow(exp_id, reference_contexts):
    _assert_explicit_sc_identical(exp_id)
    with reference_contexts():
        _assert_explicit_sc_identical(exp_id)


@pytest.mark.parametrize("exp_id", TIER1)
def test_relaxed_records_identical_across_backends(exp_id, reference_contexts):
    """Under relaxation both families build the same scalar
    RelaxedSmContext on the SM side (batched bulk steps assume SC
    visibility) while the MP side still differs, so tso records must be
    bit-identical too — and must never share a cache key with the sc
    records."""
    batched, reference = _record_pair(exp_id, reference_contexts, consistency="tso")
    assert batched.to_jsonable()["config"]["consistency"] == "tso"
    sc_key = cache_key(api.resolve_config(exp_id, SMALL[exp_id]))
    assert batched.cache_key != sc_key
    _assert_identical(batched, reference)


# -- invariant suites on both context families -------------------------------


def test_litmus_identical_histograms_across_backends(reference_contexts):
    from repro.check.litmus import LITMUS_TESTS, run_suite

    seeds = tuple(range(6))
    batched = run_suite(LITMUS_TESTS, seeds=seeds)
    with reference_contexts():
        reference = run_suite(LITMUS_TESTS, seeds=seeds)
    assert batched == reference
    assert set(batched) == {t.name for t in LITMUS_TESTS}


def test_sm_stress_clean_and_identical_across_backends(reference_contexts):
    from repro.check.stress import run_sm_stress

    batched = run_sm_stress(ops=300, seed=7)
    with reference_contexts():
        reference = run_sm_stress(ops=300, seed=7)
    assert batched == reference


def test_mp_stress_clean_and_identical_across_backends(reference_contexts):
    from repro.check.stress import run_mp_stress

    batched = run_mp_stress(ops=150, seed=7)
    with reference_contexts():
        reference = run_mp_stress(ops=150, seed=7)
    assert batched == reference
