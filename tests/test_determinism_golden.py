"""Golden determinism tests: cycle counts pinned against the seed kernel.

The kernel's fast paths (due lane, inline stepping, flat cache mirror)
must be invisible to the simulation: per-experiment cycle counts AND
event counts must stay bit-identical to what the original heap-only
kernel produced. The numbers below were captured from the seed kernel on
the small configurations; any drift means an optimization changed
simulation semantics, not just speed.

The fastest pair (mse) and the validation microbenchmarks run in tier-1;
the heavier pairs are marked ``slow`` and run in CI's non-blocking job.
"""

import pytest

from repro.core.experiments import EXPERIMENTS
from repro.specs import load_spec

#: The CI-sized EM3D workload, defined once as an experiment spec.
EM3D_SMALL = load_spec("em3d-small").overrides

#: exp_id -> (config overrides, golden numbers from the seed kernel).
GOLDEN = {
    "gauss": (
        {"procs": 4, "app": {"n": 64}},
        {
            "mp_total": 1115149.5,
            "sm_total": 1312978.0,
            "mp_elapsed": 1115222,
            "sm_elapsed": 1312978,
            "mp_events": 7994,
            "sm_events": 45098,
        },
    ),
    "em3d": (
        EM3D_SMALL,
        {
            "mp_total": 131618.0,
            "sm_total": 412938.0,
            "mp_elapsed": 131618,
            "sm_elapsed": 412938,
            "mp_events": 3454,
            "sm_events": 43806,
        },
    ),
    "mse": (
        {"procs": 4, "app": {"bodies": 16, "elements_per_body": 4, "iterations": 3}},
        {
            "mp_total": 116528.0,
            "sm_total": 146983.0,
            "mp_elapsed": 116528,
            "sm_elapsed": 146983,
            "mp_events": 1390,
            "sm_events": 1916,
        },
    ),
    "lcp": (
        {"procs": 4, "app": {"n": 96}},
        {
            "mp_total": 677666.0,
            "sm_total": 703421.0,
            "mp_elapsed": 677666,
            "sm_elapsed": 703421,
            "mp_events": 12579,
            "sm_events": 24068,
        },
    ),
}


def _run_and_check(exp_id):
    overrides, golden = GOLDEN[exp_id]
    spec = EXPERIMENTS[exp_id]
    pair = spec.runner(spec.config.with_overrides(overrides))
    observed = {
        "mp_total": pair.mp_result.board.mean_total(),
        "sm_total": pair.sm_result.board.mean_total(),
        "mp_elapsed": pair.mp_result.elapsed_cycles,
        "sm_elapsed": pair.sm_result.elapsed_cycles,
        "mp_events": pair.mp_result.machine.engine.events_executed,
        "sm_events": pair.sm_result.machine.engine.events_executed,
    }
    assert observed == golden


def test_mse_cycle_counts_bit_identical_to_seed():
    _run_and_check("mse")


def test_validation_latencies_bit_identical_to_seed():
    spec = EXPERIMENTS["validation"]
    checks = spec.runner(spec.config)
    measured = {name: values["measured"] for name, values in checks.items()}
    assert measured == {
        "am_one_way": 200,
        "barrier": 100,
        "sm_remote_miss_idle": 277,
    }


@pytest.mark.slow
@pytest.mark.parametrize("exp_id", ["gauss", "em3d", "lcp"])
def test_pair_cycle_counts_bit_identical_to_seed(exp_id):
    _run_and_check(exp_id)
