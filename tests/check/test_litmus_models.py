"""The model x shape litmus verdict matrix, pinned in both directions.

The litmus suite stopped being SC regression armor and became the
memory-model oracle: every shape declares which models permit its
relaxed outcome, and :func:`repro.check.litmus.run_litmus` asserts both
that forbidden outcomes never appear *and* that permitted outcomes are
actually observable within a seed budget. These tests pin the full
expected-outcome table, exercise the distinguishing cells on the real
machine, and prove mislabeled matrix entries fail loudly.
"""

import contextlib
from dataclasses import replace

import pytest

from repro.check import CheckError
from repro.check.litmus import (
    DEFAULT_SEEDS,
    LITMUS_TESTS,
    run_litmus,
    run_matrix,
)

_BY_NAME = {t.name: t for t in LITMUS_TESTS}

#: The full model x shape expected-outcome table. A shape appears with
#: exactly the models that permit its relaxed outcome; absence means
#: forbidden under every model. Grounding, per shape:
#: loads block in program order on this machine, so LB never relaxes;
#: store-buffer commits are single serialized memory-write instants, so
#: IRIW/WRC (store atomicity) hold everywhere; the buffer is
#: per-location FIFO under both relaxed models, so CoRR/CoWW hold;
#: atomics fence, so RMW holds. TSO's FIFO drain preserves MP and 2+2W
#: but permits SB; PC's cross-location commit jitter additionally
#: permits MP and 2+2W.
EXPECTED_MATRIX = {
    "mp_message_passing": ("pc",),
    "sb_store_buffering": ("tso", "pc"),
    "lb_load_buffering": (),
    "iriw_independent_reads": (),
    "corr_coherent_read_read": (),
    "coww_coherent_write_write": (),
    "w2plus2_write_serialization": ("pc",),
    "wrc_write_read_causality": (),
    "rmw_atomicity": (),
}


def test_matrix_table_is_pinned():
    """The shipped permitted_under labels match the expected table
    exactly — any edit to either side must be deliberate and paired."""
    assert {t.name for t in LITMUS_TESTS} == set(EXPECTED_MATRIX)
    for test in LITMUS_TESTS:
        assert test.permitted_under == EXPECTED_MATRIX[test.name], test.name


# -- distinguishing cells, run live ---------------------------------------


def test_tso_observes_store_buffering():
    """SB is TSO's signature relaxation: run_litmus must see it (it
    raises if the permitted outcome never shows within the budget)."""
    observed = run_litmus(
        _BY_NAME["sb_store_buffering"], seeds=(0, 1, 2), consistency="tso"
    )
    relaxed = [
        o for o in observed if _BY_NAME["sb_store_buffering"].forbidden(dict(o))
    ]
    assert relaxed, "run_litmus returned without observing SB under tso"


def test_tso_still_forbids_message_passing():
    """TSO's FIFO drain keeps MP intact — data commits before flag."""
    observed = run_litmus(
        _BY_NAME["mp_message_passing"], seeds=DEFAULT_SEEDS, consistency="tso"
    )
    assert sum(observed.values()) == len(DEFAULT_SEEDS)


def test_pc_observes_message_passing():
    """PC's cross-location commit jitter lets the flag overtake the
    data — the partition-consistency signature."""
    run_litmus(_BY_NAME["mp_message_passing"], consistency="pc")


def test_pc_observes_2plus2w():
    run_litmus(_BY_NAME["w2plus2_write_serialization"], consistency="pc")


@pytest.mark.parametrize("model", ["tso", "pc"])
@pytest.mark.parametrize(
    "name",
    ["corr_coherent_read_read", "coww_coherent_write_write", "rmw_atomicity"],
)
def test_coherence_holds_under_relaxation(model, name):
    """Per-location order and atomic fencing survive both relaxed
    models — the store buffer is per-location FIFO and atomics drain."""
    observed = run_litmus(_BY_NAME[name], seeds=(0, 1), consistency=model)
    assert sum(observed.values()) == 2


@pytest.mark.parametrize("model", ["tso", "pc"])
def test_iriw_holds_under_relaxation(model):
    """Commits are single serialized memory-write instants, so both
    relaxed models keep store atomicity (IRIW never splits)."""
    observed = run_litmus(
        _BY_NAME["iriw_independent_reads"], seeds=(0, 1), consistency=model
    )
    assert sum(observed.values()) == 2


# -- mislabeled matrix entries fail loudly --------------------------------


def test_mislabeled_permitted_raises():
    """A cell labeled permitted whose model can never produce the
    relaxed outcome must raise once the seed budget is spent — a model
    that cannot exhibit its own relaxations is mislabeled or broken."""
    wrong = replace(_BY_NAME["mp_message_passing"], permitted_under=("tso",))
    with pytest.raises(CheckError) as exc:
        run_litmus(wrong, seeds=(0, 1), consistency="tso", observe_budget=6)
    assert "never observed" in exc.value.detail


def test_mislabeled_forbidden_raises():
    """A cell labeled forbidden whose model does produce the relaxed
    outcome must raise at the first observation — dropping a label
    cannot silently weaken the gate."""
    wrong = replace(_BY_NAME["sb_store_buffering"], permitted_under=())
    with pytest.raises(CheckError) as exc:
        run_litmus(wrong, seeds=tuple(range(12)), consistency="tso")
    assert "forbidden outcome" in exc.value.detail


def test_unknown_model_in_permitted_under_raises():
    wrong = replace(
        _BY_NAME["sb_store_buffering"], permitted_under=("tso", "weird")
    )
    with pytest.raises(CheckError) as exc:
        run_litmus(wrong, seeds=(0,))
    assert "unknown model" in exc.value.detail


def test_unknown_consistency_argument_raises():
    with pytest.raises(ValueError, match="unknown consistency"):
        run_litmus(_BY_NAME["sb_store_buffering"], consistency="tsso")


# -- the whole matrix -----------------------------------------------------


def test_matrix_records_have_verdicts():
    """A one-cell matrix run returns the verdict record shape the CI
    job and the docs table are built from."""
    rows = run_matrix(
        tests=[_BY_NAME["sb_store_buffering"]],
        models=("sc", "tso"),
        seeds=(0, 1, 2),
    )
    by_model = {r["model"]: r for r in rows}
    assert by_model["sc"]["expected"] == "forbidden"
    assert by_model["sc"]["relaxed_observed"] == 0
    assert by_model["tso"]["expected"] == "permitted"
    assert by_model["tso"]["relaxed_observed"] >= 1


@pytest.mark.parametrize("family", ["batched", "reference"])
def test_full_matrix_holds(family, reference_contexts):
    """Every cell of the model x shape matrix, on both context families
    (the shipped batched contexts and the scalar reference contexts):
    any verdict contradiction raises inside run_litmus."""
    with reference_contexts() if family == "reference" else contextlib.nullcontext():
        rows = run_matrix(seeds=DEFAULT_SEEDS)
    assert len(rows) == 3 * len(LITMUS_TESTS)
    for row in rows:
        expected = EXPECTED_MATRIX[row["test"]]
        assert row["expected"] == (
            "permitted" if row["model"] in expected else "forbidden"
        )
        if row["expected"] == "forbidden":
            assert row["relaxed_observed"] == 0
        else:
            assert row["relaxed_observed"] >= 1
