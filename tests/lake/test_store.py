"""RunLake ingestion: idempotency, provenance columns, salt freshness."""

import pytest

import repro.runner.cache as cache_mod
from repro.lake import RunLake, infer_preset, record_metrics
from repro.runner.cache import ResultCache
from tests.lake.conftest import TINY_EM3D


def test_reingest_adds_zero_rows(lake, em3d_records):
    before = lake.counts()
    for record in em3d_records:
        assert lake.ingest_record(record) is False
    assert lake.counts() == before


def test_ingest_cache_is_idempotent(tmp_path):
    from repro.runner.api import record_for

    record_for("em3d", dict(TINY_EM3D))  # lands in the per-test cache dir
    cache = ResultCache()
    with RunLake(tmp_path / "lake.sqlite") as lake:
        assert lake.ingest_cache(cache) == (1, 1)
        assert lake.ingest_cache(cache) == (0, 1)
        assert lake.counts()["runs"] == 1


def test_preset_provenance_column(lake):
    presets = {row["preset"] for row in lake.run_rows()}
    assert presets == {"paper", "multicore"}


def test_preset_inferred_for_legacy_records(tmp_path, em3d_records):
    # Records written before RunRecord.preset existed carry no preset
    # field; the lake reconstructs it from the resolved machine params.
    paper, multicore = em3d_records
    with RunLake(tmp_path / "lake.sqlite") as lake:
        for record in (paper, multicore):
            data = record.to_jsonable()
            data.pop("preset", None)
            assert lake.ingest_record(data)
        presets = {row["preset"] for row in lake.run_rows()}
    assert presets == {"paper", "multicore"}


def test_infer_preset_direct(em3d_records):
    paper, multicore = em3d_records
    assert infer_preset(paper.to_jsonable()["config"]) == "paper"
    assert infer_preset(multicore.to_jsonable()["config"]) == "multicore"
    import copy

    perturbed = copy.deepcopy(paper.to_jsonable()["config"])
    perturbed["machine"]["net_latency"] = 9999
    assert infer_preset(perturbed) == "custom"
    assert infer_preset({}) == "unknown"


def test_fresh_rows_and_stats(lake):
    stats = lake.stats()
    assert stats["runs"] == 2
    assert stats["fresh_runs"] == 2
    assert stats["stale_runs"] == 0
    assert stats["salt"] == cache_mod.CODE_SALT
    assert all(row["fresh"] for row in lake.run_rows())


def test_salt_bump_marks_rows_stale_at_query_time(lake, monkeypatch):
    monkeypatch.setattr(cache_mod, "CODE_SALT", "repro-runner-vNEXT")
    assert not any(row["fresh"] for row in lake.run_rows())
    stats = lake.stats()
    assert stats["fresh_runs"] == 0
    assert stats["stale_runs"] == 2


def test_record_stale_at_ingest_gets_pre_salt(tmp_path, em3d_records, monkeypatch):
    # Bump the salt before ingest: the record was built under the old
    # salt, so the lake can only say it predates the current one.
    monkeypatch.setattr(cache_mod, "CODE_SALT", "repro-runner-vNEXT")
    with RunLake(tmp_path / "lake.sqlite") as lake:
        assert lake.ingest_record(em3d_records[0])
        (row,) = list(lake.run_rows())
    assert row["salt"].startswith("pre-")
    assert row["fresh"] is False


def test_record_metrics_projects_registry_and_breakdown(em3d_records):
    summary = em3d_records[0].to_jsonable()["summary"]
    metrics = record_metrics(summary)
    assert metrics["sm_over_mp"] == pytest.approx(
        metrics["sm_total"] / metrics["mp_total"]
    )
    # The per-side cycle-breakdown components land as mp_*/sm_* columns.
    assert any(k.startswith("mp_") and k != "mp_total" for k in metrics)
    assert any(k.startswith("sm_") and k != "sm_total" for k in metrics)


def test_metrics_rows_written_once_per_run(lake):
    counts = lake.counts()
    assert counts["metrics"] > counts["runs"]  # several metrics per run
    row = next(lake.run_rows())
    assert isinstance(row["sm_over_mp"], float)


def _v1_lake(path):
    """A hand-made schema-v1 lake: the old ``runs.backend NOT NULL``."""
    import sqlite3

    conn = sqlite3.connect(str(path))
    conn.executescript(
        "CREATE TABLE lake_meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);"
        "INSERT INTO lake_meta VALUES ('lake_schema', '1');"
        "CREATE TABLE runs (cache_key TEXT PRIMARY KEY, exp_id TEXT NOT NULL,"
        " backend TEXT NOT NULL, consistency TEXT NOT NULL);"
    )
    conn.commit()
    conn.close()
    return path


def test_lake_of_another_schema_is_refused(tmp_path):
    from repro.lake import LAKE_SCHEMA, LakeSchemaError

    path = _v1_lake(tmp_path / "old.sqlite")
    with pytest.raises(LakeSchemaError) as excinfo:
        RunLake(path)
    message = str(excinfo.value)
    assert "schema-v1" in message and f"schema v{LAKE_SCHEMA}" in message
    assert "fresh path" in message


@pytest.mark.parametrize(
    "argv", [["lake", "ingest"], ["lake", "stats"], ["query"]]
)
def test_cli_exits_1_on_a_lake_of_another_schema(tmp_path, argv, capsys):
    from repro.cli import main

    path = _v1_lake(tmp_path / "old.sqlite")
    assert main([*argv, "--lake-path", str(path)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "schema-v1" in err
