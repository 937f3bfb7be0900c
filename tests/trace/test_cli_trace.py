"""`repro trace` CLI: emission, cache attachment, re-render without re-run."""

import json

import pytest

from repro import cli
from repro.runner.api import resolve_config
from repro.runner.cache import ResultCache
from repro.trace.chrome import validate_chrome_trace
from repro.trace.timeline import render_timeline


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    directory = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(directory))
    return directory


def test_trace_unknown_experiment_fails_fast(cache_dir, capsys):
    assert cli.main(["trace", "no-such-experiment"]) == 2
    assert "no-such-experiment" in capsys.readouterr().err


def test_trace_emits_valid_json_and_attaches_to_record(cache_dir, capsys):
    assert cli.main(["trace", "validation"]) == 0
    out = capsys.readouterr().out
    assert "trace:" in out

    record = ResultCache().load(resolve_config("validation"))
    assert record is not None
    assert record.trace_path
    doc = json.loads(open(record.trace_path).read())
    assert validate_chrome_trace(doc) == []
    assert doc["otherData"]["experiment"] == "validation"

    timeline = render_timeline(doc)
    assert "machine" in timeline and "Total" in timeline


def test_trace_rerenders_from_cache_without_resimulating(cache_dir, tmp_path, capsys):
    assert cli.main(["trace", "validation"]) == 0
    capsys.readouterr()
    assert cli.main(["trace", "validation"]) == 0
    out = capsys.readouterr().out
    assert "cached; --force re-simulates" in out
    # The warm copy creates a new --out directory, as the cold write does.
    copy_path = tmp_path / "new" / "t.json"
    assert cli.main(["trace", "validation", "--out", str(copy_path)]) == 0
    assert "cached; --force re-simulates" in capsys.readouterr().out
    assert validate_chrome_trace(json.loads(copy_path.read_text())) == []


def test_trace_out_and_procs_options(cache_dir, tmp_path, capsys):
    out_path = tmp_path / "t.json"
    assert cli.main(
        ["trace", "validation", "--out", str(out_path), "--procs", "0", "--max-events", "500"]
    ) == 0
    doc = json.loads(out_path.read_text())
    assert validate_chrome_trace(doc) == []
    cycle_tids = {
        e["tid"]
        for e in doc["traceEvents"]
        if e["ph"] == "X" and e.get("cat") == "cycles"
    }
    assert cycle_tids <= {0}
    # A sliced trace must not be attached to the cached record.
    record = ResultCache().load(resolve_config("validation"))
    assert record is None


def test_parse_procs_accepts_ranges_and_lists():
    assert cli._parse_procs("0-3") == [0, 1, 2, 3]
    assert cli._parse_procs("0,2,5-6") == [0, 2, 5, 6]
    with pytest.raises(ValueError):
        cli._parse_procs(",")
