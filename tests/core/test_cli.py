"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.core import experiments
from repro.runner.api import clear_memory_cache
from repro.runner.config import ExperimentConfig


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "em3d" in out
    assert "Tables" in out


def test_run_requires_experiments(capsys):
    assert main(["run"]) == 2


def test_run_unknown_experiment_fails_fast(capsys):
    assert main(["run", "nope"]) == 2
    err = capsys.readouterr().err
    assert "unknown experiment 'nope'" in err


def test_run_validation(capsys):
    assert main(["run", "validation", "--jobs", "1"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out
    assert "Section 4.1" in out


def test_run_serves_second_invocation_from_cache(capsys):
    assert main(["run", "validation", "--jobs", "1"]) == 0
    capsys.readouterr()
    clear_memory_cache()
    assert main(["run", "validation", "--jobs", "1"]) == 0
    out = capsys.readouterr().out
    assert "(cache hit)" in out
    assert "[PASS]" in out


def test_run_json_export(tmp_path, capsys):
    out_path = tmp_path / "records.json"
    assert main(["run", "validation", "--jobs", "1", "--json", str(out_path)]) == 0
    records = json.loads(out_path.read_text())
    assert len(records) == 1
    assert records[0]["exp_id"] == "validation"
    assert records[0]["checks"]
    assert all(ok for _n, ok, _d in records[0]["checks"])
    assert records[0]["cache_key"]
    # An export into a directory that does not exist yet creates it.
    nested = tmp_path / "new" / "dir" / "records.json"
    assert main(["run", "validation", "--jobs", "1", "--json", str(nested)]) == 0
    assert json.loads(nested.read_text()) == records


def test_run_failing_checks_exit_code(monkeypatch, capsys):
    spec = experiments.ExperimentSpec(
        id="fake_fail",
        title="always fails",
        paper_tables="none",
        description="test-only",
        runner=lambda config: {"v": 1},
        config=ExperimentConfig(exp_id="fake_fail"),
        shape=lambda r: [("doomed", False, "intentional")],
        paper={"n/a": 0},
    )
    monkeypatch.setitem(experiments.EXPERIMENTS, "fake_fail", spec)
    clear_memory_cache()
    assert main(["run", "fake_fail", "--jobs", "1", "--no-cache"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] doomed" in out
    clear_memory_cache()


def test_run_at_jobs_2_sees_an_in_process_experiment(monkeypatch, capsys):
    """One group runs in this process at any --jobs, so an experiment
    registered at run time (unknown to a fresh worker) still runs."""
    spec = experiments.ExperimentSpec(
        id="fake_jobs",
        title="registered in-process",
        paper_tables="none",
        description="test-only",
        runner=lambda config: {"v": 1},
        config=ExperimentConfig(exp_id="fake_jobs"),
        shape=lambda r: [("ran", True, "ok")],
        paper={"n/a": 0},
    )
    monkeypatch.setitem(experiments.EXPERIMENTS, "fake_jobs", spec)
    clear_memory_cache()
    assert main(["run", "fake_jobs", "--jobs", "2"]) == 0
    assert "[PASS] ran: ok" in capsys.readouterr().out
    clear_memory_cache()


@pytest.mark.parametrize("command", ["run", "check", "query"])
def test_backend_flag_is_a_usage_error(command):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--backend", "reference"])
    assert excinfo.value.code == 2


def test_cache_ls_and_clear(capsys):
    assert main(["cache", "ls"]) == 0
    assert "cache empty" in capsys.readouterr().out
    assert main(["run", "validation", "--jobs", "1"]) == 0
    capsys.readouterr()
    assert main(["cache", "ls"]) == 0
    assert "validation" in capsys.readouterr().out
    assert main(["cache", "clear"]) == 0
    assert "removed 1 records" in capsys.readouterr().out
    assert main(["cache", "ls"]) == 0
    assert "cache empty" in capsys.readouterr().out


def test_parser_rejects_no_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])
    with pytest.raises(SystemExit) as excinfo:
        main(["bench"])
    assert excinfo.value.code == 2


def test_parser_run_flags():
    args = build_parser().parse_args(
        ["run", "--all", "--jobs", "4", "--json", "out.json", "--force"]
    )
    assert args.all and args.jobs == 4 and args.json == "out.json"
    assert args.force and not args.no_cache


# -- memory-model and machine-preset flags -----------------------------------


def test_check_unknown_consistency_is_usage_error(capsys):
    """A typo'd model name must be a did-you-mean usage error (exit 2),
    never a silently skipped shape (exit 0)."""
    assert main(["check", "--litmus", "--consistency", "tsso"]) == 2
    err = capsys.readouterr().err
    assert "unknown consistency 'tsso'" in err
    assert "did you mean 'tso'" in err


def test_run_unknown_consistency_is_usage_error(capsys):
    assert main(["run", "validation", "--consistency", "sq"]) == 2
    err = capsys.readouterr().err
    assert "unknown consistency 'sq'" in err


def test_run_unknown_preset_is_usage_error(capsys):
    assert main(["run", "validation", "--preset", "multicre"]) == 2
    err = capsys.readouterr().err
    assert "did you mean 'multicore'" in err


def test_check_litmus_under_tso(capsys):
    assert main(["check", "--litmus", "--consistency", "tso",
                 "--litmus-seeds", "2"]) == 0
    out = capsys.readouterr().out
    assert "consistency=tso" in out
    assert "relaxed outcome observed (permitted)" in out  # sb shape
    assert "[FAIL]" not in out


def test_check_matrix(capsys):
    assert main(["check", "--matrix", "--litmus-seeds", "2"]) == 0
    out = capsys.readouterr().out
    assert "litmus matrix: 27 cells" in out
    assert "[FAIL]" not in out


def test_run_with_preset_and_consistency(capsys):
    assert main(["run", "validation", "--jobs", "1", "--no-cache",
                 "--preset", "multicore", "--consistency", "tso"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out
