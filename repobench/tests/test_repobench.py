"""The benchmark's own tests: quick runs, declared metrics, the gate.

    python3 -m pytest repobench/tests -q

Not part of tier-1 (``testpaths`` is ``tests``). The seed self-tests run
the full-size ``lcp`` and ``em3d`` pairs, so the file takes about a
minute.
"""

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repobench import bench, host, layers, workloads

ROOT = Path(__file__).resolve().parents[2]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def declared(kind):
    return {(m["name"], m["unit"]) for m in DECLARED[kind]}


def emitted(result):
    return {(name, metric["unit"]) for name, metric in result.metrics.items()}


def one_sample(tmp_path, name="em3d", seed=1994, quick=True, **kwargs):
    workload = workloads.make(name, seed, quick=quick)
    counter = layers.EventCounter().install()
    try:
        return bench.run_sample(
            workload, tmp_path, 0, counter,
            warm_rule=bench.ONE_PASS, lake_rule=bench.ONE_PASS, **kwargs,
        )
    finally:
        counter.uninstall()


# -- declared names ---------------------------------------------------------


def test_declared_workloads_and_metrics_match_the_code():
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)
    assert set(bench.END_TO_END) == declared("end_to_end")
    assert set(bench.PER_LAYER) == declared("per_layer")
    assert len(bench.PER_LAYER) == len(set(bench.PER_LAYER)) == 88


def test_every_source_file_has_a_layer():
    package = ROOT / "src" / "repro"
    for path in package.rglob("*.py"):
        layer = layers.layer_of(str(path), package)
        assert layer in layers.LAYERS and layer != "other", path


# -- quick-size runs --------------------------------------------------------


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_quick_untraced_run_reports_every_end_to_end_metric(name, tmp_path):
    result = bench.untraced_run(
        workloads.make(name, 1994, quick=True), tmp_path, ROOT,
        seconds=0.1, min_samples=1, setup_launches=1,
    )
    assert result.failed == 0, [s.errors for s in result.samples]
    assert emitted(result) == declared("end_to_end")
    assert all(m["value"] > 0 for m in result.metrics.values())
    line = json.loads(result.line())
    assert line["correct"] and line["attempted"] == 1 and line["failed"] == 0


def test_quick_traced_run_reports_every_per_layer_metric(tmp_path):
    from repro.sim.engine import Engine

    original_run = Engine.run
    result, recorder = bench.traced_run(
        workloads.make("em3d", 1994, quick=True), tmp_path, ROOT
    )
    assert result.failed == 0, [s.errors for s in result.samples]
    assert emitted(result) == declared("per_layer")
    values = {name: m["value"] for name, m in result.metrics.items()}
    assert all(v is not None for v in values.values())
    assert values["runner.cache_hit_frac"] == 1.0
    assert values["trace.overhead_x"] > 1.0
    assert values["sim.events"] > 0
    for span in ("core.run_pair", "apps.inputs", "sim.run", "sm.machine_init",
                 "mp.machine_init", "runner.cache_store", "lake.query"):
        assert values[f"{span}.span_s"] > 0, span
    # The layers' self seconds, ``other`` included, cover the profiled wall.
    assert 0.9 < result.detail["self_s_coverage"] <= 1.05
    assert {s["run"] for s in recorder.spans} == {"em3d-1994-1"}
    assert all(
        set(s) == {"id", "name", "start", "end", "parent", "run"}
        for s in recorder.spans
    )
    # Every patch is undone.
    assert Engine.run is original_run


def test_span_target_moved_by_a_refactor_is_reported_not_fatal(monkeypatch):
    monkeypatch.setattr(layers, "SPAN_TARGETS", layers.SPAN_TARGETS + (
        ("sim.run", "repro.sim.engine", "Engine.gone"),
        ("apps.inputs", "repro.apps.em3d.common", "gone"),
    ))
    recorder = layers.SpanRecorder().install()
    recorder.uninstall()
    assert recorder.missing == [
        "repro.sim.engine.Engine.gone", "repro.apps.em3d.common.gone",
    ]


def test_spans_cover_the_program_and_not_the_oracles(tmp_path, monkeypatch):
    # The oracles call the same input generators the program does; a
    # span taken outside the timed regions would show as an extra call.
    def span_counts(name):
        recorder = layers.SpanRecorder().install()
        try:
            sample = one_sample(tmp_path, name, recorder=recorder)
        finally:
            recorder.uninstall()
        assert sample.ok, sample.errors
        return Counter(s["name"] for s in recorder.spans)

    with_oracles = {name: span_counts(name) for name in ("em3d", "lcp")}
    monkeypatch.setattr(
        workloads, "CHECKS", {"em3d": lambda *_: [], "lcp": lambda *_: []}
    )
    for name, counts in with_oracles.items():
        assert counts == span_counts(name), name
        assert counts["apps.inputs"] == 2, name  # one per program of the pair


# -- the gate ----------------------------------------------------------------


def test_clean_sample_passes(tmp_path):
    sample = one_sample(tmp_path)
    assert sample.ok, sample.errors
    assert sample.events > 0 and len(sample.digest) == 64


def test_corrupted_cache_record_is_a_failed_sample(tmp_path):
    def corrupt(cache):
        (path,) = cache.directory.glob("*.json")
        data = json.loads(path.read_text())
        data["summary"]["sm"]["overall"]["total"] += 1.0
        path.write_text(json.dumps(data))

    sample = one_sample(tmp_path, after_cold=corrupt)
    assert not sample.ok
    assert "warm records differ from the cold records" in sample.errors


def test_unreadable_cache_record_is_a_failed_sample(tmp_path):
    def truncate(cache):
        (path,) = cache.directory.glob("*.json")
        path.write_text(path.read_text()[:100])

    sample = one_sample(tmp_path, after_cold=truncate)
    assert not sample.ok
    assert "warm pass simulated instead of reading the cache" in sample.errors


def test_mismatched_digest_is_a_failed_sample(tmp_path):
    sample = one_sample(tmp_path, expect_digest="0" * 64)
    assert not sample.ok
    assert any("simulated digest" in e for e in sample.errors)


def test_failed_samples_count_against_attempts():
    good = bench.Sample(index=0)
    bad = bench.Sample(index=1, errors=["boom"])
    line = json.loads(bench.RunResult([good, bad], {}, {}).line())
    assert line == {"correct": False, "attempted": 2, "failed": 1, "metrics": {}}


# -- seeds -------------------------------------------------------------------


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_seed_reaches_run_and_app_configs(name):
    for seed in (1994, 7):
        configs = workloads.make(name, seed).resolve()
        assert {c.seed for c in configs} == {c.app.seed for c in configs} == {seed}


def test_lcp_seeds_differ_in_inputs_but_not_in_events(tmp_path):
    a = one_sample(tmp_path, "lcp", 1994, quick=False)
    b = one_sample(tmp_path, "lcp", 7, quick=False)
    assert a.ok and b.ok, (a.errors, b.errors)
    assert a.digest != b.digest
    assert a.events == b.events


def test_em3d_events_stay_within_two_percent_across_seeds(tmp_path):
    a = one_sample(tmp_path, "em3d", 1994, quick=False)
    b = one_sample(tmp_path, "em3d", 7, quick=False)
    assert a.ok and b.ok, (a.errors, b.errors)
    assert a.digest != b.digest
    assert abs(a.events - b.events) <= 0.02 * a.events


# -- host and command line ---------------------------------------------------


def test_worker_check_refuses_more_workers_than_the_affinity():
    host.check_workers(1)
    with pytest.raises(RuntimeError, match="refusing"):
        host.check_workers(host.allowed_cpus() + 1)


def test_cli_run_prints_the_result_last():
    out = subprocess.run(
        [sys.executable, "repobench/run.py", "--workload", "lcp", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]
    assert any(line.startswith("digest lcp seed=3 ") for line in lines)


def test_checkout_without_program_source_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "repobench", tmp_path / "repobench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    out = subprocess.run(
        [sys.executable, "repobench/run.py", "--workload", "lcp", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout
