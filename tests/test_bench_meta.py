"""Benchmark provenance metadata and baseline tolerance."""

from repro.runner import bench


def test_platform_meta_records_provenance():
    meta = bench.platform_meta(quick=True)
    assert meta["quick"] is True
    assert meta["python"]
    assert meta["platform"]
    assert isinstance(meta["cpu_count"], int) and meta["cpu_count"] >= 1
    # git_sha is a short hex string inside a checkout, None outside one.
    assert meta["git_sha"] is None or (
        isinstance(meta["git_sha"], str) and len(meta["git_sha"]) >= 7
    )


def _doc(rate, meta=None):
    doc = {"kernel": {"events_per_sec": rate}}
    if meta is not None:
        doc["meta"] = meta
    return doc


def test_compare_tolerates_baseline_without_meta():
    ok, message = bench.compare(_doc(100, meta=bench.platform_meta()), _doc(100))
    assert ok
    assert "different platform" not in message


def test_compare_warns_on_platform_mismatch_without_failing():
    current = _doc(100, meta={"platform": "here"})
    baseline = _doc(100, meta={"platform": "elsewhere"})
    ok, message = bench.compare(current, baseline)
    assert ok
    assert "different platform" in message
    assert "elsewhere" in message


def _app_row(exp, rate):
    return {"experiment": exp, "events_per_sec": rate}


def test_compare_gates_each_app_at_the_floor():
    baseline = dict(_doc(100), apps=[_app_row("gauss", 1000), _app_row("mse", 1000)])
    healthy = dict(_doc(100), apps=[_app_row("gauss", 900), _app_row("mse", 800)])
    ok, message = bench.compare(healthy, baseline)
    assert ok
    assert "app gauss" in message and "app mse" in message

    regressed = dict(_doc(100), apps=[_app_row("gauss", 900), _app_row("mse", 500)])
    ok, message = bench.compare(regressed, baseline)
    assert not ok
    assert "app mse" in message and "0.50x" in message


def test_compare_kernel_gate_still_fails_alone():
    ok, _ = bench.compare(_doc(50), _doc(100))
    assert not ok


def test_compare_ignores_apps_missing_from_baseline():
    current = dict(_doc(100), apps=[_app_row("new_app", 10)])
    ok, message = bench.compare(current, _doc(100))
    assert ok
    assert "new_app" not in message


def test_app_threshold_defaults_to_threshold():
    baseline = dict(_doc(100), apps=[_app_row("gauss", 1000)])
    current = dict(_doc(100), apps=[_app_row("gauss", 600)])
    ok, _ = bench.compare(current, baseline, threshold=0.5)
    assert ok
    ok, _ = bench.compare(current, baseline, threshold=0.5, app_threshold=0.7)
    assert not ok
