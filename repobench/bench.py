"""Samples, the correctness gate, and the untraced and traced runs.

A *sample* is one cold repetition of a workload into a fresh result
cache (timed), its output oracles (untimed), a block of warm passes
answered from that cache (timed, repeated until the block is well over
the timer's noise), and a block of lake passes: create a fresh
:class:`repro.lake.RunLake`, ingest the cache into it and answer the
``api.query`` projection (timed, repeated likewise). Every sample is gated; a sample
that fails any check counts as failed and contributes no timing.

An *untraced run* takes samples until its time budget is spent, with
set-up measured in fresh interpreters launched between them, and
reports medians (the fastest pass for the millisecond warm and lake
passes, see :func:`fastest`). A *traced run* takes three samples at the
same seed — untraced, with spans, and under cProfile — and reports the
per-layer numbers; its simulated digests must equal the untraced one.
The instruments are on only in the timed regions, so they attribute
the program's own work and none of the benchmark's checks.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro import api
from repro.core.fidelity import PAIR_KEYS, assess_pair, summarize
from repro.lake import RunLake

from repobench import host, workloads
from repobench.layers import (
    LAYERS,
    SPAN_NAMES,
    EventCounter,
    LayerProfile,
    SpanRecorder,
)

#: (name, unit) of every end-to-end metric (``--trace 0``).
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("wall_s", "s"),
    ("events_per_s", "1/s"),
    ("setup_s", "s"),
    ("warm_s", "s"),
    ("query_s", "s"),
    ("peak_rss_mb", "MB"),
    ("paper_err_pp", "pp"),
)

#: Simulated counts read from the cold records: (name, unit, reader).
SIM_COUNTS: Tuple[Tuple[str, str, Callable[[Dict[str, Any]], float]], ...] = (
    ("sm.shared_misses_local", "count",
     lambda s: s["sm_counts"]["shared_misses_local"]),
    ("sm.shared_misses_remote", "count",
     lambda s: s["sm_counts"]["shared_misses_remote"]),
    ("sm.write_faults", "count", lambda s: s["sm_counts"]["write_faults"]),
    ("sm.data_bytes", "bytes", lambda s: s["sm_counts"]["data_bytes"]),
    ("sm.control_bytes", "bytes", lambda s: s["sm_counts"]["control_bytes"]),
    ("sm.data_access_cycles", "cycles",
     lambda s: s["sm"]["overall"]["data_access"]),
    ("sm.synchronization_cycles", "cycles",
     lambda s: s["sm"]["overall"]["synchronization"]),
    ("mp.messages_sent", "count", lambda s: s["mp_counts"]["messages_sent"]),
    ("mp.bytes_transmitted", "bytes",
     lambda s: s["mp_counts"]["bytes_transmitted"]),
    ("mp.communication_cycles", "cycles",
     lambda s: s["mp"]["overall"]["communication"]),
)

#: (name, unit) of every per-layer metric (``--trace 1``).
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    tuple((f"{layer}.{kind}", unit) for layer in LAYERS
          for kind, unit in (("self_s", "s"), ("calls", "count")))
    + (("sim.events", "count"),)
    + tuple((name, unit) for name, unit, _read in SIM_COUNTS)
    + tuple((f"{span}.span_s", "s") for span in SPAN_NAMES)
    + (("runner.cache_hit_frac", "ratio"), ("trace.overhead_x", "x"))
)

#: Lake columns the query pass projects and checks against the records.
QUERY_METRICS = (
    "mp_total", "sm_total", "sm_over_mp",
    "mp_computation", "mp_communication",
    "sm_computation", "sm_data_access", "sm_synchronization",
)

#: A timed warm or lake block repeats its pass until it has run at
#: least this long (and at least ``min_passes`` times).
BLOCK_SECONDS = 0.3

#: Untraced runs take at least this many samples, whatever the budget.
MIN_SAMPLES = 3

#: Fresh-interpreter launches whose median is ``setup_s``: launched
#: between samples whenever they have taken under ``SETUP_SHARE`` of the
#: run so far, and at least ``SETUP_LAUNCHES`` in all.
SETUP_LAUNCHES = 5
SETUP_SHARE = 0.08


@dataclasses.dataclass(frozen=True)
class Block:
    """Repetition rule for a timed warm or lake block."""

    min_passes: int = 5
    min_seconds: float = BLOCK_SECONDS


ONE_PASS = Block(min_passes=1, min_seconds=0.0)


@dataclasses.dataclass
class Sample:
    """One gated repetition."""

    index: int
    wall_s: float = 0.0
    events: int = 0
    #: Seconds of every timed warm / lake pass, in order.
    warm_passes: List[float] = dataclasses.field(default_factory=list)
    query_passes: List[float] = dataclasses.field(default_factory=list)
    digest: str = ""
    records: List[api.RunRecord] = dataclasses.field(default_factory=list)
    claims: List[str] = dataclasses.field(default_factory=list)
    cache_hit_frac: Optional[float] = None
    errors: List[str] = dataclasses.field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


# ---------------------------------------------------------------------------
# Checks.
# ---------------------------------------------------------------------------


def digest(records: List[api.RunRecord], events: int, outputs: str) -> str:
    """SHA-256 of what was simulated: the records' summaries and check
    verdicts, the kernel event count, and the programs' output values
    (``outputs``, see :func:`workloads.fingerprint`). Host timings and
    cache keys (which move with the code salt) are left out, so two
    commits that simulate the same thing at one seed print the same
    digest. The outputs matter on ``lcp``: at a fixed step count its
    cycle counts do not depend on the matrix, but its iterate does."""
    items = sorted(
        json.dumps([r.exp_id, r.summary, r.checks], sort_keys=True)
        for r in records
    )
    payload = json.dumps(
        {"events": events, "records": items, "outputs": outputs}, sort_keys=True
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _stored_form(record: api.RunRecord) -> Dict[str, Any]:
    return json.loads(json.dumps(record.to_jsonable(), sort_keys=True))


def check_warm(cold: List[api.RunRecord], warm: List[api.RunRecord]) -> List[str]:
    """Warm records must be cache hits equal to the cold records."""
    errors = []
    if not all(r.cached for r in warm):
        errors.append("warm pass returned a record that was not a cache hit")
    expected = {r.cache_key: _stored_form(r) for r in cold}
    got = {r.cache_key: _stored_form(r) for r in warm}
    if got != expected:
        errors.append("warm records differ from the cold records")
    return errors


def _lake_expected(record: api.RunRecord) -> Tuple[Any, ...]:
    summary = record.summary
    values = []
    for name in QUERY_METRICS:
        if name == "sm_over_mp":
            values.append(float(summary["sm_relative_to_mp"]))
        else:
            side, key = name.split("_", 1)
            values.append(float(summary[side]["overall"][key]))
    return (record.exp_id, record.config["procs"], *values)


def check_lake(records: List[api.RunRecord], rows: List[Dict[str, Any]]) -> List[str]:
    """The lake's projection must equal the records' own numbers."""
    expected = sorted(_lake_expected(r) for r in records)
    got = sorted(
        (row["exp_id"], row["procs"], *(row[m] for m in QUERY_METRICS))
        for row in rows
    )
    return [] if got == expected else ["lake query rows differ from the records"]


def claims_of(records: List[api.RunRecord], sweeps: List[Any]) -> List[str]:
    """Failed shape-check claims, as ``"<where>: <check> (<detail>)"``."""
    failed = [
        f"{r.exp_id}[procs={r.config['procs']}]: {name} ({detail})"
        for r in records for name, ok, detail in r.checks if not ok
    ]
    failed += [
        f"{s.spec_name}: {name} ({detail})"
        for s in sweeps for name, ok, detail in s.checks if not ok
    ]
    return failed


def paper_error(records: List[api.RunRecord]) -> float:
    """Mean absolute error (pp) of the records against the paper's tables."""
    rows = [
        row for r in records if r.exp_id in PAIR_KEYS
        for row in assess_pair(r.exp_id, record=r)
    ]
    return summarize(rows)["mean_abs_error_pp"]


# ---------------------------------------------------------------------------
# One sample.
# ---------------------------------------------------------------------------


def _measure(
    fn: Callable[[], Any],
    profile: Optional[LayerProfile],
    recorder: Optional[SpanRecorder],
) -> Tuple[Any, float]:
    """``(fn(), seconds)``, with the traced run's instruments on for
    exactly that call."""
    recording = recorder.recording() if recorder else contextlib.nullcontext()
    with recording:
        if profile is not None:
            return profile.region(fn)
        start = time.perf_counter()
        result = fn()
        return result, time.perf_counter() - start


def _block(
    one_pass: Callable[[int], Any],
    rule: Block,
    profile: Optional[LayerProfile],
    recorder: Optional[SpanRecorder],
) -> Tuple[Any, List[float]]:
    """Repeat ``one_pass(n)`` per ``rule``; returns the last result and
    every pass's seconds."""
    gc.collect()
    times: List[float] = []
    result = None
    start = time.perf_counter()
    while (len(times) < rule.min_passes
           or time.perf_counter() - start < rule.min_seconds):
        n = len(times)
        result, seconds = _measure(lambda: one_pass(n), profile, recorder)
        times.append(seconds)
    return result, times


def run_id(workload: workloads.Workload, index: int) -> str:
    """The id shared by every span of one sample."""
    return f"{workload.name}-{workload.seed}-{index}"


def run_sample(
    workload: workloads.Workload,
    workdir: Path,
    index: int,
    counter: EventCounter,
    warm_rule: Block = Block(),
    lake_rule: Block = Block(),
    profile: Optional[LayerProfile] = None,
    recorder: Optional[SpanRecorder] = None,
    expect_digest: Optional[str] = None,
    after_cold: Optional[Callable[[api.ResultCache], None]] = None,
) -> Sample:
    """One gated repetition of ``workload``; never raises.

    ``after_cold`` runs between the cold repetition and the warm block
    (the benchmark's tests use it to corrupt the cache).
    """
    sample = Sample(index=index)
    where = workdir / f"sample{index}"
    if recorder is not None:
        recorder.run_id = run_id(workload, index)
    try:
        cache = api.ResultCache(where / "cache")
        api.clear_memory_cache()
        before = counter.events
        gc.collect()
        cold, sample.wall_s = _measure(lambda: workload.cold(cache), profile, recorder)
        sample.events = counter.events - before
        sample.records = cold.records
        if sample.events <= 0:
            sample.errors.append("cold repetition simulated no events")
        workload.read_outputs(cold)
        sample.errors += workloads.check_outputs(cold)
        outputs = workloads.fingerprint(cold)
        api.clear_memory_cache()  # drop the live machines
        sample.claims = claims_of(cold.records, cold.sweeps)
        if workload.gate_claims:
            sample.errors += [f"shape check failed: {c}" for c in sample.claims]
        if after_cold is not None:
            after_cold(cache)

        if recorder is not None:
            recorder.cache_lookups = recorder.cache_hits = 0
        before = counter.events
        simulated = []

        def warm_pass(_n: int) -> List[api.RunRecord]:
            records, count = workload.warm(cache, cold)
            simulated.append(count)
            return records

        warm, sample.warm_passes = _block(warm_pass, warm_rule, profile, recorder)
        if counter.events != before or any(simulated):
            sample.errors.append("warm pass simulated instead of reading the cache")
        sample.errors += check_warm(cold.records, warm)
        if recorder is not None:
            sample.cache_hit_frac = recorder.cache_hits / max(recorder.cache_lookups, 1)
            if sample.cache_hit_frac != 1.0:
                sample.errors.append(
                    f"warm cache hit fraction {sample.cache_hit_frac} != 1.0"
                )

        def lake_pass(n: int) -> List[Dict[str, Any]]:
            with RunLake(where / f"lake{n}.sqlite") as lake:
                workload.ingest(lake, cache, cold)
                return api.query(metrics=QUERY_METRICS, lake=lake)

        rows, sample.query_passes = _block(lake_pass, lake_rule, profile, recorder)
        sample.errors += check_lake(cold.records, rows)

        sample.digest = digest(cold.records, sample.events, outputs)
        if expect_digest is not None and sample.digest != expect_digest:
            sample.errors.append(
                f"simulated digest {sample.digest[:16]} != {expect_digest[:16]}"
            )
    except Exception as exc:  # a failed sample is counted, not fatal
        sample.errors.append(f"{type(exc).__name__}: {exc}")
    finally:
        api.clear_memory_cache()
        shutil.rmtree(where, ignore_errors=True)
    return sample


# ---------------------------------------------------------------------------
# Set-up, measured from outside.
# ---------------------------------------------------------------------------


class SetupProbe:
    """Fresh interpreters doing the workload's set-up, timed from outside.

    Each launch imports ``repro.api``, loads the workload's specs and
    resolves its configs (``setup_probe.py``); launches run one at a
    time.
    """

    def __init__(self, root: Path, workload: workloads.Workload) -> None:
        host.check_workers(1)
        self.expected = str(len(workload.resolve()))
        self.command = [
            sys.executable, "-E", "-s", str(root / "repobench" / "setup_probe.py"),
            "--workload", workload.name, "--seed", str(workload.seed),
        ] + (["--quick"] if workload.quick else [])
        self.root = root
        self.times: List[float] = []

    def launch(self) -> None:
        start = time.perf_counter()
        out = subprocess.run(
            self.command, cwd=self.root, capture_output=True, text=True,
            timeout=120,
        )
        self.times.append(time.perf_counter() - start)
        if out.returncode != 0 or out.stdout.split() != [self.expected]:
            raise RuntimeError(
                f"set-up probe failed (exit {out.returncode}): "
                f"{out.stdout.strip()} {out.stderr.strip()[-400:]}"
            )


# ---------------------------------------------------------------------------
# Runs.
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class RunResult:
    samples: List[Sample]
    metrics: Dict[str, Dict[str, Any]]
    detail: Dict[str, Any]

    @property
    def attempted(self) -> int:
        return len(self.samples)

    @property
    def failed(self) -> int:
        return sum(1 for s in self.samples if not s.ok)

    def line(self) -> str:
        return json.dumps({
            "correct": self.failed == 0 and bool(self.samples),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        })


def fastest(values: Iterable[float]) -> float:
    """The fastest of the pooled pass times of a run.

    Warm and lake passes last milliseconds, inside the host's contention
    phases: on a shared 2-CPU host the same warm pass runs about 1.8x
    slower for stretches of 0.1-1 s, so a median or decile of passes
    lands in whichever phase dominated the run. The fastest pass is the
    uncontended cost; across runs it moved by ~7%, against 15-30% for
    the median. The cold repetitions last long enough to average over
    the phases and keep the median.
    """
    return min(values)


def _metric_table(values: Dict[str, Any], units: Tuple[Tuple[str, str], ...]):
    return {name: {"value": values.get(name), "unit": unit} for name, unit in units}


def untraced_run(
    workload: workloads.Workload,
    workdir: Path,
    root: Path,
    seconds: float,
    min_samples: int = MIN_SAMPLES,
    setup_launches: int = SETUP_LAUNCHES,
) -> RunResult:
    """Gated samples until ``seconds`` is spent, with the set-up launches
    spread between them (:data:`SETUP_SHARE` of the time) so that
    ``setup_s`` does not sample one moment of the host."""
    start = time.perf_counter()
    probe = SetupProbe(root, workload)
    counter = EventCounter().install()
    samples: List[Sample] = []
    durations: List[float] = []
    expect = None
    try:
        while True:
            while sum(probe.times) <= SETUP_SHARE * (time.perf_counter() - start):
                probe.launch()
            began = time.perf_counter()
            sample = run_sample(
                workload, workdir, len(samples), counter, expect_digest=expect
            )
            durations.append(time.perf_counter() - began)
            samples.append(sample)
            if expect is None and sample.ok:
                expect = sample.digest
            spent = time.perf_counter() - start
            if (len(samples) >= min_samples
                    and spent + statistics.median(durations) > seconds):
                break
        while len(probe.times) < setup_launches:
            probe.launch()
    finally:
        counter.uninstall()
    setup = probe.times
    good = [s for s in samples if s.ok]
    values: Dict[str, Any] = {}
    if good:
        values = {
            "wall_s": statistics.median(s.wall_s for s in good),
            "events_per_s": statistics.median(s.events / s.wall_s for s in good),
            "warm_s": fastest(p for s in good for p in s.warm_passes),
            "query_s": fastest(p for s in good for p in s.query_passes),
            "paper_err_pp": paper_error(good[0].records),
        }
    values["setup_s"] = statistics.median(setup)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    detail = {"setup_launches_s": setup, "digest": expect}
    return RunResult(samples, _metric_table(values, END_TO_END), detail)


def traced_run(
    workload: workloads.Workload, workdir: Path, root: Path
) -> Tuple[RunResult, SpanRecorder]:
    """Untraced, spanned and profiled samples at one seed."""
    workload.resolve()  # lazy imports land here, not in the base sample
    counter = EventCounter().install()
    recorder = SpanRecorder()
    profile = LayerProfile()
    rules = dict(warm_rule=ONE_PASS, lake_rule=ONE_PASS)
    try:
        base = run_sample(workload, workdir, 0, counter, **rules)
        expect = base.digest if base.ok else None
        recorder.install()
        try:
            spanned = run_sample(workload, workdir, 1, counter, recorder=recorder,
                                 expect_digest=expect, **rules)
        finally:
            recorder.uninstall()
        profiled = run_sample(workload, workdir, 2, counter, profile=profile,
                              expect_digest=expect, **rules)
    finally:
        counter.uninstall()
    samples = [base, spanned, profiled]
    if expect is None:
        return RunResult(samples, _metric_table({}, PER_LAYER), {}), recorder

    values: Dict[str, Any] = {}
    self_s, calls = profile.totals(root / "src" / "repro")
    for layer in LAYERS:
        values[f"{layer}.self_s"] = self_s[layer]
        values[f"{layer}.calls"] = calls[layer]
    values["sim.events"] = base.events
    for name, _unit, read in SIM_COUNTS:
        values[name] = sum(
            float(read(r.summary)) for r in base.records
            if r.summary.get("kind") == "pair"
        )
    for span, total in recorder.totals(run_id(workload, 1)).items():
        values[f"{span}.span_s"] = total
    values["runner.cache_hit_frac"] = spanned.cache_hit_frac
    values["trace.overhead_x"] = profiled.wall_s / base.wall_s
    detail = {
        "digest": expect,
        "profiled_wall_s": profile.wall,
        "self_s_sum": sum(self_s.values()),
        "self_s_coverage": sum(self_s.values()) / profile.wall,
        "missing_span_targets": recorder.missing,
    }
    return RunResult(samples, _metric_table(values, PER_LAYER), detail), recorder
