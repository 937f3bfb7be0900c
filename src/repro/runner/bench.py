"""Kernel and end-to-end benchmark suite (``repro bench``).

Measures the discrete-event kernel's throughput in events per second on
three microbenchmarks that isolate its hot paths, plus the cache/TLB
probe rate and (optionally) wall time of small end-to-end experiment
pairs. Results are written as JSON (``BENCH_kernel.json``) so CI can
compare a fresh run against the committed baseline and fail on
regressions.

Two gate metrics: ``kernel.events_per_sec`` — the aggregate over the
three kernel microbenchmarks — and the per-app ``events_per_sec`` of
each end-to-end pair, each held to the same regression floor against
the committed baseline. Event counts come from ``Engine.run()`` return
values, so the suite runs unchanged on any kernel version (useful for
before/after comparisons).
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

SCHEMA = "repro-bench/1"

#: CI failure threshold: fail when a gated events/sec metric falls below
#: this fraction of the committed baseline.
DEFAULT_THRESHOLD = 0.75


# -- kernel microbenchmarks ---------------------------------------------------


def _bench_delay_chain(procs: int, steps: int) -> Tuple[int, float]:
    """Heap-dominated: processes advancing by mixed non-zero delays."""
    from repro.sim.engine import Engine
    from repro.sim.process import Delay, Process

    engine = Engine()
    mix = (1, 2, 3, 5, 0)

    def body():
        for i in range(steps):
            yield Delay(mix[i % 5])

    for p in range(procs):
        Process(engine, body(), name=f"p{p}")
    start = time.perf_counter()
    events = engine.run()
    return events, time.perf_counter() - start


def _bench_zero_delay(procs: int, steps: int) -> Tuple[int, float]:
    """Due-lane dominated: concurrent processes yielding Delay(0)."""
    from repro.sim.engine import Engine
    from repro.sim.process import Delay, Process

    engine = Engine()

    def body():
        for _ in range(steps):
            yield Delay(0)

    for p in range(procs):
        Process(engine, body(), name=f"z{p}")
    start = time.perf_counter()
    events = engine.run()
    return events, time.perf_counter() - start


def _bench_pingpong(rounds: int) -> Tuple[int, float]:
    """Wake-up dominated: two processes handing off through SimEvents."""
    from repro.sim.engine import Engine
    from repro.sim.events import SimEvent
    from repro.sim.process import Delay, Process, Wait

    engine = Engine()
    events = [SimEvent(name=str(i)) for i in range(2 * rounds)]

    def server():
        for i in range(rounds):
            yield Wait(events[2 * i])
            yield Delay(1)
            events[2 * i + 1].fire(i)

    def client():
        for i in range(rounds):
            yield Delay(1)
            events[2 * i].fire(i)
            yield Wait(events[2 * i + 1])

    Process(engine, server(), name="server")
    Process(engine, client(), name="client")
    start = time.perf_counter()
    executed = engine.run()
    return executed, time.perf_counter() - start


def _bench_cache_hot(ops: int) -> Tuple[int, float]:
    """Hit-path probe rate: cache.lookup + tlb.access on resident blocks."""
    import numpy as np

    from repro.arch.cache import Cache, LineState
    from repro.arch.tlb import Tlb

    rng = np.random.default_rng(7)
    cache = Cache(8 * 1024, 4, 32, rng, name="bench")
    tlb = Tlb(64, 4096)
    blocks = [i * 32 for i in range(64)]
    for block in blocks:
        cache.insert(block, LineState.SHARED)
        tlb.access(block)
    lookup = cache.lookup
    access = tlb.access
    start = time.perf_counter()
    for i in range(ops):
        lookup(blocks[i & 63])
        access(blocks[i & 63])
    return 2 * ops, time.perf_counter() - start


def _best_of(fn: Callable[[], Tuple[int, float]], repeats: int) -> Tuple[int, float]:
    best: Optional[Tuple[int, float]] = None
    for _ in range(repeats):
        count, seconds = fn()
        if best is None or seconds < best[1]:
            best = (count, seconds)
    assert best is not None
    return best


#: Small-config overrides for the end-to-end app benchmarks — the same
#: shapes the determinism tests pin golden cycle counts for.
APP_CONFIGS: Dict[str, Dict[str, Any]] = {
    "gauss": {"procs": 4, "app": {"n": 64}},
    "em3d": {"procs": 4, "app": {"nodes_per_proc": 40, "degree": 4, "iterations": 3}},
    "mse": {"procs": 4, "app": {"bodies": 16, "elements_per_body": 4, "iterations": 3}},
}


def _bench_apps(log: Callable[[str], None]) -> List[Dict[str, Any]]:
    """Wall time of small experiment pairs (one full mp+sm simulation each)."""
    from repro.core.experiments import EXPERIMENTS

    rows: List[Dict[str, Any]] = []
    for exp_id, overrides in APP_CONFIGS.items():
        spec = EXPERIMENTS[exp_id]
        config = spec.config.with_overrides(overrides)
        start = time.perf_counter()
        pair = spec.runner(config)
        seconds = time.perf_counter() - start
        events = 0
        for result in (pair.mp_result, pair.sm_result):
            machine = getattr(result, "machine", None)
            engine = getattr(machine, "engine", None)
            events += getattr(engine, "events_executed", 0) or 0
        row = {
            "experiment": exp_id,
            "seconds": round(seconds, 4),
            "events": events,
            "events_per_sec": round(events / seconds) if events and seconds else None,
        }
        rows.append(row)
        log(f"  app {exp_id:<8} {seconds:8.3f}s  {events:>8} events  "
            f"{events / seconds:>10.0f} ev/s")
    return rows


def _git_sha() -> Optional[str]:
    """Short commit SHA of the source tree, or None outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def platform_meta(quick: bool = False) -> Dict[str, Any]:
    """Provenance block stored in benchmark JSON: baselines are only
    comparable between runs taken on the same platform and code."""
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "git_sha": _git_sha(),
        "quick": quick,
    }


def run_benchmarks(
    quick: bool = False,
    apps: bool = True,
    log: Optional[Callable[[str], None]] = None,
) -> Dict[str, Any]:
    """Run the suite; returns the JSON-ready result document."""
    if log is None:
        def log(message: str) -> None:
            print(message, file=sys.stderr, flush=True)

    scale = 4 if quick else 1
    repeats = 2 if quick else 3
    benches = [
        ("delay_chain", lambda: _bench_delay_chain(8, 8000 // scale)),
        ("zero_delay", lambda: _bench_zero_delay(4, 20000 // scale)),
        ("pingpong", lambda: _bench_pingpong(10000 // scale)),
    ]
    total_events = 0
    total_seconds = 0.0
    rows: List[Dict[str, Any]] = []
    for name, fn in benches:
        events, seconds = _best_of(fn, repeats)
        total_events += events
        total_seconds += seconds
        rows.append(
            {
                "name": name,
                "events": events,
                "seconds": round(seconds, 4),
                "events_per_sec": round(events / seconds),
            }
        )
        log(f"  {name:<12} {events:>8} events  {seconds:6.3f}s  "
            f"{events / seconds:>10.0f} ev/s")
    ops, seconds = _best_of(lambda: _bench_cache_hot(100000 // scale), repeats)
    cache_row = {
        "name": "cache_hot",
        "ops": ops,
        "seconds": round(seconds, 4),
        "ops_per_sec": round(ops / seconds),
    }
    log(f"  {'cache_hot':<12} {ops:>8} ops     {seconds:6.3f}s  "
        f"{ops / seconds:>10.0f} op/s")

    document: Dict[str, Any] = {
        "schema": SCHEMA,
        "kernel": {
            "events": total_events,
            "seconds": round(total_seconds, 4),
            "events_per_sec": round(total_events / total_seconds),
            "benches": rows,
            "cache_hot": cache_row,
        },
        "meta": platform_meta(quick=quick),
    }
    log(f"  {'KERNEL':<12} {total_events:>8} events  {total_seconds:6.3f}s  "
        f"{total_events / total_seconds:>10.0f} ev/s")
    if apps:
        document["apps"] = _bench_apps(log)
    return document


def compare(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    threshold: float = DEFAULT_THRESHOLD,
    app_threshold: Optional[float] = None,
) -> Tuple[bool, str]:
    """Gate the fresh run against a baseline document.

    Returns ``(ok, message)``. ``ok`` is False when the aggregate kernel
    events/sec — or any per-app events/sec present in both documents —
    fell below the floor times the baseline's. ``app_threshold``
    defaults to ``threshold``.
    """
    if app_threshold is None:
        app_threshold = threshold
    ok = True
    lines: List[str] = []

    current_rate = current["kernel"]["events_per_sec"]
    baseline_rate = baseline.get("kernel", {}).get("events_per_sec")
    if not baseline_rate:
        lines.append("baseline has no kernel.events_per_sec; skipping kernel gate")
    else:
        ratio = current_rate / baseline_rate
        ok &= ratio >= threshold
        lines.append(
            f"kernel events/sec: current {current_rate} vs baseline "
            f"{baseline_rate} ({ratio:.2f}x, floor {threshold:.2f}x)"
        )

    baseline_apps = {
        row["experiment"]: row
        for row in baseline.get("apps") or []
        if row.get("events_per_sec")
    }
    for row in current.get("apps") or []:
        base = baseline_apps.get(row["experiment"])
        rate = row.get("events_per_sec")
        if base is None or not rate:
            continue
        ratio = rate / base["events_per_sec"]
        ok &= ratio >= app_threshold
        lines.append(
            f"app {row['experiment']} events/sec: current {rate} vs baseline "
            f"{base['events_per_sec']} ({ratio:.2f}x, floor {app_threshold:.2f}x)"
        )

    # Old baselines predate the meta block; only warn when both sides
    # recorded a platform and they disagree.
    current_platform = (current.get("meta") or {}).get("platform")
    baseline_platform = (baseline.get("meta") or {}).get("platform")
    if baseline_platform and current_platform and baseline_platform != current_platform:
        lines.append(
            f"note: baseline was taken on a different platform "
            f"({baseline_platform}); the ratios are indicative only"
        )
    return ok, "\n".join(lines)


def load_baseline(path: str) -> Optional[Dict[str, Any]]:
    """Read a baseline document; None when the file does not exist."""
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
