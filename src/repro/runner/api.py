"""High-level harness entry points.

* :func:`run_raw` — run one experiment in this process and return the
  *raw* result object (a :class:`~repro.core.study.PairResult` or
  result dict), memoized per configuration for the lifetime of the
  interpreter. This is what shape checks that compare against a
  baseline run, the executor's workers and the per-table
  ``benchmarks/`` checks use.
* :func:`record_for` — one experiment as a serializable
  :class:`~repro.runner.record.RunRecord`, served from the on-disk
  cache when possible (zero simulation on a warm cache).
* :func:`execute` — the fan-out driver behind ``python -m repro run``:
  cache lookups, dependency-aware grouping, multiprocessing, progress
  reporting, and cache write-back.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Any, Dict, Mapping, Optional, Sequence

from repro.runner.cache import ResultCache, cache_key
from repro.runner.config import ExperimentConfig
from repro.runner.executor import default_jobs, plan_groups, run_parallel
from repro.runner.record import RunRecord, build_record

#: In-process memo of raw results, keyed by the content address.
#: Raw results hold live machine objects, so they cannot live on disk;
#: the disk cache stores the serializable records instead.
_MEMO: Dict[str, Any] = {}


def resolve_config(
    exp_id: str, overrides: Optional[Mapping[str, Any]] = None
) -> ExperimentConfig:
    """An experiment's default config, with sweep overrides applied."""
    from repro.core.experiments import get_experiment

    config = get_experiment(exp_id).config
    if overrides:
        config = config.with_overrides(overrides)
    return config


def run_raw(exp_id: str, overrides: Optional[Mapping[str, Any]] = None) -> Any:
    """Run one experiment in-process; memoized per configuration."""
    from repro.core.experiments import get_experiment

    spec = get_experiment(exp_id)
    config = resolve_config(exp_id, overrides)
    key = cache_key(config)
    if key not in _MEMO:
        _MEMO[key] = spec.runner(config)
    return _MEMO[key]


def clear_memory_cache() -> None:
    """Drop the in-process raw-result memo (tests use this)."""
    _MEMO.clear()


def record_for(
    exp_id: str,
    overrides: Optional[Mapping[str, Any]] = None,
    cache: Optional[ResultCache] = None,
    use_cache: bool = True,
    force: bool = False,
) -> RunRecord:
    """One experiment's record: disk cache first, then an in-process run."""
    from repro.core.experiments import get_experiment

    spec = get_experiment(exp_id)
    config = resolve_config(exp_id, overrides)
    cache = cache if cache is not None else ResultCache()
    if use_cache and not force:
        hit = cache.load(config)
        if hit is not None:
            return hit
    start = time.perf_counter()
    result = run_raw(exp_id, overrides)
    record = build_record(spec, config, result, time.perf_counter() - start)
    if use_cache:
        cache.store(record)
    return record


def execute(
    exp_ids: Sequence[str],
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    use_cache: bool = True,
    force: bool = False,
    progress=None,
    overrides: Optional[Mapping[str, Mapping[str, Any]]] = None,
) -> "OrderedDict[str, RunRecord]":
    """Run many experiments: cached records served, the rest fanned out.

    ``overrides`` maps exp_id to that experiment's sweep overrides.
    ``progress`` (if given) is called with each finished
    :class:`RunRecord` — cached ones immediately, live ones as their
    worker delivers them. Returns records keyed by exp_id, in the
    requested order.
    """
    jobs = default_jobs() if jobs is None else max(1, jobs)
    cache = cache if cache is not None else ResultCache()
    overrides = overrides or {}

    records: Dict[str, RunRecord] = {}
    to_run = []
    for exp_id in exp_ids:
        config = resolve_config(exp_id, overrides.get(exp_id))
        hit = cache.load(config) if use_cache and not force else None
        if hit is not None:
            records[exp_id] = hit
            if progress is not None:
                progress(hit)
        else:
            to_run.append((exp_id, overrides.get(exp_id)))

    if to_run:

        def collect(record: RunRecord) -> None:
            # Write back as each record arrives: an interrupted --all
            # keeps its finished experiments.
            records[record.exp_id] = record
            if use_cache:
                cache.store(record)
            if progress is not None:
                progress(record)

        run_parallel(plan_groups(to_run), jobs=jobs, progress=collect)

    return OrderedDict((exp_id, records[exp_id]) for exp_id in exp_ids)
