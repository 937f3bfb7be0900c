"""High-level harness entry points.

* :func:`run_raw` — run one experiment in this process and return the
  *raw* result object (a :class:`~repro.core.study.PairResult` or
  result dict), memoized per configuration for the lifetime of the
  interpreter. This is what shape checks that compare against a
  baseline run, the executor's groups and the per-table
  ``benchmarks/`` checks use.
* :func:`run_items` — the one run driver behind the two below and
  the sweep engine: ``(exp_id, overrides)`` items to their records,
  cache first, the rest fanned out over worker processes.
* :func:`record_for` — one experiment as a serializable
  :class:`~repro.runner.record.RunRecord`, served from the on-disk
  cache when possible (zero simulation on a warm cache).
* :func:`execute` — ``python -m repro run``: records by experiment id.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.runner.cache import ResultCache, cache_key
from repro.runner.config import ExperimentConfig
from repro.runner.executor import WorkItem, default_jobs, plan_groups, run_parallel
from repro.runner.record import RunRecord

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


def run_items(
    items: Sequence[WorkItem],
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    use_cache: bool = True,
    force: bool = False,
    progress: Optional[Callable[[int, RunRecord, bool], None]] = None,
    before_run: Optional[Callable[[Dict[int, ExperimentConfig]], None]] = None,
) -> List[RunRecord]:
    """The one run driver: each item's record, in item order, cache first.

    Each item's config is resolved once. Items with equal configs look
    up and simulate once and share the record; equality is on the
    frozen config, whose hash is far cheaper than its content address.
    Cold items run as :func:`~repro.runner.executor.plan_groups` groups
    and each record is stored as it arrives, so an interrupted run
    keeps its finished items. ``before_run(pending)`` gets the configs
    still to simulate, by item index, before the first simulation.
    ``progress(index, record, simulated)`` fires once per item; only
    the one item per config that ran says ``simulated``.
    """
    jobs = default_jobs() if jobs is None else max(1, jobs)
    cache = cache if cache is not None else ResultCache()
    load = use_cache and not force
    records: List[Any] = [None] * len(items)
    looked_up: Dict[Any, Optional[RunRecord]] = {}
    waiting: Dict[str, List[int]] = {}  # content address -> item indices
    pending: Dict[int, ExperimentConfig] = {}
    to_run: List[WorkItem] = []

    def deliver(index: int, record: RunRecord, simulated: bool) -> None:
        records[index] = record
        if progress is not None:
            progress(index, record, simulated)

    for index, (exp_id, overrides) in enumerate(items):
        config = resolve_config(exp_id, overrides)
        share: Any = config
        try:
            hash(config)
        except TypeError:  # a list-valued override: unhashable, unshared
            share = index
        if share not in looked_up:
            looked_up[share] = cache.load(config) if load else None
        hit = looked_up[share]
        if hit is not None:
            deliver(index, hit, False)
            continue
        key = cache_key(config)
        if key not in waiting:
            waiting[key] = []
            to_run.append((exp_id, overrides))
        waiting[key].append(index)
        pending[index] = config

    if to_run:
        if before_run is not None:
            before_run(pending)

        def collect(record: RunRecord) -> None:
            if use_cache:
                cache.store(record)
            for n, index in enumerate(waiting.pop(record.cache_key)):
                deliver(index, record, n == 0)

        run_parallel(plan_groups(to_run), jobs=jobs, progress=collect)
    return records


def record_for(
    exp_id: str,
    overrides: Optional[Mapping[str, Any]] = None,
    cache: Optional[ResultCache] = None,
    use_cache: bool = True,
    force: bool = False,
) -> RunRecord:
    """One experiment's record: disk cache first, then an in-process run."""
    return run_items(
        [(exp_id, overrides)], jobs=1, cache=cache, use_cache=use_cache,
        force=force,
    )[0]


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
    overrides = overrides or {}
    records = run_items(
        [(exp_id, overrides.get(exp_id)) for exp_id in exp_ids],
        jobs=jobs, cache=cache, use_cache=use_cache, force=force,
        progress=None if progress is None else lambda _i, record, _s: progress(record),
    )
    return OrderedDict(zip(exp_ids, records))
