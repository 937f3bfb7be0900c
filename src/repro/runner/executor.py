"""Multiprocessing fan-out over independent experiments.

The paper's evaluation is embarrassingly parallel: each experiment is
an independent pair of machine simulations. The executor partitions
the requested experiments into *groups* that must share a process —
an experiment whose shape checks compare against a baseline run (its
spec's ``after`` tuple, e.g. ``em3d_bigcache`` against ``em3d``) runs
in the same worker as that baseline so the in-process memo serves the
comparison — and fans the groups out over worker processes.

Workers are started with the ``spawn`` method: each one imports the
package fresh, so no parent in-process state can leak into a worker
run. Determinism is preserved — every simulation is a pure function of
its seeded :class:`~repro.runner.config.ExperimentConfig`, so a worker
run produces bit-identical cycle counts to an in-process run (the
test suite asserts this).
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.runner.record import RunRecord

#: One unit of worker work: (exp_id, overrides-or-None).
WorkItem = Tuple[str, Optional[Mapping[str, Any]]]


def default_jobs() -> int:
    """The default ``--jobs``: every core the scheduler gives us."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


def group_root(exp_id: str) -> str:
    """The transitive baseline an experiment's checks depend on."""
    from repro.core.experiments import get_experiment

    seen = set()
    current = exp_id
    while True:
        spec = get_experiment(current)
        if not spec.after or current in seen:
            return current
        seen.add(current)
        current = spec.after[0]


def plan_groups(items: Sequence[WorkItem]) -> List[List[WorkItem]]:
    """Partition work into process-affine groups, registry order kept.

    An experiment whose checks compare against a baseline run (its
    spec's ``after`` chain) shares a group — and thus a worker's
    in-process memo — with the first item of that baseline; every
    other item, a repeated experiment's sweep point included, is a
    group of its own.
    """
    from repro.core.experiments import EXPERIMENTS

    order = {exp_id: i for i, exp_id in enumerate(EXPERIMENTS)}
    groups: Dict[Any, List[WorkItem]] = {}
    baselines = set()
    for index, item in enumerate(items):
        root = group_root(item[0])
        if item[0] == root:
            if root in baselines:
                root = index  # a repeat: its own group
            baselines.add(item[0])
        groups.setdefault(root, []).append(item)
    planned = [
        sorted(group, key=lambda item: order.get(item[0], len(order)))
        for group in groups.values()
    ]
    planned.sort(key=lambda group: order.get(group[0][0], len(order)))
    return planned


def run_group(items: Sequence[WorkItem]) -> List[RunRecord]:
    """Run one group serially in this process, memoizing each raw result."""
    from repro.core.experiments import get_experiment
    from repro.runner.api import resolve_config, run_raw
    from repro.runner.record import build_record

    records: List[RunRecord] = []
    for exp_id, overrides in items:
        spec = get_experiment(exp_id)
        config = resolve_config(exp_id, overrides)
        start = time.perf_counter()
        result = run_raw(exp_id, overrides)
        record = build_record(spec, config, result, time.perf_counter() - start)
        records.append(record)
    return records


def run_worker_group(items: Sequence[WorkItem]) -> List[RunRecord]:
    """The worker entry point: :func:`run_group`, then drop the memo.

    Nothing in a pool worker reads a finished group's raw results
    again. Top-level, since it is pickled by name for the worker.
    """
    from repro.runner.api import clear_memory_cache

    try:
        return run_group(items)
    finally:
        clear_memory_cache()


def run_parallel(
    groups: Sequence[Sequence[WorkItem]],
    jobs: int,
    progress=None,
) -> List[RunRecord]:
    """Fan groups out over ``jobs`` spawned worker processes.

    With ``jobs <= 1`` or a single group the groups run in this
    process instead: one worker could only add its start-up cost, and
    it would re-import a clean registry that lacks any experiment
    registered at run time in this process. Results are reported to
    ``progress`` as each group completes; the returned list is
    unordered.
    """
    if jobs > 1 and len(groups) > 1:
        return run_in_workers(groups, jobs, progress)
    records: List[RunRecord] = []
    for group in groups:
        batch = run_group(group)
        records.extend(batch)
        if progress is not None:
            for record in batch:
                progress(record)
    return records


def run_in_workers(
    groups: Sequence[Sequence[WorkItem]],
    jobs: int,
    progress=None,
) -> List[RunRecord]:
    """Run groups in at most ``jobs`` spawned worker processes, always."""
    records: List[RunRecord] = []
    context = multiprocessing.get_context("spawn")
    workers = min(jobs, len(groups))
    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
        pending = {pool.submit(run_worker_group, list(group)) for group in groups}
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                batch = future.result()  # propagate worker failures
                records.extend(batch)
                if progress is not None:
                    for record in batch:
                        progress(record)
    return records
