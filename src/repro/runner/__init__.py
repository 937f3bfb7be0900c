"""The experiment harness: configs, records, cache, and the executor.

``repro.runner`` turns the registry of :mod:`repro.core.experiments`
into a production-shaped run pipeline:

* :mod:`repro.runner.config` — :class:`ExperimentConfig`, the frozen,
  picklable parameterization every runner is a pure function of;
* :mod:`repro.runner.record` — :class:`RunRecord`, the serializable
  outcome (breakdowns, counts, shape checks, timings) that can be
  rendered, compared, and exported without re-simulating;
* :mod:`repro.runner.cache` — :class:`ResultCache`, the
  content-addressed on-disk store under ``.repro_cache/``;
* :mod:`repro.runner.executor` — the multiprocessing fan-out that runs
  independent experiments in worker processes (``--jobs N``);
* :mod:`repro.runner.api` — the high-level entry points
  (:func:`~repro.runner.api.execute`, :func:`~repro.runner.api.run_raw`)
  the CLI, fidelity scorecard, sweeps and serve layer are built on.

See ``docs/runner.md`` for the cache-key scheme and the execution
model.
"""

from repro.runner.api import execute, record_for, run_raw
from repro.runner.cache import ResultCache, cache_key, record_is_fresh
from repro.runner.config import ExperimentConfig
from repro.runner.record import RunRecord

__all__ = [
    "ExperimentConfig",
    "ResultCache",
    "RunRecord",
    "cache_key",
    "execute",
    "record_for",
    "record_is_fresh",
    "run_raw",
]
