"""The paper's core contribution: the comparative measurement study.

``repro.core`` packages the methodology — equal-algorithm program pairs
on two machines with a common hardware base, a time-breakdown taxonomy,
and per-processor event counts — into a reusable harness:

* :mod:`repro.core.breakdown` — the MP and SM breakdown/count records;
* :mod:`repro.core.study` — run a program pair, produce a PairResult;
* :mod:`repro.core.experiments` — the registry mapping every table and
  figure of the paper's evaluation to a runnable configuration;
* :mod:`repro.core.tables` — paper-style rendering.

Execution (parallel workers, the on-disk result cache, serializable
run records) lives in :mod:`repro.runner`; :mod:`repro.api` is the
stable programmatic surface.
"""

from repro.core.breakdown import MpBreakdown, MpCounts, SmBreakdown, SmCounts
from repro.core.experiments import (
    EXPERIMENTS,
    ExperimentSpec,
    get_experiment,
)
from repro.core.study import PairResult

__all__ = [
    "EXPERIMENTS",
    "ExperimentSpec",
    "MpBreakdown",
    "MpCounts",
    "PairResult",
    "SmBreakdown",
    "SmCounts",
    "get_experiment",
]
