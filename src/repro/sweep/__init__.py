"""Declarative sensitivity sweeps over the experiment harness.

The paper's strongest conclusions are *sensitivity* statements — how
the MP/SM balance moves with network latency, cache size, and
processor count. :mod:`repro.sweep` turns each such statement into a
declarative :class:`SweepSpec` (experiment + axes + derived metrics +
machine-checked curve shape), an engine that serves warm points from
the result cache and fans the cold ones out over the parallel
executor, one point per group, and serializable :class:`SweepResult`
artifacts (JSON, CSV, ASCII plots).

>>> from repro.sweep import get_sweep, run_sweep
>>> result = run_sweep(get_sweep("em3d-latency"))
>>> result.all_ok
True
"""

from repro.sweep.analysis import find_crossover, monotone, speedup_vs_first
from repro.sweep.axes import (
    axis_overrides,
    known_axes,
    merge_overrides,
    parse_axis_flag,
    parse_axis_value,
)
from repro.sweep.engine import latest_manifest, result_path, run_sweep
from repro.sweep.plot import render_plot, render_plots
from repro.sweep.result import SWEEP_SCHEMA, SweepResult, load_result
from repro.sweep.spec import CrossoverSpec, SweepPoint, SweepSpec


def __getattr__(name: str):
    # Lazy, to avoid a circular import with repro.specs (which builds
    # SweepSpec objects from YAML and therefore imports this package's
    # submodules): the canonical YAML resolver.
    if name == "get_sweep":
        from repro.specs import get_sweep

        return get_sweep
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "SWEEP_SCHEMA",
    "CrossoverSpec",
    "SweepPoint",
    "SweepResult",
    "SweepSpec",
    "axis_overrides",
    "find_crossover",
    "get_sweep",
    "known_axes",
    "latest_manifest",
    "load_result",
    "merge_overrides",
    "monotone",
    "parse_axis_flag",
    "parse_axis_value",
    "render_plot",
    "render_plots",
    "result_path",
    "run_sweep",
    "speedup_vs_first",
]
