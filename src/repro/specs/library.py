"""Named callables YAML specs reference: checks, derives, extra metrics.

A sweep's *data* (axes, metrics, overrides, crossovers) serializes
cleanly to YAML, but its machine-checked claim is a callable — and a
callable cannot live in a data file. The bridge is this library: every
shape-check, derive post-pass, and extra-metric set has a stable name,
and a YAML spec references it by that name (``checks: em3d-latency``,
``derive: speedup-vs-first``). The loader resolves names through these
registries with the CLI's did-you-mean errors, so a YAML-loaded spec
carries the *same function objects* a Python registration would — which
is what makes the YAML↔Python parity bit-identical (dataclass equality
included).
"""

from __future__ import annotations

import difflib
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.sweep.analysis import fmt_series, monotone
from repro.sweep.spec import SweepCheck, SweepPoint

#: Named extra-metric sets (sweep-local metric functions shadowing or
#: extending :mod:`repro.stats.metrics`). Empty by default; projects
#: and tests register entries to make scalar-summary experiments
#: sweepable from YAML.
EXTRA_METRICS: Dict[str, Mapping[str, Callable[[Mapping], float]]] = {}


# ---------------------------------------------------------------------------
# Shape checks (the machine-checked claims the shipped sweeps pin).
# ---------------------------------------------------------------------------


def check_em3d_latency(result: Any) -> List[SweepCheck]:
    _xs, ratio = result.series("sm_over_mp")
    return [
        (
            "sm/mp cycle ratio grows with network latency",
            monotone(ratio, increasing=True, strict=True),
            f"sm_over_mp: {fmt_series(ratio)}",
        ),
        (
            "mp wins at every swept latency (ratio stays above 1)",
            min(ratio) > 1.0,
            f"min sm_over_mp = {min(ratio):.3f}",
        ),
    ]


def check_em3d_modern(result: Any) -> List[SweepCheck]:
    xs, ratio = result.series("sm_over_mp")
    by_preset = dict(zip(xs, ratio))
    return [
        (
            "mp wins em3d on every machine table (ratio stays above 1)",
            min(ratio) > 1.0,
            f"min sm_over_mp = {min(ratio):.3f}",
        ),
        (
            "the memory wall widens mp's win on the multicore table",
            by_preset["multicore"] > by_preset["paper"],
            f"paper {by_preset['paper']:.2f} -> "
            f"multicore {by_preset['multicore']:.2f}",
        ),
        (
            "cross-node latency widens it further on the cluster table",
            by_preset["cluster"] > by_preset["multicore"],
            f"multicore {by_preset['multicore']:.2f} -> "
            f"cluster {by_preset['cluster']:.2f}",
        ),
    ]


def check_em3d_cache(result: Any) -> List[SweepCheck]:
    _xs, share = result.series("sm_data_access_share")
    return [
        (
            "sm data-access share falls as the cache grows",
            monotone(share, increasing=False, strict=True),
            f"sm_data_access_share: {fmt_series(share)}",
        ),
    ]


def check_gauss_speedup(result: Any) -> List[SweepCheck]:
    checks: List[SweepCheck] = []
    for key in ("mp", "sm"):
        _xs, speedup = result.series(f"{key}_speedup")
        checks.append(
            (
                f"{key} speedup is monotone through the swept procs",
                monotone(speedup, increasing=True, strict=True),
                f"{key}_speedup: {fmt_series(speedup)}",
            )
        )
    return checks


# ---------------------------------------------------------------------------
# Derive post-passes (per-point metrics computed over the whole grid).
# ---------------------------------------------------------------------------


def derive_speedups(points: List[SweepPoint]) -> None:
    """Per-version parallel speedup against the sweep's first point."""
    for key in ("mp", "sm"):
        base = points[0].metrics[f"{key}_total"]
        for point in points:
            total = point.metrics[f"{key}_total"]
            point.metrics[f"{key}_speedup"] = base / total if total else 0.0


# ---------------------------------------------------------------------------
# The registries YAML names resolve through.
# ---------------------------------------------------------------------------

CHECKS: Dict[str, Callable[[Any], List[SweepCheck]]] = {
    "em3d-latency": check_em3d_latency,
    "em3d-cache": check_em3d_cache,
    "em3d-modern": check_em3d_modern,
    "gauss-speedup": check_gauss_speedup,
}

DERIVES: Dict[str, Callable[[List[SweepPoint]], None]] = {
    "speedup-vs-first": derive_speedups,
}


def resolve_named(
    kind: str,
    name: str,
    registry: Mapping[str, Any],
    where: str = "",
) -> Any:
    """Look one named callable up, with a did-you-mean on typos."""
    try:
        return registry[name]
    except KeyError:
        known = sorted(registry)
        matches = difflib.get_close_matches(name, known, n=1, cutoff=0.4)
        hint = f" (did you mean {matches[0]!r}?)" if matches else ""
        suffix = f" in {where}" if where else ""
        raise ValueError(
            f"unknown {kind} {name!r}{suffix}{hint}; known: {known}"
        ) from None


def resolve_checks(name: str, where: str = "") -> Callable[[Any], List[SweepCheck]]:
    return resolve_named("checks callable", name, CHECKS, where)


def resolve_derive(name: str, where: str = "") -> Callable[[List[SweepPoint]], None]:
    return resolve_named("derive callable", name, DERIVES, where)


def resolve_extra_metrics(
    name: str, where: str = ""
) -> Optional[Mapping[str, Callable[[Mapping], float]]]:
    return resolve_named("extra-metrics set", name, EXTRA_METRICS, where)
