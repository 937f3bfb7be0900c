"""Per-layer attribution from outside the program.

Two instruments, both installed only in the traced run, both from this
directory (the program's source is never edited):

* :class:`LayerProfile` — a ``cProfile`` pass whose per-function self
  time and call counts are grouped by source path into the
  ``repro.<package>`` layers of :data:`LAYERS`. Call counts do not
  depend on the host; self seconds do, and cProfile inflates
  call-heavy layers, so they attribute time and never replace the
  untraced end-to-end numbers.
* :class:`SpanRecorder` — inclusive spans around calls into each
  layer's public functions (:data:`SPAN_TARGETS`), each with name,
  start, end, parent and run id, kept in memory and written out when
  the run ends. Spans are taken only inside :meth:`SpanRecorder.recording`,
  which the benchmark opens around the program's own timed work, so
  the untimed oracles' calls into the same functions are not counted.

:class:`EventCounter` is the one wrapper the untraced runs also carry:
it sums ``Engine.events_executed`` across every ``Engine.run`` call,
which costs one extra Python call per machine run (two per pair).
"""

from __future__ import annotations

import contextlib
import cProfile
import functools
import itertools
import json
import pstats
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Every layer the traced run reports ``<layer>.self_s`` and
#: ``<layer>.calls`` for, in report order.
LAYERS: Tuple[str, ...] = (
    "sim.engine", "sim.process", "sim.events", "sim.batch",
    "arch.cache", "arch.tlb", "arch.address", "arch.params",
    "memory",
    "sm.api", "sm.directory", "sm.cache_ctrl", "sm.machine", "sm.batched",
    "sm.mcs",
    "mp.api", "mp.batched", "mp.machine", "mp.netiface",
    "mp.active_messages", "mp.cmmd", "mp.collectives",
    "stats", "apps", "core",
    "runner.config", "runner.cache", "runner.record",
    "specs", "sweep", "lake",
    "other",
)

#: Source modules (relative to ``src/repro``, without ``.py``) whose
#: layer is neither their own dotted path nor their package's default.
MODULE_LAYER: Dict[str, str] = {
    "sim/resource": "sim.process",  # FIFO waiting for simulated processes
    "arch/write_buffer": "arch.cache",  # the cache's write/store buffers
    "sm/__init__": "sm.machine",
    "sm/protocol": "sm.directory",  # Dir_nNB message vocabulary
    "mp/__init__": "mp.machine",
    "runner/__init__": "runner.config",
}

#: The layer of every other module of a package: a whole-package layer,
#: or the default for modules of a split package that have no layer of
#: their own (including modules added after this table was written).
PACKAGE_LAYER: Dict[str, str] = {
    "sim": "sim.engine",  # __init__, rng: kernel services
    "arch": "arch.params",  # __init__, costs, barrier: machine tables
    "sm": "sm.api",  # parmacs, relaxed: context surfaces
    "mp": "mp.api",
    "runner": "runner.record",  # api, executor, bench: config -> record
    "memory": "memory",
    "stats": "stats",
    "apps": "apps",
    "core": "core",
    "specs": "specs",
    "sweep": "sweep",
    "lake": "lake",
    # The serve package's store is the result cache's blob layer.
    "serve": "runner.cache",
}


def layer_of(filename: str, package_dir: Path) -> str:
    """The layer a source file's functions are charged to.

    Top-level modules (``api.py``, ``cli.py``, ...) and packages absent
    from :data:`PACKAGE_LAYER` (the opt-in ``trace`` and ``check``,
    which do nothing here beyond being imported) count as ``core``.
    """
    try:
        rel = Path(filename).resolve().relative_to(package_dir)
    except ValueError:
        return "other"  # stdlib, numpy, yaml, sqlite3, this benchmark
    module = rel.with_suffix("").as_posix()
    if module in MODULE_LAYER:
        return MODULE_LAYER[module]
    dotted = module.replace("/", ".")
    if dotted in LAYERS:
        return dotted
    if len(rel.parts) == 1:
        return "core"
    return PACKAGE_LAYER.get(rel.parts[0], "core")


class LayerProfile:
    """cProfile over chosen regions, grouped into :data:`LAYERS`.

    Each :meth:`region` call profiles one timed region and adds its
    wall time to :attr:`wall`; :meth:`totals` then maps every layer
    name (zero when a layer did no work) to the summed self seconds
    and call counts of the functions whose source file belongs to it.
    """

    def __init__(self) -> None:
        self.profiler = cProfile.Profile()
        self.wall = 0.0

    def region(self, fn: Callable[[], Any]) -> Tuple[Any, float]:
        """``(fn(), seconds)`` with the profiler on for exactly that call."""
        self.profiler.enable()
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            seconds = time.perf_counter() - start
            self.profiler.disable()
            self.wall += seconds
        return result, seconds

    def totals(self, package_dir: Path) -> Tuple[Dict[str, float], Dict[str, int]]:
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        layer_cache: Dict[str, str] = {}
        for (filename, _line, _name), row in pstats.Stats(self.profiler).stats.items():
            _primitive, ncalls, tottime, _cumtime, _callers = row
            layer = layer_cache.get(filename)
            if layer is None:
                layer = layer_cache[filename] = layer_of(filename, package_dir)
            self_s[layer] += tottime
            calls[layer] += ncalls
        return self_s, calls


class EventCounter:
    """Sums kernel events over every ``Engine.run`` while installed."""

    def __init__(self) -> None:
        self.events = 0
        self._original: Optional[Callable] = None

    def install(self) -> "EventCounter":
        from repro.sim.engine import Engine

        original = self._original = Engine.run
        counter = self

        @functools.wraps(original)
        def run(engine, *args, **kwargs):
            before = engine.events_executed
            try:
                return original(engine, *args, **kwargs)
            finally:
                counter.events += engine.events_executed - before

        Engine.run = run
        return self

    def uninstall(self) -> None:
        from repro.sim.engine import Engine

        if self._original is not None:
            Engine.run = self._original
            self._original = None


#: (span name, module, attribute path) for each instrumented call. A
#: dotted attribute is a method patched on its class, so every caller
#: sees it; a plain function is rebound wherever a ``repro`` module or
#: the experiment registry holds a reference to it.
SPAN_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("core.run_pair", "repro.core.experiments", "run_em3d_pair"),
    ("core.run_pair", "repro.core.experiments", "run_lcp_pair"),
    ("core.run_pair", "repro.core.experiments", "run_gauss_pair"),
    ("apps.inputs", "repro.apps.em3d.common", "build_graph"),
    ("apps.inputs", "repro.apps.lcp.common", "generate_problem"),
    ("apps.inputs", "repro.apps.gauss.common", "generate_system"),
    ("sm.machine_init", "repro.sm.machine", "SmMachine.__init__"),
    ("mp.machine_init", "repro.mp.machine", "MpMachine.__init__"),
    ("sim.run", "repro.sim.engine", "Engine.run"),
    ("runner.build_record", "repro.runner.record", "build_record"),
    ("runner.cache_load", "repro.runner.cache", "ResultCache.load"),
    ("runner.cache_store", "repro.runner.cache", "ResultCache.store"),
    ("specs.load", "repro.specs.loader", "load_spec"),
    ("lake.ingest", "repro.lake.store", "RunLake.ingest_record"),
    ("lake.ingest", "repro.lake.store", "RunLake.ingest_sweep"),
    ("lake.ingest", "repro.lake.store", "RunLake.ingest_cache"),
    ("lake.query", "repro.lake.query", "query_runs"),
)

SPAN_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(n for n, _m, _a in SPAN_TARGETS))


class SpanRecorder:
    """In-memory spans around :data:`SPAN_TARGETS`, plus cache hit counts.

    ``install`` patches the targets; ``uninstall`` restores every
    binding it replaced. The patched calls record only inside
    :meth:`recording`. ``run_id`` tags the spans of one sample.
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self.run_id = ""
        self.active = False
        self.cache_lookups = 0
        self.cache_hits = 0
        self._stack: List[int] = []
        self._ids = itertools.count(1)
        self._restore: List[Tuple[Any, str, Any]] = []
        #: Targets that no longer exist in the program (see install).
        self.missing: List[str] = []

    # -- patching ----------------------------------------------------------

    def _wrap(self, name: str, original: Callable) -> Callable:
        recorder = self

        @functools.wraps(original)
        def spanned(*args, **kwargs):
            if not recorder.active:
                return original(*args, **kwargs)
            span_id = next(recorder._ids)
            parent = recorder._stack[-1] if recorder._stack else None
            recorder._stack.append(span_id)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                recorder._stack.pop()
                recorder.spans.append({
                    "id": span_id, "name": name, "start": start,
                    "end": time.perf_counter(), "parent": parent,
                    "run": recorder.run_id,
                })

        return spanned

    def _count_cache(self, original: Callable) -> Callable:
        recorder = self

        @functools.wraps(original)
        def load(cache, config):
            record = original(cache, config)
            if recorder.active:
                recorder.cache_lookups += 1
                recorder.cache_hits += record is not None
            return record

        return load

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> "SpanRecorder":
        import importlib

        from repro.core.experiments import EXPERIMENTS

        for name, module_name, attr in SPAN_TARGETS:
            try:
                module = importlib.import_module(module_name)
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[method]
                else:
                    original = getattr(module, attr)
            except (ImportError, AttributeError, KeyError):
                # A refactor moved the target: its span reads zero and
                # the report names it, instead of the run failing.
                self.missing.append(f"{module_name}.{attr}")
                continue
            if "." in attr:
                wrapped = self._wrap(name, original)
                if attr == "ResultCache.load":
                    wrapped = self._count_cache(wrapped)
                self._set(cls, method, wrapped)
                continue
            wrapped = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "repro" or mod is None:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)
            for spec in EXPERIMENTS.values():
                if spec.runner is original:
                    # ExperimentSpec is frozen: bypass its __setattr__.
                    self._restore.append((spec, "runner", original))
                    object.__setattr__(spec, "runner", wrapped)
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            if isinstance(owner, type):
                setattr(owner, attr, value)
            else:
                object.__setattr__(owner, attr, value)

    @contextlib.contextmanager
    def recording(self) -> Iterator[None]:
        """Take spans and count cache lookups for the duration."""
        self.active = True
        try:
            yield
        finally:
            self.active = False

    # -- results -----------------------------------------------------------

    def totals(self, run_id: str) -> Dict[str, float]:
        """Inclusive seconds per span name in one sample; nested spans of
        the same name count once."""
        spans = [s for s in self.spans if s["run"] == run_id]
        by_id = {s["id"]: s for s in spans}
        out = dict.fromkeys(SPAN_NAMES, 0.0)
        for span in spans:
            parent = by_id.get(span["parent"])
            nested = False
            while parent is not None:
                if parent["name"] == span["name"]:
                    nested = True
                    break
                parent = by_id.get(parent["parent"])
            if not nested:
                out[span["name"]] += span["end"] - span["start"]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans))
