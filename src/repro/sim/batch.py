"""Declared bulk runs: the batch script shared by both machine contexts.

A :class:`BatchScript` is a small op table an application inner loop
builds once per logical step and hands to ``ctx.run_batch``. On the
scalar reference contexts (the base ``SmContext``/``MpContext``, kept
as the differential oracle) the script is decomposed into the exact scalar
``read``/``write``/``compute`` calls the program would have made, so a
batch is purely a *declaration* of already-consecutive operations — it
can never reorder them. The batched contexts execute the same table as
one step: contiguous cache-block runs are probed in bulk and only the
ops that actually stall fall back to the scalar protocol path, which is
what makes the two context families bit-identical by construction.

Ops are stored as plain tuples keyed by kind; ``values`` for a write or
scatter may be a callable receiving the list of results produced so far
(reads and gathers append to it, in op order). The callable is evaluated
at the op's position, so a read feeding the following write of the same
batch sees exactly the values the scalar program would have computed.
"""

from __future__ import annotations

import difflib
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

#: Pre-redesign keyword names, mapped to their unified replacements.
_LEGACY_KWARGS = {"lo": "start", "hi": "stop"}


def reject_unknown_kwargs(method: str, kwargs: dict, allowed: Sequence[str]) -> None:
    """Raise TypeError with a did-you-mean hint for a stray keyword.

    The context ops accept ``**kwargs`` only to produce this error: the
    unified signature is ``(region, start, stop, values=...)`` and the
    old ``lo=``/``hi=`` spellings name their replacements explicitly,
    matching the strict ``with_overrides`` idiom of the runner configs.
    """
    if not kwargs:
        return
    name = next(iter(kwargs))
    hint = _LEGACY_KWARGS.get(name)
    if hint is None:
        close = difflib.get_close_matches(name, allowed, n=1)
        hint = close[0] if close else None
    did_you_mean = f"; did you mean {hint!r}?" if hint else ""
    raise TypeError(
        f"{method}() got an unexpected keyword argument {name!r}{did_you_mean}"
    )


#: values argument: concrete data, or a callable of the results-so-far list.
BatchValues = Union[Sequence, Callable[[List[Any]], Any]]


class BatchScript:
    """Builder for a declared bulk run; every method returns ``self``."""

    __slots__ = ("ops", "memos")

    def __init__(self) -> None:
        self.ops: List[Tuple] = []
        # Per-op verdict memo, lazily allocated by the batched contexts on
        # first execution (None until then). Prebuilt scripts carry their
        # memoized probe verdicts — stamped with the TLB/cache versions
        # they were computed at — across iterations; see repro.sm.batched.
        self.memos: Optional[List] = None

    def read(self, region, start: int = 0, stop: Optional[int] = None) -> "BatchScript":
        """Read elements [start, stop); appends the view to the results."""
        self.ops.append(("read", region, start, stop))
        return self

    def write(
        self,
        region,
        start: int = 0,
        stop: Optional[int] = None,
        *,
        values: Optional[BatchValues] = None,
    ) -> "BatchScript":
        """Write elements starting at ``start`` (length from values or stop)."""
        self.ops.append(("write", region, start, stop, values))
        return self

    def read_gather(self, region, indices) -> "BatchScript":
        """Indexed read; appends the gathered values to the results."""
        self.ops.append(("read_gather", region, indices))
        return self

    def write_scatter(self, region, indices, values: BatchValues) -> "BatchScript":
        """Indexed write (``values`` may be a results-so-far callable)."""
        self.ops.append(("write_scatter", region, indices, values))
        return self

    def compute(self, cycles: float) -> "BatchScript":
        """Charge computation cycles."""
        self.ops.append(("compute", cycles))
        return self

    def compute_flops(self, count: float) -> "BatchScript":
        """Charge the cycle cost of ``count`` floating-point operations."""
        self.ops.append(("compute_flops", count))
        return self

    def __len__(self) -> int:
        return len(self.ops)


def run_batch_reference(ctx, script: BatchScript):
    """Decompose a script into the context's (possibly wrapped) scalar ops.

    This is the semantic definition of a batch: op-for-op identical to
    the scalar program. Dispatch goes through ``ctx.read`` etc. via
    attribute lookup, so instance-rebound instrumentation (the checker's
    oracle, tracers) composes exactly as it does for scalar code.
    """
    results: List[Any] = []
    for op in script.ops:
        kind = op[0]
        if kind == "read":
            results.append((yield from ctx.read(op[1], op[2], op[3])))
        elif kind == "write":
            values = op[4]
            if callable(values):
                values = values(results)
            yield from ctx.write(op[1], op[2], op[3], values=values)
        elif kind == "read_gather":
            results.append((yield from ctx.read_gather(op[1], op[2])))
        elif kind == "write_scatter":
            values = op[3]
            if callable(values):
                values = values(results)
            yield from ctx.write_scatter(op[1], op[2], values)
        elif kind == "compute":
            yield from ctx.compute(op[1])
        elif kind == "compute_flops":
            yield from ctx.compute_flops(op[1])
        else:
            raise ValueError(f"unknown batch op {kind!r}")
    return results


#: Context methods the checker/tracer rebind per instance. run_batch must
#: decompose through them when any is present, or shadow state goes stale.
INSTRUMENTED_OPS = (
    "read",
    "write",
    "read_gather",
    "write_scatter",
    "compute",
    "compute_flops",
)


def is_instrumented(ctx) -> bool:
    """True if any context op was rebound on the instance (checker/tracer)."""
    d = ctx.__dict__
    for name in INSTRUMENTED_OPS:
        if name in d:
            return True
    return False
