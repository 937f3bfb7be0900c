"""Batched execution for the message-passing context.

:class:`BatchedMpContext` mirrors the shared-memory batched context for
the simpler all-local memory model: an access whose pages are all
TLB-resident and whose blocks are all cache-resident stalls zero cycles
in the reference semantics (writes may silently upgrade SHARED lines to
EXCLUSIVE), so it is executed as one batched step — a counter-neutral
probe over the run, then a bulk commit of the exact hit counts. Any
miss falls back to the inherited reference path with nothing committed.
Clean verdicts are memoized against the TLB/cache version stamps, just
as on the shared-memory side. See :mod:`repro.sm.batched` for the full
bit-identity and memoization argument.
"""

from __future__ import annotations

from typing import Generator, Optional, Sequence

import numpy as np

from repro.arch.cache import LineState
from repro.memory.dataspace import Region
from repro.mp.api import MpContext
from repro.sim.batch import (
    BatchScript,
    is_instrumented,
    reject_unknown_kwargs,
    run_batch_reference,
)
from repro.sim.process import delay_of
from repro.stats.categories import MpCat

_EXCLUSIVE = LineState.EXCLUSIVE


class BatchedMpContext(MpContext):
    """Message-passing context with batched zero-stall fast paths."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Scalar-op verdict memo: (region, start, stop, write) ->
        # [tlb_version, cache_version, npages, nblocks].
        self._range_memo: dict = {}

    def _fast_range(self, region: Region, start: int, stop: int, write: bool):
        """Attempt [start, stop) as one batched step.

        Returns ``(npages, nblocks)`` on a clean (memoizable) success,
        ``False`` on a success whose SHARED→EXCLUSIVE upgrades bumped the
        cache version (committed, not memoizable), or ``None`` on failure
        with nothing committed. Success means the scalar ``_touch_range``
        would have returned stall 0: all pages resident, all blocks
        resident. Writes to non-EXCLUSIVE lines upgrade in place (free on
        this machine, exactly as the scalar loop does).
        """
        if stop <= start:
            return (0, 0)  # touches no pages and no blocks on either path
        if start < 0 or stop > region.flat.size:
            return None  # reference path raises the proper IndexError
        itemsize = region.itemsize
        base = region.base + start * itemsize
        last = region.base + stop * itemsize - 1
        common = self.params.common
        tlb = self.tlb
        fifo = tlb._fifo
        page_bytes = common.page_bytes
        first_page = base - base % page_bytes
        last_page = last - last % page_bytes
        if first_page == last_page:
            if first_page not in fifo:
                return None
            npages = 1
        else:
            npages = (last_page - first_page) // page_bytes + 1
            for page in range(first_page, last_page + 1, page_bytes):
                if page not in fifo:
                    return None
        block_bytes = common.block_bytes
        first_block = base - base % block_bytes
        last_block = last - last % block_bytes
        nblocks = (last_block - first_block) // block_bytes + 1
        cache = self.cache
        get = cache._lines.get
        fixups = None
        if write:
            for block in range(first_block, last_block + 1, block_bytes):
                state = get(block)
                if state is None:
                    return None
                if state is not _EXCLUSIVE:
                    if fixups is None:
                        fixups = [block]
                    else:
                        fixups.append(block)
        else:
            for block in range(first_block, last_block + 1, block_bytes):
                if get(block) is None:
                    return None
        tlb.hits += npages
        cache.hits += nblocks
        if fixups is not None:
            set_state = cache.set_state
            for block in fixups:
                set_state(block, _EXCLUSIVE)
            return False
        return (npages, nblocks)

    def _fast_blocks(self, blocks):
        """Gather twin of :meth:`_fast_range`: TLB probed once per block.

        Returns the committed hit count ``n >= 0`` on success (always
        clean — gathers never change line states here), ``None`` on
        failure.
        """
        tlb = self.tlb
        fifo = tlb._fifo
        mask = tlb._page_mask
        page_bytes = tlb.page_bytes
        get = self.cache._lines.get
        n = 0
        for block in blocks:
            block = int(block)
            page = block & mask if mask is not None else block - (block % page_bytes)
            if page not in fifo:
                return None
            if get(block) is None:
                return None
            n += 1
        tlb.hits += n
        self.cache.hits += n
        return n

    # -- scalar ops with batched fast paths ---------------------------------

    def read(
        self, region: Region, start: int = 0, stop: Optional[int] = None, **kwargs
    ) -> Generator:
        if kwargs:
            reject_unknown_kwargs("read", kwargs, ("start", "stop"))
        if stop is None:
            stop = region.flat.size
        tlb = self.tlb
        cache = self.cache
        key = (region, start, stop, False)
        memo = self._range_memo.get(key)
        if memo is not None and memo[0] == tlb.version and memo[1] == cache.version:
            tlb.hits += memo[2]
            cache.hits += memo[3]
            return region.flat[start:stop]
        r = self._fast_range(region, start, stop, False)
        if r is not None:
            if r is not False:
                self._range_memo[key] = [tlb.version, cache.version, r[0], r[1]]
            return region.flat[start:stop]
        return (yield from MpContext.read(self, region, start, stop))

    def write(
        self,
        region: Region,
        start: int = 0,
        stop: Optional[int] = None,
        *,
        values: Optional[Sequence] = None,
        **kwargs,
    ) -> Generator:
        if kwargs:
            reject_unknown_kwargs("write", kwargs, ("start", "stop", "values"))
        if values is not None:
            values = np.asarray(values)
            stop = start + values.size
        if stop is None:
            raise ValueError("write needs values or stop")
        tlb = self.tlb
        cache = self.cache
        key = (region, start, stop, True)
        memo = self._range_memo.get(key)
        if memo is not None and memo[0] == tlb.version and memo[1] == cache.version:
            tlb.hits += memo[2]
            cache.hits += memo[3]
            if values is not None:
                region.flat[start:stop] = values.reshape(-1)
            return
        r = self._fast_range(region, start, stop, True)
        if r is not None:
            if r is not False:
                self._range_memo[key] = [tlb.version, cache.version, r[0], r[1]]
            if values is not None:
                region.flat[start:stop] = values.reshape(-1)
            return
        yield from MpContext.write(self, region, start, stop, values=values)

    def read_gather(self, region: Region, indices: Sequence[int]) -> Generator:
        if self._fast_blocks(region.block_addrs_of_indices(indices)) is not None:
            return region.flat[np.asarray(indices, dtype=np.int64)]
        return (yield from MpContext.read_gather(self, region, indices))

    # -- batch executor ------------------------------------------------------

    def run_batch(self, script: BatchScript) -> Generator:
        """Execute a whole script in one frame (see module docstring)."""
        if is_instrumented(self):
            return (yield from run_batch_reference(self, script))
        ops = script.ops
        memos = script.memos
        if memos is None:
            memos = script.memos = [None] * len(ops)
        results = []
        append = results.append
        stats = self.stats
        engine = self.engine
        tlb = self.tlb
        cache = self.cache
        for i, op in enumerate(ops):
            kind = op[0]
            if kind == "read":
                m = memos[i]
                if m is not None and m[0] == tlb.version and m[1] == cache.version:
                    tlb.hits += m[2]
                    cache.hits += m[3]
                    append(op[1].flat[m[4]:m[5]])
                    continue
                region, start, stop = op[1], op[2], op[3]
                if stop is None:
                    stop = region.flat.size
                r = self._fast_range(region, start, stop, False)
                if r is not None:
                    if r is not False:
                        memos[i] = [tlb.version, cache.version, r[0], r[1], start, stop]
                    append(region.flat[start:stop])
                else:
                    append((yield from MpContext.read(self, region, start, stop)))
            elif kind == "compute" or kind == "compute_flops":
                cycles = memos[i]
                if cycles is None:
                    cycles = memos[i] = int(
                        round(op[1] if kind == "compute" else self.costs.flops(op[1]))
                    )
                if cycles > 0:
                    stats.charge(MpCat.COMPUTE, cycles)
                    if not engine.consume_inline_delay(cycles):
                        yield delay_of(cycles)
            elif kind == "write":
                region, start, stop, values = op[1], op[2], op[3], op[4]
                if callable(values):
                    values = values(results)
                if values is not None:
                    values = np.asarray(values)
                    stop = start + values.size
                if stop is None:
                    raise ValueError("write needs values or stop")
                m = memos[i]
                if (
                    m is not None
                    and m[0] == tlb.version
                    and m[1] == cache.version
                    and m[4] == start
                    and m[5] == stop
                ):
                    tlb.hits += m[2]
                    cache.hits += m[3]
                    if values is not None:
                        region.flat[start:stop] = values.reshape(-1)
                    continue
                r = self._fast_range(region, start, stop, True)
                if r is not None:
                    if r is not False:
                        memos[i] = [tlb.version, cache.version, r[0], r[1], start, stop]
                    if values is not None:
                        region.flat[start:stop] = values.reshape(-1)
                else:
                    yield from MpContext.write(
                        self, region, start, stop, values=values
                    )
            elif kind == "read_gather":
                region = op[1]
                m = memos[i]
                if m is None:
                    idx = np.asarray(op[2], dtype=np.int64)
                    blocks = region.block_addrs_of_indices(idx)
                    m = memos[i] = [-1, -1, 0, idx, blocks]
                if m[0] == tlb.version and m[1] == cache.version:
                    tlb.hits += m[2]
                    cache.hits += m[2]
                    append(region.flat[m[3]])
                    continue
                r = self._fast_blocks(m[4])
                if r is not None:
                    m[0] = tlb.version
                    m[1] = cache.version
                    m[2] = r
                    append(region.flat[m[3]])
                else:
                    append((yield from MpContext.read_gather(self, region, op[2])))
            else:
                raise ValueError(
                    f"batch op {kind!r} is not supported on the "
                    "message-passing machine"
                )
        return results
