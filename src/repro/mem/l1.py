"""L1 data cache controller.

Per-tile, 32 kB 8-way, 2-cycle latency (Table III). The L1 is not a
coherence endpoint: the colocated L2 is inclusive of it and back-
invalidates it when lines leave the L2. Each line carries a
``writable`` hint mirroring the L2's M/E state so stores know whether
an upgrade round-trip is needed.

The L1 hosts the demand-side prefetchers (stride or Bingo): every
demand access trains the prefetcher, whose suggested lines are issued
as non-blocking prefetch fills through the normal L1->L2 path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.mem.addr import LINE_SIZE
from repro.mem.cache import CacheArray, EXCLUSIVE, MODIFIED, SHARED
from repro.mem.l2 import L2AccessResult, L2Cache, L2Request
from repro.mem.mshr import MshrFile
from repro.sim.kernel import Simulator
from repro.sim.stats import Stats

_LINE_MASK = ~(LINE_SIZE - 1)  # line_addr(), inlined for the hot paths


class L1Request:
    """A core-side access.

    ``count`` > 1 marks a line-coalesced stream request: the SE_core
    merged that many consecutive same-line elements (starting at
    ``element``) into one access, and hit accounting credits them all.
    """

    __slots__ = ("addr", "is_write", "prefetch", "stream_id", "element",
                 "floating", "op_id", "on_done", "count")

    def __init__(
        self,
        addr: int,
        is_write: bool = False,
        prefetch: bool = False,
        stream_id: Optional[int] = None,
        element: Optional[int] = None,
        floating: bool = False,
        op_id: Optional[int] = None,
        on_done: Optional[Callable[[], None]] = None,
        count: int = 1,
    ) -> None:
        self.addr = addr
        self.is_write = is_write
        self.prefetch = prefetch
        self.stream_id = stream_id
        self.element = element
        self.floating = floating
        self.op_id = op_id
        self.on_done = on_done
        self.count = count

    def __repr__(self) -> str:
        return (
            f"L1Request(addr={self.addr:#x}, is_write={self.is_write}, "
            f"prefetch={self.prefetch}, stream_id={self.stream_id}, "
            f"element={self.element}, floating={self.floating}, "
            f"count={self.count})"
        )


class L1Cache:
    """Private L1D with prefetcher hooks."""

    def __init__(
        self,
        sim: Simulator,
        stats: Stats,
        tile: int,
        l2: L2Cache,
        size_bytes: int = 32 * 1024,
        ways: int = 8,
        latency: int = 2,
        mshrs: int = 8,
        replacement: str = "lru",
    ) -> None:
        self.sim = sim
        self.stats = stats
        self.tile = tile
        self.l2 = l2
        self.latency = latency
        self.array = CacheArray(size_bytes, ways, replacement=replacement, seed=tile)
        self.mshr = MshrFile(mshrs)
        # fill()'s eviction-victim predicate: victim addresses are line
        # bases, so MSHR key membership is lookup() minus the masking —
        # hoisted so _fill doesn't build a closure per fill.
        self._avoid_inflight = self.mshr._entries.__contains__
        self._overflow: List[L1Request] = []
        self.prefetcher = None  # L1 stride or Bingo, wired by the tile
        self._tel = getattr(sim, "telemetry", None)
        self._fast = getattr(sim, "fastpath", False)
        self._c_hits = stats.counter("l1.hits")
        self._c_misses = stats.counter("l1.misses")
        l2.on_l1_invalidate = self.invalidate
        l2.on_l1_downgrade = self.downgrade
        san = getattr(sim, "sanitizer", None)
        if san is not None:
            san.watch_l1(self)

    # ------------------------------------------------------------------
    def access(self, req: L1Request) -> None:
        line = self.array.lookup(req.addr)  # lookup masks to the line
        hit = line is not None and (not req.is_write or line.writable)
        if self.prefetcher is not None and not req.prefetch and not req.floating:
            for pf_addr in self.prefetcher.on_access(req.op_id, req.addr, hit=hit):
                self._issue_prefetch(pf_addr, req.op_id)
        if hit:
            self._c_hits[0] += req.count
            line.uses += req.count
            if req.is_write:
                line.dirty = True
            if req.floating and self.l2.se_l2 is not None:
                # Floating stream data unexpectedly in L1 (SS IV-A):
                # serve from cache, tell SE_L2 to advance.
                se_l2 = self.l2.se_l2
                for j in range(req.count):
                    se_l2.on_cache_hit(req.stream_id, req.element + j)
            if req.on_done is not None:
                self.sim.schedule(self.latency, req.on_done)
            return
        self._c_misses[0] += req.count
        self._miss(req)

    PREFETCH_MSHR_RESERVE = 2  # MSHRs kept free for demand misses

    def _issue_prefetch(self, addr: int, op_id: Optional[int]) -> None:
        base = addr & _LINE_MASK
        if self.array.contains(base) or self.mshr.lookup(base) is not None:
            return
        if len(self.mshr) >= self.mshr.capacity - self.PREFETCH_MSHR_RESERVE:
            self.stats.add("l1.prefetch_dropped")
            return
        self.stats.add("l1.prefetch_issued")
        self._miss(L1Request(addr=base, prefetch=True, op_id=op_id))

    def _miss(self, req: L1Request) -> None:
        base = req.addr & _LINE_MASK
        entry = self.mshr.lookup(base)
        if entry is not None:
            entry.is_write = entry.is_write or req.is_write
            entry.is_prefetch_only = entry.is_prefetch_only and req.prefetch
            entry.waiters.append(req)
        elif self.mshr.full:
            if req.prefetch:
                self.stats.add("l1.prefetch_dropped")
            else:
                self._overflow.append(req)
        else:
            new = self.mshr.allocate(base, self.sim.now)
            new.is_write = req.is_write
            new.is_prefetch_only = req.prefetch
            new.waiters.append(req)
            l2_req = L2Request(
                addr=base,
                is_write=req.is_write,
                prefetch=req.prefetch,
                stream_id=req.stream_id,
                element=req.element,
                floating=req.floating,
                op_id=req.op_id,
                on_done=lambda result: self._fill(base, result),
            )
            self.sim.schedule(self.latency, self.l2.access, l2_req)
        if self._tel is not None:
            self._tel.publish(
                "l1_miss", tile=self.tile, detail=f"{base:#x}",
                addr=base, write=req.is_write, prefetch=req.prefetch,
                fresh=entry is None, sid=req.stream_id,
                floating=req.floating,
            )

    def _fill(self, base: int, result: L2AccessResult) -> None:
        entry = self.mshr.release(base)
        if result.dropped:
            # The L2 rejected our prefetch. Re-issue for any demand
            # requests that merged into the entry meanwhile.
            for waiter in entry.waiters:
                if not waiter.prefetch:
                    self._miss(waiter)
            self._drain_overflow()
            self.mshr.recycle(entry)
            if self._tel is not None:
                self._tel.publish("l1_fill", tile=self.tile,
                                  detail=f"{base:#x}", addr=base,
                                  reason="drop")
            return
        # The L2's grant may be stale: a downgrade or invalidation can
        # land during the response latency window, after the L2 decided
        # ``result.writable`` but before this fill runs. The writable
        # hint must mirror the L2's *current* M/E state, or a store
        # would silently dirty a shared line (a second writer).
        l2_line = self.l2.array.lookup(base, touch=False)
        writable = l2_line is not None and l2_line.state in (MODIFIED, EXCLUSIVE)
        if not self.array.contains(base):
            stream_id = None
            for waiter in entry.waiters:
                if waiter.stream_id is not None:
                    stream_id = waiter.stream_id
                    break
            # Floating-stream data bypasses the caches entirely: it
            # lives in the SE_L2 buffer (SS V-A, uncached stream data),
            # even when a demand request merged into the same MSHR.
            # Inclusion guard: the L2 may have evicted the line during
            # the response latency window; don't fill the L1 then.
            if not result.uncached and l2_line is not None:
                line, evicted = self.array.fill(
                    base, SHARED, now=self.sim.now,
                    prefetched=entry.is_prefetch_only,
                    stream_id=stream_id,
                    avoid=self._avoid_inflight,
                )
                line.writable = writable
                if entry.is_write and writable:
                    line.dirty = True
                if evicted is not None and evicted.dirty:
                    self._writeback_to_l2(evicted.addr)
        else:
            line = self.array.lookup(base, touch=False)
            line.writable = writable
            if entry.is_write and writable:
                line.dirty = True
        if entry.is_write and not writable and not result.uncached:
            # Write permission was revoked while the response was in
            # flight: retry the store as a background upgrade (GetX).
            self.stats.add("l1.write_upgrade_retries")
            self._miss(L1Request(addr=base, is_write=True))
        sim = self.sim
        if self._fast and sim.can_inline():
            # Fused wakeup (DESIGN.md §12): with nothing else pending
            # this cycle, the zero-delay waiter callbacks would run
            # immediately after this handler in queue order — so run
            # them synchronously once _fill has fully completed
            # (after the overflow drain, exactly where the event
            # queue would have run them). count_inlined_events keeps
            # the logical event count identical to the unfused path.
            self._drain_overflow()
            sim._inline_depth += 1
            try:
                for waiter in entry.waiters:
                    if waiter.on_done is not None:
                        sim.count_inlined_events(1)
                        waiter.on_done()
            finally:
                sim._inline_depth -= 1
        else:
            for waiter in entry.waiters:
                if waiter.on_done is not None:
                    sim.schedule(0, waiter.on_done)
            self._drain_overflow()
        self.mshr.recycle(entry)
        if self._tel is not None:
            self._tel.publish("l1_fill", tile=self.tile, detail=f"{base:#x}",
                              addr=base,
                              reason="uncached" if result.uncached else "fill")

    def _writeback_to_l2(self, addr: int) -> None:
        """Dirty L1 victim folds into the (inclusive) L2 copy."""
        line = self.l2.array.lookup(addr, touch=False)
        if line is not None:
            line.dirty = True
            line.state = MODIFIED
        self.stats.add("l1.writebacks")

    def _drain_overflow(self) -> None:
        while self._overflow and not self.mshr.full:
            req = self._overflow.pop(0)
            base = req.addr & _LINE_MASK
            line = self.array.lookup(base)
            if line is not None and (not req.is_write or line.writable):
                # The line arrived while the request was parked.
                self.stats.add("l1.hits", req.count)
                line.uses += req.count
                if req.is_write:
                    line.dirty = True
                if req.on_done is not None:
                    self.sim.schedule(self.latency, req.on_done)
                continue
            self._miss(req)

    def invalidate(self, addr: int) -> None:
        self.array.invalidate(addr & _LINE_MASK)

    def downgrade(self, addr: int) -> None:
        """L2 lost write permission: clear the writable hint (and fold
        any silently dirtied L1 data back into the outgoing copy)."""
        line = self.array.lookup(addr & _LINE_MASK, touch=False)
        if line is not None:
            line.writable = False
            line.dirty = False
