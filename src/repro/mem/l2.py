"""Private L2 cache controller.

One per tile (Table III: 256 kB, 16-way, 16-cycle). The L2 is the
coherence endpoint for the tile: it exchanges GetS/GetX/Put* with the
home L3 banks, receives forwards and invalidations, and back-
invalidates the colocated L1 on evictions (inclusive hierarchy).

This controller also produces the paper's motivation measurements:

- Figure 2a: every eviction is classified by whether the line was
  re-accessed after its fill (``uses``), whether it was clean, and
  whether a stream brought it in (``stream_id``).
- Figure 2b: for lines evicted clean-without-reuse, the flits spent
  filling them (recorded at fill time) plus their eviction messages
  are accumulated into ``l2.noreuse_flits.*``.

Stream hooks: ``se_l2`` intercepts misses of floating-stream requests
(the data lives in the SE_L2 stream buffer, not the cache);
``on_stream_reuse`` reports hits on stream-tagged lines to the
SE_core's history table (SS IV-D).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.mem.addr import LINE_SIZE, NucaMap
from repro.mem.cache import CacheArray, EXCLUSIVE, MODIFIED, SHARED
from repro.mem.coherence import CohMsg, acquire_msg, release_msg
from repro.mem.mshr import MshrFile
from repro.noc.message import CTRL, DATA, Packet, control_payload_bits, data_payload_bits
from repro.noc.network import Network
from repro.sim.kernel import Simulator
from repro.sim.stats import Stats

_LINE_MASK = ~(LINE_SIZE - 1)  # line_addr(), inlined for the hot paths


class L2AccessResult:
    """Handed to the ``on_done`` callback of an L2 access."""

    __slots__ = (
        "addr", "writable",
        "latency_paid",  # False when served by SE_L2 interception
        "dropped",       # prefetch rejected (MSHR pressure): no fill
        "uncached",      # served from the SE_L2 stream buffer: the line
        # is not in the L2, so the L1 must not cache it either
    )

    def __init__(
        self,
        addr: int,
        writable: bool,
        latency_paid: bool = True,
        dropped: bool = False,
        uncached: bool = False,
    ) -> None:
        self.addr = addr
        self.writable = writable
        self.latency_paid = latency_paid
        self.dropped = dropped
        self.uncached = uncached

    def __repr__(self) -> str:
        return (
            f"L2AccessResult(addr={self.addr:#x}, writable={self.writable}, "
            f"dropped={self.dropped}, uncached={self.uncached})"
        )


class L2Request:
    """An access descriptor from the L1 (or prefetchers / SE_core)."""

    __slots__ = ("addr", "is_write", "prefetch", "stream_id", "element",
                 "floating", "op_id", "on_done")

    def __init__(
        self,
        addr: int,
        is_write: bool = False,
        prefetch: bool = False,
        stream_id: Optional[int] = None,
        element: Optional[int] = None,
        floating: bool = False,  # request for a floated stream's element
        op_id: Optional[int] = None,
        on_done: Optional[Callable[[L2AccessResult], None]] = None,
    ) -> None:
        self.addr = addr
        self.is_write = is_write
        self.prefetch = prefetch
        self.stream_id = stream_id
        self.element = element
        self.floating = floating
        self.op_id = op_id
        self.on_done = on_done

    def __repr__(self) -> str:
        return (
            f"L2Request(addr={self.addr:#x}, is_write={self.is_write}, "
            f"prefetch={self.prefetch}, stream_id={self.stream_id}, "
            f"element={self.element}, floating={self.floating})"
        )


class L2Cache:
    """Private, inclusive-of-L1, MESI L2 controller."""

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        stats: Stats,
        tile: int,
        size_bytes: int,
        ways: int = 16,
        latency: int = 16,
        mshrs: int = 16,
        replacement: str = "brrip",
        nuca: Optional[NucaMap] = None,
    ) -> None:
        self.sim = sim
        self.net = net
        self.stats = stats
        self.tile = tile
        self.latency = latency
        self.array = CacheArray(size_bytes, ways, replacement=replacement, seed=tile)
        self.mshr = MshrFile(mshrs)
        # fill()'s eviction-victim predicate: skip lines with in-flight
        # transactions. Victim addresses are already line bases, so the
        # MSHR key-set membership test is lookup() minus the masking —
        # hoisted here so _fill doesn't build a closure per fill.
        self._avoid_inflight = self.mshr._entries.__contains__
        self.nuca = nuca
        self._overflow: List[L2Request] = []  # demand requests beyond MSHRs
        # Hooks wired by the tile assembly:
        self.se_l2 = None  # intercepts floating-stream misses
        self.on_stream_reuse: Optional[Callable[[int], None]] = None
        self.on_l1_invalidate: Optional[Callable[[int], None]] = None
        self.on_l1_downgrade: Optional[Callable[[int], None]] = None
        self.prefetcher = None  # L2 stride prefetcher (trained on misses)
        self.bulk = None  # optional bulk-prefetch request grouper
        self._tel = getattr(sim, "telemetry", None)
        self._fast = getattr(sim, "fastpath", False)
        self._pooling = getattr(sim, "pooling", False)
        # A line-sized Data response always serializes to the same flit
        # count; compute it once instead of building a throwaway Packet
        # per response (DESIGN.md §12).
        self._resp_flits = Packet(
            src=0, dst=tile, kind=DATA,
            payload_bits=data_payload_bits(LINE_SIZE), dst_port="l2",
        ).flits(net.link_bits)
        net.register(tile, "l2", self.handle)
        san = getattr(sim, "sanitizer", None)
        if san is not None:
            san.watch_l2(self)

    def _sp(self, name: str, amount: float = 1) -> None:
        self.stats.add(name, amount)

    # ------------------------------------------------------------------
    # access path (from L1 / prefetchers / SE_core)
    # ------------------------------------------------------------------
    def access(self, req: L2Request) -> None:
        """Look up ``req.addr``; respond through ``req.on_done``."""
        base = req.addr & _LINE_MASK
        line = self.array.lookup(base)
        if line is not None and not (req.is_write and line.state == SHARED):
            # Plain hit (writes need M/E; E upgrades to M silently).
            self._sp("l2.hits")
            line.uses += 1
            if req.is_write:
                line.state = MODIFIED
                line.dirty = True
            if line.stream_id is not None and self.on_stream_reuse:
                self.on_stream_reuse(line.stream_id)
            if req.floating and self.se_l2 is not None:
                # Data unexpectedly cached: tell SE_L2 to advance past
                # this element (SS IV-A).
                self.se_l2.on_cache_hit(req.stream_id, req.element)
            self._respond(req, writable=line.state in (MODIFIED, EXCLUSIVE))
            return

        self._sp("l2.misses")
        if req.floating and self.se_l2 is not None:
            # The element belongs to a floated stream: the SE_L2 stream
            # buffer owns the data; never escalate to the L3.
            self.sim.schedule(
                self.latency, self.se_l2.intercept, req,
            )
            return
        if self.prefetcher is not None and not req.prefetch:
            for pf_addr in self.prefetcher.on_access(req.op_id, base, hit=False):
                self._issue_prefetch(pf_addr)
        self._miss(req, line)

    PREFETCH_MSHR_RESERVE = 4  # MSHRs kept free for demand misses

    def _issue_prefetch(self, addr: int) -> None:
        base = addr & _LINE_MASK
        if self.array.contains(base) or self.mshr.lookup(base) is not None:
            return
        if len(self.mshr) >= self.mshr.capacity - self.PREFETCH_MSHR_RESERVE:
            self._sp("l2.prefetch_dropped")
            return
        self._sp("l2.prefetch_issued")
        self._miss(L2Request(addr=base, prefetch=True), None)

    def _miss(self, req: L2Request, line) -> None:
        base = req.addr & _LINE_MASK
        upgrade = line is not None  # write hit in S: needs GetX, no fill
        entry = self.mshr.lookup(base)
        # How the miss left the L2, for the l2_miss probe: "gets"/
        # "getx"/"bulk" went to the home bank, "merge" rode an
        # in-flight MSHR entry, "overflow"/"prefetch_drop" parked.
        if entry is not None:
            via = "merge"
            entry.is_write = entry.is_write or req.is_write
            entry.is_prefetch_only = entry.is_prefetch_only and req.prefetch
            if req.on_done is not None:
                entry.waiters.append(req)
        elif self.mshr.full:
            if req.prefetch:
                via = "prefetch_drop"
                self._sp("l2.prefetch_dropped")
                if req.on_done is not None:
                    # Tell the L1 so it releases its own MSHR entry.
                    self.sim.schedule(1, req.on_done, L2AccessResult(
                        addr=base, writable=False, dropped=True,
                    ))
            else:
                via = "overflow"
                self._overflow.append(req)
        else:
            new = self.mshr.allocate(base, self.sim.now)
            new.is_write = req.is_write
            new.is_prefetch_only = req.prefetch
            if req.on_done is not None:
                new.waiters.append(req)
            new.meta["stream_id"] = req.stream_id
            new.meta["prefetch"] = req.prefetch
            new.meta["upgrade"] = upgrade
            new.meta["req_flits"] = 0
            op = "GetX" if req.is_write else "GetS"
            home = self.nuca.bank_of(base)
            source = "core_stream" if req.stream_id is not None else "core"
            msg = CohMsg(op=op, addr=base, requester=self.tile, source=source)
            if self.bulk is not None and req.prefetch and op == "GetS":
                via = "bulk"
                self.bulk.enqueue(home, msg, new)
            else:
                via = "getx" if req.is_write else "gets"
                # Body stays a plain allocation: L3-bound requests may be
                # parked in the bank's MSHR meta, so they never pool.
                info = self.net.send_new(
                    self.tile, home, CTRL, control_payload_bits(), "l3",
                    body=msg,
                )
                new.meta["req_flits"] = info.flits
        if self._tel is not None:
            self._tel.publish(
                "l2_miss", tile=self.tile, detail=f"{base:#x}",
                addr=base, write=req.is_write, prefetch=req.prefetch,
                fresh=entry is None, via=via,
            )

    # ------------------------------------------------------------------
    # network ingress
    # ------------------------------------------------------------------
    def handle(self, pkt: Packet) -> None:
        msg: CohMsg = pkt.body
        op = msg.op
        if op == "Data":
            self._data(pkt, msg)
        elif op == "Inv":
            self._inv(msg)
        elif op == "InvAck":
            self._sp("l2.inv_acks")
        elif op == "PutAck":
            self._sp("l2.put_acks")
        elif op in ("FwdGetS", "FwdGetX", "FwdGetU"):
            self._forward(pkt, msg)
        else:
            raise ValueError(f"L2 got unexpected op {op!r}")
        if self._pooling:
            # Every op above is consumed fully and synchronously: the
            # body can cycle back to the transient-message pool.
            release_msg(msg)

    def _data(self, pkt: Packet, msg: CohMsg) -> None:
        base = msg.addr & _LINE_MASK
        entry = self.mshr.release(base)
        resp_flits = self._resp_flits
        if entry.meta["upgrade"]:
            line = self.array.lookup(base, touch=False)
            if line is not None:
                line.state = msg.grant
                line.dirty = line.dirty or msg.grant == MODIFIED
            else:
                self._fill(base, msg, entry, resp_flits)
        else:
            self._fill(base, msg, entry, resp_flits)
        line = self.array.lookup(base, touch=False)
        writable = bool(line) and line.state in (MODIFIED, EXCLUSIVE)
        sim = self.sim
        if self._fast and sim.can_inline():
            # Fused response (DESIGN.md §12): the zero-delay waiter
            # callbacks run synchronously after _data fully completes,
            # exactly where the event queue would have run them.
            self._drain_overflow()
            sim._inline_depth += 1
            try:
                for waiter in entry.waiters:
                    if waiter.on_done is not None:
                        sim.count_inlined_events(1)
                        waiter.on_done(L2AccessResult(
                            addr=base, writable=writable))
            finally:
                sim._inline_depth -= 1
        else:
            for waiter in entry.waiters:
                self._respond(waiter, writable=writable, delay=0)
            self._drain_overflow()
        self.mshr.recycle(entry)
        if self._tel is not None:
            self._tel.publish("l2_data", tile=self.tile, detail=f"{base:#x}",
                              addr=base, src=pkt.src)

    def _fill(self, base: int, msg: CohMsg, entry, resp_flits: int) -> None:
        state = msg.grant or SHARED
        meta = entry.meta
        line, evicted = self.array.fill(
            base, state, now=self.sim.now,
            prefetched=meta["prefetch"] if "prefetch" in meta else False,
            stream_id=meta["stream_id"] if "stream_id" in meta else None,
            fill_flits=resp_flits,
            fill_flits_ctrl=meta["req_flits"] if "req_flits" in meta else 0,
            avoid=self._avoid_inflight,
        )
        if state == MODIFIED:
            line.dirty = True
        if evicted is not None:
            self._evict(evicted)

    def _drain_overflow(self) -> None:
        while self._overflow and not self.mshr.full:
            req = self._overflow.pop(0)
            self.access(req)

    # ------------------------------------------------------------------
    # evictions (the Figure 2 measurements live here)
    # ------------------------------------------------------------------
    def _evict(self, victim) -> None:
        base = victim.addr
        if self.on_l1_invalidate:
            self.on_l1_invalidate(base)
        self._sp("l2.evictions")
        evict_flits_ctrl = 0
        evict_flits_data = 0
        home = self.nuca.bank_of(base)
        if victim.dirty and self.se_l2 is not None:
            # SS IV-E (second window): a dirty eviction may alias a
            # buffered floating-stream element.
            self.se_l2.on_dirty_evict(base)
        if victim.dirty:
            info = self.net.send_new(
                self.tile, home, DATA, data_payload_bits(LINE_SIZE), "l3",
                body=CohMsg(op="PutM", addr=base, requester=self.tile),
            )
            evict_flits_data = info.flits
        else:
            info = self.net.send_new(
                self.tile, home, CTRL, control_payload_bits(), "l3",
                body=CohMsg(op="PutS", addr=base, requester=self.tile),
            )
            evict_flits_ctrl = info.flits
        # --- Figure 2a/2b classification ---
        no_reuse = victim.uses == 0 and not victim.dirty
        if no_reuse:
            self._sp("l2.evictions_noreuse")
            if victim.stream_id is not None:
                self._sp("l2.evictions_noreuse_stream")
            self._sp("l2.noreuse_flits.data", victim.fill_flits + evict_flits_data)
            self._sp(
                "l2.noreuse_flits.ctrl",
                victim.fill_flits_ctrl + evict_flits_ctrl,
            )

    def _inv(self, msg: CohMsg) -> None:
        base = msg.addr & _LINE_MASK
        victim = self.array.invalidate(base)
        if self.on_l1_invalidate:
            self.on_l1_invalidate(base)
        self._sp("l2.invalidated")
        if victim is None:
            return
        if victim.dirty and msg.writeback_to_dram:
            # LLC back-invalidation of an M-state line: the bank no
            # longer homes it, write straight to memory.
            # (Requires a DramSystem mapping; use home-bank relay when
            # unavailable.)
            self.net.send_new(
                self.tile, self.nuca.bank_of(base), DATA,
                data_payload_bits(LINE_SIZE), "l3",
                body=CohMsg(op="PutM", addr=base, requester=self.tile),
            )
        elif not msg.writeback_to_dram:
            self.net.send_new(
                self.tile, msg.requester, CTRL, control_payload_bits(), "l2",
                body=acquire_msg("InvAck", base, self.tile),
            )

    def _forward(self, pkt: Packet, msg: CohMsg) -> None:
        base = msg.addr & _LINE_MASK
        line = self.array.lookup(base, touch=False)
        if line is None:
            # We no longer hold the line (our PutS/PutM is in flight):
            # nack so the bank clears the stale ownership and retries.
            # Note the bank's grant-then-forward sequence cannot race
            # us, because the NoC is FIFO per route: a Data response
            # always arrives before a later forward from its bank.
            self.net.send_new(
                self.tile, pkt.src, CTRL, control_payload_bits(), "l3",
                body=CohMsg(op="FwdMiss", addr=base, requester=self.tile),
            )
            return
        down_op = "DownDataU" if msg.op == "FwdGetU" else "DownData"
        self.net.send_new(
            self.tile, pkt.src, DATA, data_payload_bits(msg.data_bytes), "l3",
            body=CohMsg(op=down_op, addr=base, requester=msg.requester),
        )
        if msg.op == "FwdGetS":
            line.state = SHARED
            line.dirty = False
            if self.on_l1_downgrade:
                self.on_l1_downgrade(base)
        elif msg.op == "FwdGetX":
            self.array.invalidate(base)
            if self.on_l1_invalidate:
                self.on_l1_invalidate(base)
        # FwdGetU: no state change (Fig 12c).

    # ------------------------------------------------------------------
    def _respond(self, req: L2Request, writable: bool, delay: Optional[int] = None) -> None:
        if req.on_done is None:
            return
        lat = self.latency if delay is None else delay
        result = L2AccessResult(addr=req.addr & _LINE_MASK, writable=writable)
        self.sim.schedule(lat, req.on_done, result)
