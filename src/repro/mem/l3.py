"""Shared L3 (LLC) bank controller with directory and GetU support.

One bank per tile (Table III: 1 MB, 16-way, 20-cycle latency, MESI,
static NUCA). Each bank owns the directory state for the lines it
homes and serializes transactions per line with a bank MSHR file:
requests arriving for a line with an in-flight transaction queue and
replay when it completes.

Protocol simplifications relative to a full transient-state MESI
implementation (documented per DESIGN.md; none affect the message
*counts* the paper measures):

- Forwarding is bank-relayed: when an L2 owns a line in M/E, the bank
  sends ``FwdGetS``/``FwdGetX`` to the owner, the owner answers with
  ``DownData`` to the bank, and the bank responds to the requester.
  The same two data messages flow as in 3-hop MESI, at slightly higher
  latency for this (rare in our workloads) case.
- GetX responses do not wait for invalidation acks (sharers ack to the
  requester in parallel with the data response).
- ``GetU`` (stream floating) never updates the directory. If the line
  is owned elsewhere the owner supplies data via ``DownDataU`` without
  changing its own state (Fig 12c).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.mem.addr import LINE_SIZE, NucaMap
from repro.mem.cache import CacheArray, EXCLUSIVE, MODIFIED, SHARED
from repro.mem.coherence import CohMsg, Directory, acquire_msg
from repro.mem.dram import DramSystem
from repro.mem.mshr import MshrFile
from repro.noc.message import CTRL, DATA, Packet, control_payload_bits, data_payload_bits
from repro.noc.network import Network
from repro.sim.kernel import Simulator
from repro.sim.stats import Stats

_LINE_MASK = ~(LINE_SIZE - 1)  # line_addr(), inlined for the hot paths

# Interned "l3.requests_by_source.<category>" stat names: the f-string
# ran once per request on the bank's hottest paths.
_SOURCE_KEYS: Dict[str, str] = {}


def _by_source_key(category: str) -> str:
    key = _SOURCE_KEYS.get(category)
    if key is None:
        key = _SOURCE_KEYS[category] = f"l3.requests_by_source.{category}"
    return key


class L3Bank:
    """One LLC bank (plus its slice of the directory)."""

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        stats: Stats,
        tile: int,
        size_bytes: int,
        ways: int = 16,
        latency: int = 20,
        mshrs: int = 16,
        replacement: str = "brrip",
        dram: Optional[DramSystem] = None,
        nuca: Optional[NucaMap] = None,
    ) -> None:
        self.sim = sim
        self.net = net
        self.stats = stats
        self.tile = tile
        self.latency = latency
        set_index_fn = None
        if nuca is not None:
            lines_per_chunk = nuca.interleave // LINE_SIZE
            banks = nuca.num_banks

            def set_index_fn(addr: int) -> int:
                # Bank-local line number: which interleave chunk of
                # this bank, times lines per chunk, plus the offset.
                chunk = (addr // nuca.interleave) // banks
                return chunk * lines_per_chunk + (
                    (addr // LINE_SIZE) % lines_per_chunk
                )

        self.array = CacheArray(
            size_bytes, ways, replacement=replacement, seed=tile,
            set_index_fn=set_index_fn,
        )
        self.dir = Directory()
        self.mshr = MshrFile(mshrs)
        self._waitq: List[tuple] = []  # requests waiting for a free MSHR
        self._tel = getattr(sim, "telemetry", None)
        self.dram = dram
        # Interned counter cells for the bank's hottest stats
        # (DESIGN.md §12); cells are shared across banks by name.
        self._c_hits = stats.counter("l3.hits")
        self._c_misses = stats.counter("l3.misses")
        self._c_gets = stats.counter("l3.requests.gets")
        self._c_getx = stats.counter("l3.requests.getx")
        self._c_stream_float = stats.counter("l3.requests.stream_float")
        self._src_cells: Dict[str, List[float]] = {}
        # Colocated SE_L3, attached by the tile assembly. The bank
        # notifies it when GetU data it asked for becomes available.
        self.se_l3 = None
        net.register(tile, "l3", self.handle)
        san = getattr(sim, "sanitizer", None)
        if san is not None:
            san.watch_l3(self)

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------
    def handle(self, pkt: Packet) -> None:
        """NoC ingress: pay the bank access latency, then process."""
        self.sim.schedule(self.latency, self._process, pkt.src, pkt.body)

    def stream_read(
        self,
        addr: int,
        requester: int,
        on_ready: Callable[[CohMsg], None],
        data_bytes: int = LINE_SIZE,
        stream_id: Optional[int] = None,
        element: Optional[int] = None,
        category: str = "float_affine",
    ) -> None:
        """Colocated SE_L3 issues an uncached read of ``addr``.

        ``on_ready(msg)`` fires (at this bank) once the line's data is
        available here; the SE_L3 then decides how to respond (unicast
        DataU, multicast for a confluence group, or chain an indirect
        request). No directory state is modified. ``category`` labels
        the request for Figure 14 (affine / indirect / confluence).
        """
        if self._tel is not None:
            self._tel.publish(
                "getu", tile=self.tile, detail=f"sid {stream_id} elem {element}",
                addr=addr & _LINE_MASK, requester=requester, sid=stream_id,
                element=element, category=category,
            )
        msg = CohMsg(
            op="GetU", addr=addr, requester=requester,
            data_bytes=data_bytes, stream_id=stream_id, element=element,
            se_info=on_ready, source=category,
        )
        self._c_stream_float[0] += 1
        self._src_cell(category)[0] += 1
        self.sim.schedule(self.latency, self._process, self.tile, msg)

    def _src_cell(self, category: str) -> List[float]:
        cells = self._src_cells
        if category in cells:
            return cells[category]
        cell = cells[category] = self.stats.counter(_by_source_key(category))
        return cell

    # ------------------------------------------------------------------
    # transaction processing
    # ------------------------------------------------------------------
    def _process(self, src: int, msg: CohMsg) -> None:
        op = msg.op
        if op in ("GetS", "GetX", "GetU"):
            self._demand(src, msg)
        elif op == "GetSBulk":
            # Bulk prefetch (SS VI): unpack the grouped GetS requests.
            for sub in msg.se_info:
                self._demand(src, sub)
        elif op == "PutS":
            self.stats.add("l3.puts")
            self.dir.remove(msg.addr, msg.requester)
        elif op == "PutM":
            self._put_m(src, msg)
        elif op == "MemData":
            self._mem_data(msg)
        elif op == "DownData":
            self._down_data(msg)
        elif op == "DownDataU":
            self._down_data_u(msg)
        elif op == "FwdMiss":
            self._fwd_miss(msg)
        else:
            raise ValueError(f"L3 bank got unexpected op {op!r}")

    def _blocked(self, addr: int) -> bool:
        return self.mshr.lookup(addr) is not None

    def _demand(self, src: int, msg: CohMsg) -> None:
        """GetS / GetX / GetU head-of-line processing."""
        base = msg.addr & _LINE_MASK
        entry = self.mshr.lookup(base)
        if entry is not None:
            # Line transaction in flight: queue and replay later.
            entry.meta.setdefault("queued", []).append((src, msg))
            if self._tel is not None:
                self._publish_demand(msg, "queued")
            return
        op = msg.op
        if not msg.seen:
            msg.seen = True
            if op == "GetS":
                self._c_gets[0] += 1
                self._src_cell(msg.source)[0] += 1
            elif op == "GetX":
                self._c_getx[0] += 1
                self._src_cell(msg.source)[0] += 1

        ent = self.dir.peek(base)
        owner = ent.owner if ent else None
        if owner is not None and owner != msg.requester:
            self._forward_to_owner(owner, src, msg)
            if self._tel is not None:
                self._publish_demand(msg, "forward")
            return

        line = self.array.lookup(base)
        if line is not None:
            self._c_hits[0] += 1
            if ent is None and op == "GetS":
                # Uncontended GetS shortcut: no directory entry means
                # no sharers and no owner, so the grant is exactly the
                # idle-entry branch of _satisfy (EXCLUSIVE, clean) —
                # taken inline with a pooled message and packet shell.
                self.dir.entry(base).owner = msg.requester
                self.net.send_new(
                    self.tile, msg.requester, DATA,
                    data_payload_bits(LINE_SIZE), "l2",
                    body=acquire_msg("Data", base, msg.requester,
                                     grant=EXCLUSIVE),
                )
            else:
                self._satisfy(msg, line_dirty=line.dirty)
            if self._tel is not None:
                self._publish_demand(msg, "hit")
            return

        # LLC miss: fetch from memory.
        if self.mshr.full:
            # Park in the bank's wait queue until an MSHR frees up.
            self._waitq.append((src, msg))
            self.stats.add("l3.mshr_full_waits")
            if self._tel is not None:
                self._publish_demand(msg, "mshr_wait")
            return
        self._c_misses[0] += 1
        entry = self.mshr.allocate(base, self.sim.now)
        entry.meta["head"] = (src, msg)
        dram_tile = self.dram.controller_tile(base)
        self.net.send_new(
            self.tile, dram_tile, CTRL, control_payload_bits(), "dram",
            body=acquire_msg("MemRead", addr=base, requester=self.tile),
        )
        if self._tel is not None:
            self._publish_demand(msg, "miss")

    def _publish_demand(self, msg: CohMsg, outcome: str) -> None:
        """The ``l3_demand`` probe, run as ``_demand`` leaves with
        ``outcome`` ("queued", "forward", "hit", "mshr_wait", "miss")."""
        base = msg.addr & _LINE_MASK
        self._tel.publish(
            "l3_demand", tile=self.tile, detail=f"{msg.op} {base:#x} {outcome}",
            addr=base, op=msg.op, requester=msg.requester, lat=self.latency,
            outcome=outcome,
        )

    def _forward_to_owner(self, owner: int, src: int, msg: CohMsg) -> None:
        """Ask the current M/E owner to supply the data."""
        base = msg.addr & _LINE_MASK
        if self.mshr.full:
            self._waitq.append((src, msg))
            self.stats.add("l3.mshr_full_waits")
            return
        fwd_op = {"GetS": "FwdGetS", "GetX": "FwdGetX", "GetU": "FwdGetU"}[msg.op]
        entry = self.mshr.allocate(base, self.sim.now)
        entry.meta["head"] = (src, msg)
        self.stats.add("l3.forwards")
        self.net.send_new(
            self.tile, owner, CTRL, control_payload_bits(), "l2",
            body=acquire_msg(fwd_op, base, msg.requester,
                             data_bytes=msg.data_bytes),
        )

    def _satisfy(self, msg: CohMsg, line_dirty: bool) -> None:
        """Line data is available at the bank: grant it."""
        base = msg.addr & _LINE_MASK
        if msg.op == "GetU":
            on_ready = msg.se_info
            if callable(on_ready):
                # Colocated SE_L3 drives the response itself.
                on_ready(msg)
            else:
                # Remote GetU (no SE attached): plain uncached response.
                self.send_data_u(msg.requester, msg)
            return
        ent = self.dir.entry(base)
        if ent.owner == msg.requester:
            # Stale ownership (e.g. the owner silently lost the line
            # and is re-requesting): treat as non-owner.
            ent.owner = None
        if msg.op == "GetS":
            if ent.idle:
                grant = EXCLUSIVE
                ent.owner = msg.requester
            else:
                grant = SHARED
                ent.sharers.add(msg.requester)
                if ent.owner is not None and ent.owner != msg.requester:
                    # Shouldn't happen (owner handled earlier), defensive.
                    ent.sharers.add(ent.owner)
                    ent.owner = None
        else:  # GetX
            if self.se_l3 is not None:
                # Stream-grain coherence (SS V-B): a write-ownership
                # request may invalidate streams that fetched this range.
                self.se_l3.check_write(base, msg.requester)
            for sharer in sorted(ent.sharers):
                if sharer == msg.requester:
                    continue
                self.dir.invalidations_sent += 1
                self.stats.add("l3.invalidations")
                self.net.send_new(
                    self.tile, sharer, CTRL, control_payload_bits(), "l2",
                    body=acquire_msg("Inv", base, msg.requester),
                )
            grant = MODIFIED
            ent.sharers.clear()
            ent.owner = msg.requester
        self.net.send_new(
            self.tile, msg.requester, DATA,
            data_payload_bits(LINE_SIZE), "l2",
            body=acquire_msg("Data", base, msg.requester, grant=grant,
                             dirty=line_dirty and grant == MODIFIED),
        )

    def send_data_u(self, dst: int, msg: CohMsg, dsts: Optional[List[int]] = None) -> None:
        """Uncached data response(s) to SE_L2 buffers.

        ``dsts`` (multicast, stream confluence) overrides ``dst``.
        """
        body = CohMsg(
            op="DataU", addr=msg.addr & _LINE_MASK, requester=msg.requester,
            data_bytes=msg.data_bytes, stream_id=msg.stream_id,
            element=msg.element,
        )
        payload = data_payload_bits(msg.data_bytes)
        if dsts and len(dsts) > 1:
            self.net.multicast(
                src=self.tile, dsts=dsts, kind=DATA,
                payload_bits=payload, dst_port="se_l2", body=body,
            )
        else:
            # Unicast DataU: pooled packet shell, but the body stays a
            # plain allocation — the SE_L2 may park it on a stream.
            target = dsts[0] if dsts else dst
            self.net.send_new(
                self.tile, target, DATA, payload, "se_l2", body=body,
            )

    # ------------------------------------------------------------------
    # fills and completions
    # ------------------------------------------------------------------
    def _mem_data(self, msg: CohMsg) -> None:
        base = msg.addr & _LINE_MASK
        self._fill(base, dirty=False)
        self._complete(base)

    def _down_data(self, msg: CohMsg) -> None:
        """Owner's writeback after FwdGetS/FwdGetX."""
        base = msg.addr & _LINE_MASK
        line = self.array.lookup(base)
        if line is None:
            self._fill(base, dirty=True)
        else:
            line.dirty = True
        # Owner relinquished M/E (downgrade or invalidate).
        entry = self.mshr.lookup(base)
        head_msg = entry.meta["head"][1] if entry else None
        ent = self.dir.entry(base)
        if head_msg is not None and head_msg.op == "GetX":
            # Owner invalidated itself; requester becomes owner below.
            ent.owner = None
            ent.sharers.clear()
        else:
            # GetS downgrade: old owner stays on as a sharer.
            if ent.owner is not None:
                ent.sharers.add(ent.owner)
                ent.owner = None
        self._complete(base)

    def _down_data_u(self, msg: CohMsg) -> None:
        """Owner supplied data for a GetU without state change."""
        base = msg.addr & _LINE_MASK
        self._complete(base)

    def _fwd_miss(self, msg: CohMsg) -> None:
        """The owner no longer had the line: clear stale ownership and
        retry the queued head transaction."""
        base = msg.addr & _LINE_MASK
        entry = self.mshr.lookup(base)
        self.dir.remove(base, msg.requester)
        if entry is None:
            return
        src, head = entry.meta["head"]
        queued = entry.meta.get("queued", [])
        self.mshr.recycle(self.mshr.release(base))
        self.stats.add("l3.fwd_misses")
        self.sim.schedule(self.latency, self._process, src, head)
        for qsrc, qmsg in queued:
            self.sim.schedule(self.latency, self._process, qsrc, qmsg)
        self._drain_waitq()

    def _complete(self, base: int) -> None:
        """Head transaction's data is now at the bank: satisfy it and
        replay anything queued behind it."""
        entry = self.mshr.lookup(base)
        if entry is None:
            return
        src, head = entry.meta["head"]
        queued = entry.meta.get("queued", [])
        self.mshr.recycle(self.mshr.release(base))
        line = self.array.lookup(base, touch=False)
        self._satisfy(head, line_dirty=bool(line and line.dirty))
        for qsrc, qmsg in queued:
            self.sim.schedule(0, self._process, qsrc, qmsg)
        self._drain_waitq()

    def _drain_waitq(self) -> None:
        """Admit parked requests as MSHRs free up (FIFO order)."""
        free = self.mshr.capacity - len(self.mshr)
        for _ in range(min(free, len(self._waitq))):
            src, msg = self._waitq.pop(0)
            self.sim.schedule(0, self._replay_parked, src, msg)

    def _replay_parked(self, src: int, msg: CohMsg) -> None:
        self._process(src, msg)
        # The request may have completed without ever allocating an
        # MSHR (the line arrived at the bank while it was parked, so it
        # hit). No transaction completion will fire then, so keep
        # draining here or the rest of the queue is stranded.
        self._drain_waitq()

    def _put_m(self, src: int, msg: CohMsg) -> None:
        base = msg.addr & _LINE_MASK
        self.stats.add("l3.putm")
        line = self.array.lookup(base, touch=False)
        if line is None:
            self._fill(base, dirty=True)
        else:
            line.dirty = True
        self.dir.remove(base, msg.requester)
        self.net.send_new(
            self.tile, msg.requester, CTRL, control_payload_bits(), "l2",
            body=acquire_msg("PutAck", base, msg.requester),
        )

    def _fill(self, base: int, dirty: bool) -> None:
        """Insert a line, back-invalidating the victim's sharers
        (inclusive LLC) and writing back dirty victims."""
        if self.array.contains(base):
            if dirty:
                self.array.lookup(base, touch=False).dirty = True
            return
        line, evicted = self.array.fill(
            base, SHARED, now=self.sim.now, avoid=self._blocked,
        )
        line.dirty = dirty
        if evicted is None:
            return
        self.stats.add("l3.evictions")
        ent = self.dir.clear(evicted.addr)
        if ent is not None:
            targets = set(ent.sharers)
            if ent.owner is not None:
                targets.add(ent.owner)
            for tile in sorted(targets):
                self.stats.add("l3.back_invalidations")
                self.net.send_new(
                    self.tile, tile, CTRL, control_payload_bits(), "l2",
                    body=acquire_msg("Inv", evicted.addr, self.tile,
                                     writeback_to_dram=True),
                )
        if evicted.dirty:
            dram_tile = self.dram.controller_tile(evicted.addr)
            self.net.send_new(
                self.tile, dram_tile, DATA,
                data_payload_bits(LINE_SIZE), "dram",
                body=acquire_msg("MemWrite", evicted.addr, self.tile),
            )
