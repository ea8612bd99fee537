"""Runtime invariant sanitizer for the simulated chip.

A pluggable checking layer that components register with the shared
:class:`~repro.sim.kernel.Simulator`.  When enabled (``--sanitize``
harness flag, the ``REPRO_SANITIZE`` environment variable, or the
tier-1 pytest autouse fixture) it wraps a handful of component entry
points and validates protocol invariants *while the simulation runs*,
so bugs surface at the cycle they happen instead of as corrupted
stats thousands of events later.

Checkers (DESIGN.md §7):

- **S1 MESI single-writer / directory agreement** — after every
  coherence-carrying delivery and L3 transaction step: at most one L2
  holds a line in M/E; M/E never coexists with S copies unless an
  invalidation is in flight to the sharer; an L1 ``writable`` hint is
  always backed by L2 write permission; at quiescence the directory
  and the private caches agree exactly.
- **S2 MSHR watchdog** — no MSHR entry outstanding longer than
  ``MSHR_AGE_BOUND`` cycles; every file empty at drain.
- **S3 NoC conservation** — every injected packet is eventually
  ejected (per-packet age bound while in flight, injected == delivered
  and zero in-flight at drain).
- **S4 floated-stream lifetime and credits** — every stream floated
  by an SE_L2 is ended or dropped exactly once across the SE_L3s;
  credits consumed by the issue units never exceed credits granted;
  confluence multicast fan-out stays within one 2x2 block and the
  group-size cap; no SE_L3 retains streams, pending credits or
  confluence groups at drain.
- **S5 determinism trace** — a rolling CRC over the (cycle,
  event-name) trace, exposed as the ``sanitizer.trace_hash`` stat so
  the harness can compare runs across ``--jobs`` values.

Violations raise :class:`SanitizerError` carrying the cycle, tile and
offending object.  When disabled the hooks cost nothing: components
check ``sim.sanitizer`` once at construction and register only if it
exists — no per-event guards anywhere.
"""

from __future__ import annotations

import os
import zlib
from typing import Any, Dict, List, Optional, Tuple

ENV_SANITIZE = "REPRO_SANITIZE"

_OFF_VALUES = ("", "0", "off", "false", "no")


def enabled_by_env() -> bool:
    """Is ``REPRO_SANITIZE`` set to a truthy value?"""
    return os.environ.get(ENV_SANITIZE, "").strip().lower() not in _OFF_VALUES


def handler_name(fn) -> str:
    """The name S5 records for a dispatched callback."""
    return getattr(fn, "__qualname__", None) or type(fn).__name__


def s5_crc(crc: int, when: int, name: str) -> int:
    """Fold one dispatched ``(cycle, handler name)`` pair into the S5
    determinism CRC. The sanitizer's trace hash and the divergence
    recorder's checkpoints both go through here, so they always
    describe the same stream."""
    return zlib.crc32(b"%d|%s" % (when, name.encode()), crc)


def maybe_attach(sim) -> Optional["Sanitizer"]:
    """Attach a sanitizer to ``sim`` iff the environment enables it."""
    if enabled_by_env():
        return Sanitizer(sim)
    return None


class SanitizerError(AssertionError):
    """A runtime invariant violation.

    Carries the failed check's id (``"S1"``..``"S5"``), the simulation
    cycle, the tile (when attributable) and the offending object.
    """

    def __init__(
        self,
        check: str,
        message: str,
        cycle: int,
        tile: Optional[int] = None,
        obj: Any = None,
    ) -> None:
        self.check = check
        self.cycle = cycle
        self.tile = tile
        self.obj = obj
        detail = f"[{check}] cycle {cycle}"
        if tile is not None:
            detail += f" tile {tile}"
        detail += f": {message}"
        if obj is not None:
            detail += f" ({obj!r})"
        super().__init__(detail)


class Sanitizer:
    """Invariant checkers hanging off one :class:`Simulator`.

    Components self-register in their constructors::

        san = getattr(sim, "sanitizer", None)
        if san is not None:
            san.watch_l2(self)

    so both full :class:`~repro.system.chip.Chip` assemblies and the
    bare component rigs in the unit tests get coverage.
    """

    # Watchdog bounds (cycles). Generous: the deepest legitimate wait
    # is an L3 miss behind a congested DRAM queue, a few thousand
    # cycles even in the stress configurations.
    MSHR_AGE_BOUND = 200_000
    NOC_AGE_BOUND = 200_000
    # Periodic scans piggyback on the event loop every N events (a
    # self-rescheduling watchdog event would keep the queue non-empty
    # and break the chip's drain loop).
    SCAN_PERIOD = 4096

    def __init__(self, sim) -> None:
        self.sim = sim
        sim.sanitizer = self
        self.violations = 0
        # S5 rolling trace hash.
        self._crc = 0
        self._hashed = 0
        # Component registries.
        self._l1s: Dict[int, Any] = {}
        self._l2s: Dict[int, Any] = {}
        self._banks: Dict[int, Any] = {}
        self._se_l2s: Dict[int, Any] = {}
        self._se_l3s: Dict[int, Any] = {}
        self._mshrs: List[Tuple[str, int, Any]] = []
        # S3 packet conservation.
        self._in_flight: Dict[int, Tuple[Any, int]] = {}
        self._injected = 0
        self._delivered = 0
        # S1 transient excuses: (line, dst tile) -> in-flight Inv count.
        self._invs: Dict[Tuple[int, int], int] = {}
        # S4 lifetime ledgers, keyed per incarnation (tile, sid, epoch);
        # credit ledgers are cumulative per (tile, sid).
        self._floats: Dict[Tuple[int, int, int], int] = {}
        self._terms: Dict[Tuple[int, int, int], int] = {}
        self._granted: Dict[Tuple[int, int], int] = {}
        self._consumed: Dict[Tuple[int, int], int] = {}
        sim.add_step_observer(self._observe_step)

    # ------------------------------------------------------------------
    # failure reporting
    # ------------------------------------------------------------------
    def _fail(
        self, check: str, message: str, tile: Optional[int] = None, obj: Any = None,
    ) -> None:
        self.violations += 1
        raise SanitizerError(check, message, self.sim.now, tile=tile, obj=obj)

    # ------------------------------------------------------------------
    # S5: determinism trace (+ the periodic scan heartbeat)
    # ------------------------------------------------------------------
    @property
    def trace_hash(self) -> int:
        """CRC32 over the (cycle, event-name) trace so far."""
        return self._crc

    @property
    def trace_events(self) -> int:
        return self._hashed

    def _observe_step(self, when: int, fn) -> None:
        self._crc = s5_crc(self._crc, when, handler_name(fn))
        self._hashed += 1
        if self._hashed % self.SCAN_PERIOD == 0:
            self._periodic_scan()

    def _periodic_scan(self) -> None:
        now = self.sim.now
        for label, tile, mshr in self._mshrs:
            age = mshr.oldest_age(now)
            if age > self.MSHR_AGE_BOUND:
                self._fail(
                    "S2",
                    f"{label} MSHR entry outstanding for {age} cycles "
                    f"(bound {self.MSHR_AGE_BOUND})",
                    tile=tile, obj=mshr.outstanding()[:4],
                )
        for _pid, (pkt, injected_at) in self._in_flight.items():
            age = now - injected_at
            if age > self.NOC_AGE_BOUND:
                self._fail(
                    "S3",
                    f"packet in flight for {age} cycles without delivery",
                    obj=pkt,
                )

    # ------------------------------------------------------------------
    # S3: NoC conservation (+ the S1 Inv excuse bookkeeping)
    # ------------------------------------------------------------------
    def watch_network(self, net) -> None:
        """Join the network's delivery-observer list: S3 tracks every
        injected packet until its handler runs, S1 counts in-flight
        invalidations as excuses and re-checks each line an ``l2``
        delivery touched."""
        net.add_delivery_observer(
            self._note_injection, self._note_delivery, self._after_delivery,
        )

    def _note_injection(self, packet, when: int, links, flits: int) -> None:
        self._in_flight[packet.pid] = (packet, self.sim.now)
        self._injected += 1
        body = packet.body
        if getattr(body, "op", None) == "Inv":
            key = (self._line(body.addr), packet.dst)
            self._invs[key] = self._invs.get(key, 0) + 1

    def _note_delivery(self, handler, pkt) -> None:
        if self._in_flight.pop(pkt.pid, None) is None:
            self._fail(
                "S3", "packet delivered but never tracked as injected",
                tile=pkt.dst, obj=pkt,
            )
        self._delivered += 1

    def _after_delivery(self, handler, pkt) -> None:
        body = pkt.body
        addr = getattr(body, "addr", None)
        if getattr(body, "op", None) == "Inv":
            key = (self._line(addr), pkt.dst)
            n = self._invs.get(key, 0)
            if n <= 1:
                self._invs.pop(key, None)
            else:
                self._invs[key] = n - 1
        if pkt.dst_port == "l2" and addr is not None:
            self._check_line(self._line(addr))

    # ------------------------------------------------------------------
    # S1: MESI single-writer / directory agreement
    # ------------------------------------------------------------------
    def _line(self, addr: int):
        from repro.mem.addr import line_addr

        return line_addr(addr)

    def _mesi(self):
        from repro.mem.cache import EXCLUSIVE, MODIFIED, SHARED

        return MODIFIED, EXCLUSIVE, SHARED

    def watch_l1(self, l1) -> None:
        self._l1s[l1.tile] = l1
        self._mshrs.append(("l1", l1.tile, l1.mshr))
        san = self
        inner_wb = l1._writeback_to_l2

        def writeback(addr: int) -> None:
            M, E, _S = san._mesi()
            line = l1.l2.array.lookup(addr, touch=False)
            if line is not None and line.state not in (M, E):
                san._fail(
                    "S1",
                    f"dirty L1 writeback folds into L2 line {addr:#x} "
                    f"without write permission (state {line.state!r})",
                    tile=l1.tile, obj=line,
                )
            inner_wb(addr)

        l1._writeback_to_l2 = writeback

    def watch_l2(self, l2) -> None:
        self._l2s[l2.tile] = l2
        self._mshrs.append(("l2", l2.tile, l2.mshr))

    def watch_l3(self, bank) -> None:
        self._banks[bank.tile] = bank
        self._mshrs.append(("l3", bank.tile, bank.mshr))
        san = self
        inner_process = bank._process

        def process(src: int, msg) -> None:
            inner_process(src, msg)
            if msg.op not in ("GetU", "MemRead"):
                san._check_line(san._line(msg.addr))

        bank._process = process

    def _check_line(self, base: int) -> None:
        """Cross-tile snapshot invariants for one line."""
        M, E, S = self._mesi()
        writers = []
        sharers = []
        for tile, l2 in self._l2s.items():
            line = l2.array.lookup(base, touch=False)
            if line is None:
                continue
            if line.state in (M, E):
                writers.append(tile)
            elif line.state == S:
                sharers.append(tile)

        def excused(tile: int) -> bool:
            # An Inv in flight to the tile makes its stale copy legal.
            return self._invs.get((base, tile), 0) > 0

        if len(writers) > 1:
            unexcused = [t for t in writers if not excused(t)]
            if len(unexcused) > 1:
                self._fail(
                    "S1",
                    f"line {base:#x} has multiple M/E owners {writers}",
                    obj=tuple(writers),
                )
        if writers and sharers:
            for tile in sharers:
                if not excused(tile):
                    self._fail(
                        "S1",
                        f"line {base:#x} in M/E at {writers} while still "
                        f"shared at tile {tile} with no Inv in flight",
                        tile=tile,
                    )
        for tile, l1 in self._l1s.items():
            line = l1.array.lookup(base, touch=False)
            if line is None:
                continue
            l2 = self._l2s.get(tile)
            backing = l2.array.lookup(base, touch=False) if l2 else None
            if backing is None:
                self._fail(
                    "S1",
                    f"L1 line {base:#x} not backed by the inclusive L2",
                    tile=tile,
                )
            elif line.writable and backing.state not in (M, E):
                self._fail(
                    "S1",
                    f"L1 writable hint for {base:#x} without L2 write "
                    f"permission (L2 state {backing.state!r})",
                    tile=tile, obj=line,
                )

    # ------------------------------------------------------------------
    # S4: floated-stream lifetime and credit accounting
    # ------------------------------------------------------------------
    def watch_se_l2(self, se) -> None:
        self._se_l2s[se.tile] = se
        san = self
        inner_send = se._send_config

        def send_config(stream) -> None:
            # One ledger entry per incarnation (tile, sid, epoch) that
            # reaches an SE_L3: each must be ended or dropped exactly
            # once there. Pure-L2 plan floats never configure an SE_L3
            # and stay out of the ledger; a deferred config enters it
            # at send time with every credit granted so far.
            inner_send(stream)
            ikey = (se.tile, stream.sid, stream.epoch)
            if ikey in san._floats:
                san._fail(
                    "S4", f"stream incarnation {ikey} configured twice",
                    tile=se.tile, obj=ikey,
                )
            san._floats[ikey] = 1
            key = (se.tile, stream.sid)
            san._granted[key] = (
                san._granted.get(key, 0) + stream.granted - stream.l3_start
            )

        se._send_config = send_config
        inner_free = se._free

        def free(stream, count: int) -> None:
            before_granted = stream.granted
            sent_before = stream.config_sent
            inner_free(stream, count)
            delta = stream.granted - before_granted
            if delta > 0 and sent_before:
                # Grants before the config is sent ride the config
                # itself (counted by the send wrapper above).
                key = (se.tile, stream.sid)
                san._granted[key] = san._granted.get(key, 0) + delta

        se._free = free

    def watch_se_l3(self, se) -> None:
        self._se_l3s[se.tile] = se
        san = self
        inner_issue = se._issue_one

        def issue_one(stream) -> bool:
            members = (
                list(stream.group.members) if stream.group is not None
                else [stream]
            )
            before = {m.key: m.credits for m in members}
            out = inner_issue(stream)
            for m in members:
                spent = before[m.key] - m.credits
                if spent > 0:
                    san._consume(m.key, spent, se.tile)
            fwd = se.forwarding.get(stream.key)
            if stream.key not in se.streams and (
                fwd is None or fwd[1] != stream.epoch
            ):
                # Silent completion. (A migration leaves a forwarding
                # breadcrumb carrying this incarnation's epoch; an
                # older breadcrumb for the same key doesn't count.)
                san._terminate(
                    (stream.requester, stream.spec.sid, stream.epoch),
                    se.tile,
                )
            return out

        se._issue_one = issue_one
        for name in ("_end", "check_write", "flush_floating"):
            self._wrap_terminal(se, name)
        inner_configure = se._configure

        def configure(spec, children, requester, start_idx, credits,
                      epoch=0, migrated=False, plan=None):
            key = (requester, spec.sid)
            prev = se.streams.get(key)
            inner_configure(spec, children, requester, start_idx,
                            credits, epoch, migrated, plan)
            cur = se.streams.get(key)
            if cur is prev:
                # The incoming incarnation was not installed (admission
                # rejection or stale Migrate): it dies here.
                san._terminate((requester, spec.sid, epoch), se.tile)
            elif prev is not None:
                # A superseded resident incarnation was replaced.
                san._terminate(
                    (requester, spec.sid, prev.epoch), se.tile,
                )

        se._configure = configure
        inner_ready = se._data_ready

        def data_ready(participants, element, msg) -> None:
            if len(participants) > se.MAX_GROUP:
                san._fail(
                    "S4",
                    f"confluence fan-out {len(participants)} exceeds the "
                    f"group cap {se.MAX_GROUP}",
                    tile=se.tile, obj=[m.key for m in participants],
                )
            tiles = [m.requester for m in participants]
            if len(set(tiles)) != len(tiles):
                san._fail(
                    "S4", "duplicate requester tile in confluence multicast",
                    tile=se.tile, obj=tiles,
                )
            if len(participants) > 1:
                blocks = {se.mesh.block_of(t, se.BLOCK) for t in tiles}
                if len(blocks) > 1:
                    san._fail(
                        "S4",
                        f"confluence group spans tile blocks {sorted(blocks)}",
                        tile=se.tile, obj=tiles,
                    )
            inner_ready(participants, element, msg)

        se._data_ready = data_ready

    def _wrap_terminal(self, se, name: str) -> None:
        """Wrap an SE_L3 method that may remove streams: any key that
        leaves ``se.streams`` without a forwarding entry terminated
        here (migrations leave a forwarding breadcrumb)."""
        san = self
        inner = getattr(se, name)

        def wrapped(*args, **kwargs):
            before = dict(se.streams)
            out = inner(*args, **kwargs)
            for key, stream in before.items():
                if se.streams.get(key) is stream:
                    continue
                fwd = se.forwarding.get(key)
                if fwd is None or fwd[1] != stream.epoch:
                    san._terminate((key[0], key[1], stream.epoch), se.tile)
            return out

        wrapped.__qualname__ = getattr(inner, "__qualname__", name)
        setattr(se, name, wrapped)

    def _terminate(self, ikey, tile: int) -> None:
        """Record the death of incarnation ``(tile, sid, epoch)``."""
        if ikey not in self._floats:
            return  # configured outside a watched SE_L2 (bare-rig tests)
        n = self._terms.get(ikey, 0) + 1
        self._terms[ikey] = n
        if n > 1:
            self._fail(
                "S4",
                f"stream incarnation {ikey} ended/dropped {n} times",
                tile=tile, obj=ikey,
            )

    def _consume(self, key, count: int, tile: int) -> None:
        if key not in self._granted:
            return
        consumed = self._consumed.get(key, 0) + count
        self._consumed[key] = consumed
        if consumed > self._granted[key]:
            self._fail(
                "S4",
                f"stream {key} consumed {consumed} credits but only "
                f"{self._granted[key]} were granted",
                tile=tile, obj=key,
            )

    # ------------------------------------------------------------------
    # quiescence checks (from Chip.run after the final drain)
    # ------------------------------------------------------------------
    def final_check(self) -> None:
        """Strict invariants that only hold once the event queue has
        drained: exact directory agreement, empty MSHRs, zero packets
        in flight, no stream state left anywhere."""
        for label, tile, mshr in self._mshrs:
            if len(mshr):
                self._fail(
                    "S2",
                    f"{label} MSHR file not empty at drain",
                    tile=tile, obj=mshr.outstanding(),
                )
        if self._in_flight:
            self._fail(
                "S3",
                f"{len(self._in_flight)} packets injected but never "
                "delivered",
                obj=[pkt for pkt, _ in list(self._in_flight.values())[:4]],
            )
        if self._injected != self._delivered:
            self._fail(
                "S3",
                f"packet conservation broken: {self._injected} injected, "
                f"{self._delivered} delivered",
            )
        if self._invs:
            self._fail(
                "S1", "invalidations still marked in flight at drain",
                obj=dict(self._invs),
            )
        self._final_directory_check()
        self._final_stream_check()

    def _final_directory_check(self) -> None:
        M, E, _S = self._mesi()
        for btile, bank in self._banks.items():
            for base, ent in bank.dir.items():
                for tile in ent.holders():
                    l2 = self._l2s.get(tile)
                    line = l2.array.lookup(base, touch=False) if l2 else None
                    if line is None:
                        self._fail(
                            "S1",
                            f"directory lists tile {tile} for {base:#x} but "
                            "its L2 does not hold the line",
                            tile=btile, obj=ent,
                        )
                if ent.owner is not None:
                    l2 = self._l2s.get(ent.owner)
                    line = l2.array.lookup(base, touch=False) if l2 else None
                    if line is not None and line.state not in (M, E):
                        self._fail(
                            "S1",
                            f"directory owner {ent.owner} of {base:#x} holds "
                            f"it in state {line.state!r}",
                            tile=btile, obj=ent,
                        )
        for tile, l2 in self._l2s.items():
            if l2.nuca is None:
                break  # bare rig without a NUCA map: skip reverse check
            for line in l2.array.all_lines():
                bank = self._banks.get(l2.nuca.bank_of(line.addr))
                if bank is None:
                    continue
                ent = bank.dir.peek(line.addr)
                if ent is None or tile not in ent.holders():
                    self._fail(
                        "S1",
                        f"L2 holds {line.addr:#x} (state {line.state!r}) "
                        "unknown to its home directory",
                        tile=tile, obj=line,
                    )
                elif line.state in (M, E) and ent.owner != tile:
                    self._fail(
                        "S1",
                        f"L2 holds {line.addr:#x} in {line.state!r} but the "
                        f"directory owner is {ent.owner}",
                        tile=tile, obj=ent,
                    )
        for tile, l1 in self._l1s.items():
            l2 = self._l2s.get(tile)
            if l2 is None:
                continue
            for line in l1.array.all_lines():
                if not l2.array.contains(line.addr):
                    self._fail(
                        "S1",
                        f"L1 line {line.addr:#x} missing from the inclusive "
                        "L2",
                        tile=tile, obj=line,
                    )

    def _final_stream_check(self) -> None:
        for tile, se in self._se_l3s.items():
            if se.streams:
                self._fail(
                    "S4", "floated streams still resident at drain",
                    tile=tile, obj=sorted(se.streams),
                )
            if se.pending_credits:
                self._fail(
                    "S4", "credits still parked at drain",
                    tile=tile, obj=dict(se.pending_credits),
                )
            if se.groups:
                self._fail(
                    "S4", "confluence group leaked at drain",
                    tile=tile, obj=se.groups,
                )
        for tile, se in self._se_l2s.items():
            for sid, stream in se.streams.items():
                if stream.waiters or stream.child_waiters:
                    self._fail(
                        "S4",
                        f"SE_L2 stream {sid} still has waiters at drain",
                        tile=tile, obj=stream.waiters,
                    )
        for ikey in self._floats:
            if self._terms.get(ikey, 0) != 1:
                self._fail(
                    "S4",
                    f"stream incarnation {ikey} floated but was "
                    f"ended/dropped {self._terms.get(ikey, 0)} times",
                    obj=ikey,
                )
