"""L3-bank-side stream engine (SE_L3, Figure 10).

Each L3 bank hosts an SE_L3 with the units the paper describes:

- **configure unit**: accepts FloatConfig/Migrate packets and sets up
  stream state;
- **issue unit**: round-robin over ready streams, generating GetU
  requests to the colocated bank on behalf of the requesting tile;
- **migrate unit**: when the next element maps to another bank,
  hands the stream off with its current iteration and remaining
  credits;
- **merge unit** (stream confluence, SS IV-C): affine streams from
  different cores in the same 2x2 tile block with identical
  parameters form a confluence group of up to 4; the issue unit
  services the group's common element once and multicasts the
  response, delaying members that are ahead so laggards catch up;
- **translate unit**: a local TLB queried once per page for affine
  streams and once per element for indirect streams;
- **operands table** (indirect floating, SS IV-B): when an affine
  parent element's data is ready, chained indirect addresses are
  computed here and fetched at their home bank — only the requested
  subline returns to the core.

Credits and End packets for streams that have migrated away are
forwarded along the recorded migration path.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.mem.addr import LINE_SIZE, NucaMap, line_addr, page_index
from repro.mem.coherence import CohMsg
from repro.mem.l3 import L3Bank
from repro.mem.tlb import Tlb
from repro.noc.message import CTRL, DATA, STREAM, Packet, data_payload_bits
from repro.noc.network import Network
from repro.noc.topology import Mesh
from repro.streams.pattern import AffinePattern
from repro.streams.plan import FloatPlan
from repro.sim.kernel import Simulator
from repro.sim.stats import Stats
from repro.streams.isa import StreamSpec
from repro.streams.messages import (
    Credit,
    EndAck,
    EndStream,
    FloatConfig,
    IndFetch,
    Migrate,
    StreamInv,
)

StreamKey = Tuple[int, int]  # (requester tile, sid)


@dataclass
class L3Stream:
    """One floated stream resident at this bank."""

    spec: StreamSpec
    children: List[StreamSpec]
    requester: int
    next_idx: int
    credits: int
    group: Optional["ConfluenceGroup"] = None
    # Incarnation counter from the SE_L2 (a sid can sink and re-float);
    # stale credits/ends from an earlier incarnation are dropped.
    epoch: int = 0
    # Per-range float plan; the resident stream covers only the plan's
    # L3 range (``length`` is truncated to its end at configure).
    plan: Optional["FloatPlan"] = None
    # Hot-path caches (DESIGN.md §12). ``length`` snapshots the
    # immutable spec length; ``key`` the immutable routing key. The
    # ``cached_*`` trio memoizes address/bank for ``next_idx`` so the
    # issue unit computes each element's address once, not once per
    # actionability probe. ``prev_page`` is the page of element
    # ``next_idx - 1`` (-1: none / recompute), maintained so the TLB
    # page-boundary test avoids a second address computation.
    length: int = field(init=False, default=0)
    key: StreamKey = field(init=False, default=(0, 0))
    cached_idx: int = field(init=False, default=-1)
    cached_addr: int = field(init=False, default=0)
    cached_bank: int = field(init=False, default=-1)
    prev_page: int = field(init=False, default=-1)

    def __post_init__(self) -> None:
        self.length = self.spec.length
        self.key = (self.requester, self.spec.sid)

    @property
    def done(self) -> bool:
        return self.next_idx >= self.length

    @property
    def issuable(self) -> bool:
        return not self.done and self.credits > 0


@dataclass
class ConfluenceGroup:
    """Up to 4 same-pattern streams from one 2x2 tile block."""

    members: List[L3Stream] = field(default_factory=list)

    def remove(self, stream: L3Stream) -> None:
        if stream in self.members:
            self.members.remove(stream)
        stream.group = None

    def frontier(self) -> Optional[int]:
        """The minimum next element over issuable members — the index
        the group services next (delaying members that are ahead)."""
        idxs = [m.next_idx for m in self.members if m.issuable]
        return min(idxs) if idxs else None


class SEL3:
    """Stream engine at an L3 bank."""

    MAX_GROUP = 4
    BLOCK = 2  # confluence restricted to 2x2 tile blocks
    PUMP_BATCH = 4  # elements issued per pump activation
    PUMP_INTERVAL = 4  # cycles between activations (1 element/cycle avg)

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        stats: Stats,
        tile: int,
        bank: L3Bank,
        nuca: NucaMap,
        mesh: Mesh,
        max_streams: int = 768,
        confluence_enabled: bool = True,
        indirect_enabled: bool = True,
        stream_grain_coherence: bool = False,
        tlb: Optional[Tlb] = None,
    ) -> None:
        self.sim = sim
        self.net = net
        self.stats = stats
        self.tile = tile
        self.bank = bank
        self.nuca = nuca
        self.mesh = mesh
        self.max_streams = max_streams
        self.confluence_enabled = confluence_enabled
        self.indirect_enabled = indirect_enabled
        self.stream_grain_coherence = stream_grain_coherence
        # SS V-B: base/bound registers of ranges each resident stream
        # has fetched (conservative: false positives invalidate).
        self.ranges: Dict[StreamKey, Tuple[int, int]] = {}
        self.tlb = tlb or Tlb(entries=1024, hit_latency=2)
        self.streams: Dict[StreamKey, L3Stream] = {}
        self.groups: List[ConfluenceGroup] = []
        # Streams that migrated away: key -> (next bank, epoch), for
        # forwarding late credits / end packets of that incarnation.
        self.forwarding: Dict[StreamKey, Tuple[int, int]] = {}
        # Credits that raced ahead of their stream's migration here:
        # key -> (epoch, count).
        self.pending_credits: Dict[StreamKey, Tuple[int, int]] = {}
        self._rr: Deque[StreamKey] = deque()  # round-robin order
        self._pump_armed = False
        # Interned counter cells for the per-element hot path.
        self._c_tlb = stats.counter("se_l3.tlb_lookups")
        self._c_elements = stats.counter("se_l3.elements_issued")
        self._tel = getattr(sim, "telemetry", None)
        bank.se_l3 = self
        net.register(tile, "se_l3", self.handle)
        san = getattr(sim, "sanitizer", None)
        if san is not None:
            san.watch_se_l3(self)

    # ------------------------------------------------------------------
    # network ingress
    # ------------------------------------------------------------------
    def handle(self, pkt: Packet) -> None:
        body = pkt.body
        if isinstance(body, FloatConfig):
            self._configure(body.spec, body.children, body.requester,
                            body.start_idx, body.credits, body.epoch,
                            plan=body.plan)
        elif isinstance(body, Migrate):
            self.stats.add("se_l3.migrations_in")
            self._configure(body.spec, body.children, body.requester,
                            body.next_idx, body.credits, body.epoch,
                            migrated=True, plan=body.plan)
        elif isinstance(body, Credit):
            self._credit(body)
        elif isinstance(body, EndStream):
            self._end(body)
        elif isinstance(body, IndFetch):
            self._indirect_fetch(body)
        else:
            raise ValueError(f"SE_L3 got unexpected body {type(body)!r}")

    # ------------------------------------------------------------------
    # configure / merge units
    # ------------------------------------------------------------------
    def _configure(
        self,
        spec: StreamSpec,
        children: List[StreamSpec],
        requester: int,
        start_idx: int,
        credits: int,
        epoch: int = 0,
        migrated: bool = False,
        plan: Optional[FloatPlan] = None,
    ) -> None:
        """Install (or reject) an incoming stream configuration. Each
        exit hands its verdict to the provenance probe: ``"installed"``,
        ``"replaced"`` (an older resident incarnation was evicted),
        ``"stale"`` (the arrival lost to a newer incarnation) or
        ``"rejected"`` (admission control)."""
        key = (requester, spec.sid)
        existing = self.streams.get(key)
        if existing is not None and existing.epoch >= epoch:
            # A Migrate from a superseded incarnation arrived after the
            # sid was re-floated here: the old incarnation dies here.
            self.stats.add("se_l3.stale_migrates")
            if self._tel is not None:
                self._publish_config("stale", spec, requester, start_idx,
                                     credits, epoch, migrated, plan)
            return
        fwd = self.forwarding.get(key)
        if fwd is not None and fwd[1] > epoch:
            # Likewise stale relative to a newer incarnation that
            # already migrated through this bank.
            self.stats.add("se_l3.stale_migrates")
            if self._tel is not None:
                self._publish_config("stale", spec, requester, start_idx,
                                     credits, epoch, migrated, plan)
            return
        if not migrated and len(self.streams) >= self.max_streams:
            # Reject only fresh floats. A migrating stream already owns
            # buffer and credit state at its requester; bouncing it
            # would strand that state and deadlock the core.
            self.stats.add("se_l3.config_rejected")
            if self._tel is not None:
                self._publish_config("rejected", spec, requester, start_idx,
                                     credits, epoch, migrated, plan)
            return
        if existing is not None:
            # Older incarnation still resident (its EndStream is still
            # chasing it): replace it, keeping group/rotation clean.
            self._drop(existing)
        stream = L3Stream(
            spec=spec, children=list(children), requester=requester,
            next_idx=start_idx, credits=credits, epoch=epoch, plan=plan,
        )
        if plan is not None:
            # This bank serves only the plan's L3 range: the stream
            # completes (silently, SS IV-A) at the range's end.
            stream.length = min(
                stream.length, plan.run_end(start_idx, stream.length)
            )
        self.streams[key] = stream
        if fwd is not None and fwd[1] == epoch:
            # The stream returned to a bank it had left this epoch.
            del self.forwarding[key]
        pending = self.pending_credits.get(key)
        if pending is not None and pending[0] <= epoch:
            del self.pending_credits[key]
            if pending[0] == epoch:
                stream.credits += pending[1]
        self._rr.append(key)
        self.stats.add("se_l3.streams_configured")
        if self.confluence_enabled and not spec.is_indirect:
            self._try_merge(stream)
        self._arm_pump()
        if self._tel is not None:
            self._publish_config(
                "replaced" if existing is not None else "installed",
                spec, requester, start_idx, credits, epoch, migrated, plan)

    def _publish_config(
        self, verdict: str, spec: StreamSpec, requester: int,
        start_idx: int, credits: int, epoch: int, migrated: bool,
        plan: Optional[FloatPlan],
    ) -> None:
        """The configure ``decision`` probe (provenance pillar only)."""
        tel = self._tel
        if tel.provenance is None:
            return
        inputs = {
            "start_idx": start_idx, "credits": credits,
            "epoch": epoch, "migrated": migrated,
            "pattern": type(spec.pattern).__name__,
            "length": spec.length,
            "resident_streams": len(self.streams),
        }
        if plan is not None:
            inputs["plan"] = plan.describe()
        tel.publish(
            "decision", tile=self.tile,
            detail=f"config_{verdict} ({requester},{spec.sid})",
            verdict=f"config_{verdict}", sid=spec.sid, requester=requester,
            reason="migrate" if migrated else "float_config", inputs=inputs,
        )

    def _try_merge(self, stream: L3Stream) -> None:
        """Merge unit: one parameter comparison per existing stream
        (the paper does one per cycle; the cost is negligible here)."""
        my_block = self.mesh.block_of(stream.requester, self.BLOCK)
        for other in self.streams.values():
            if other is stream or other.spec.is_indirect:
                continue
            if other.requester == stream.requester:
                continue
            if self.mesh.block_of(other.requester, self.BLOCK) != my_block:
                continue
            if not stream.spec.pattern.same_shape(other.spec.pattern):
                continue
            group = other.group
            if group is None:
                group = ConfluenceGroup(members=[other])
                other.group = group
                self.groups.append(group)
            if len(group.members) >= self.MAX_GROUP:
                continue
            # The requester check above only compared against the
            # matched stream; an existing group may already hold a
            # *different* stream from our tile, and joining it would
            # put duplicate requester tiles in the confluence
            # multicast (caught by sanitizer check S4).
            if any(m.requester == stream.requester for m in group.members):
                continue
            group.members.append(stream)
            stream.group = group
            self.stats.add("se_l3.confluences")
            if self._tel is not None:
                self._tel.publish(
                    "confluence", tile=self.tile,
                    detail=f"{stream.key} joined group of "
                           f"{len(group.members)}",
                    requester=stream.requester, sid=stream.spec.sid,
                    size=len(group.members),
                )
            return

    # ------------------------------------------------------------------
    # issue unit
    # ------------------------------------------------------------------
    def _arm_pump(self) -> None:
        if not self._pump_armed:
            self._pump_armed = True
            self.sim.schedule(1, self._pump)

    def _pump(self) -> None:
        self._pump_armed = False
        issued = 0
        scanned = 0
        rr = self._rr
        streams = self.streams
        while issued < self.PUMP_BATCH and scanned < len(rr):
            if not rr:
                break
            key = rr.popleft()
            if key not in streams:
                continue  # ended/migrated; drop from rotation
            stream = streams[key]
            rr.append(key)
            scanned += 1
            if self._issue_one(stream):
                issued += 1
                scanned = 0  # progress resets the idle scan
        for k in rr:
            if k in streams and self._actionable(streams[k]):
                self._pump_armed = True
                self.sim.schedule(self.PUMP_INTERVAL, self._pump)
                break

    def _stream_addr_bank(self, stream: L3Stream) -> Tuple[int, int]:
        """(address, home bank) of ``stream.next_idx``, memoized on
        the stream so repeated actionability probes at the same index
        don't recompute the affine address (DESIGN.md §12)."""
        idx = stream.next_idx
        if stream.cached_idx == idx:
            return stream.cached_addr, stream.cached_bank
        addr = stream.spec.pattern.address(idx)
        bank = self.nuca.bank_of(addr)
        stream.cached_idx = idx
        stream.cached_addr = addr
        stream.cached_bank = bank
        return addr, bank

    def _actionable(self, stream: L3Stream) -> bool:
        """Does the issue unit have anything to do for this stream?"""
        if stream.next_idx >= stream.length:
            return True  # silent completion cleanup
        _addr, bank = self._stream_addr_bank(stream)
        if bank != self.tile:
            return True  # must migrate (with or without credits)
        return stream.credits > 0 and self._group_ready(stream)

    def _group_ready(self, stream: L3Stream) -> bool:
        """Confluence delay: members ahead of the group's frontier
        wait for laggards (SS IV-C)."""
        if stream.group is None:
            return True
        frontier = stream.group.frontier()
        return frontier is not None and stream.next_idx == frontier

    def _issue_one(self, stream: L3Stream) -> bool:
        idx = stream.next_idx
        if idx >= stream.length:
            # Known-length streams terminate silently (SS IV-A).
            self._drop(stream)
            self.stats.add("se_l3.completed")
            return False
        addr, bank = self._stream_addr_bank(stream)
        if bank != self.tile:
            # Migrate even when out of credits — the credits will be
            # routed to (or are already waiting at) the next bank.
            self._migrate(stream, addr)
            return False
        if stream.credits <= 0 or not self._group_ready(stream):
            return False
        # Translate unit: affine streams only touch the TLB at page
        # boundaries (SS IV-E). ``prev_page`` carries the page of
        # element idx-1 between issues; a coalesced batch never leaves
        # its cache line, so the batch's last element shares the first
        # element's page.
        page = page_index(addr)
        if idx == 0:
            self.tlb.translate(addr)
            self._c_tlb[0] += 1
        else:
            prev_page = stream.prev_page
            if prev_page < 0:
                prev_page = page_index(stream.spec.pattern.address(idx - 1))
            if page != prev_page:
                self.tlb.translate(addr)
                self._c_tlb[0] += 1
        pattern = stream.spec.pattern
        group = stream.group
        if group is None:
            participants = None
            category = "float_affine"
            max_batch = stream.credits
        else:
            participants = [
                m for m in group.members
                if m.issuable and m.next_idx == idx
            ]
            if stream not in participants:
                participants.append(stream)
            category = "float_conf" if len(participants) > 1 else "float_affine"
            max_batch = min(m.credits for m in participants)
        # Coalesce consecutive same-line elements (subline affine
        # streams, e.g. a 4-byte index stream): one GetU and one DataU
        # serve the whole line's worth of elements.
        if max_batch > stream.length - idx:
            max_batch = stream.length - idx
        if type(pattern) is AffinePattern:
            count = pattern.line_run_length(idx, max_batch)
        else:
            line = line_addr(addr)
            count = 1
            while (
                count < max_batch
                and line_addr(pattern.address(idx + count)) == line
            ):
                count += 1
        if participants is None:
            stream.next_idx = idx + count
            stream.credits -= count
            stream.prev_page = page
            self._c_elements[0] += count
        else:
            for member in participants:
                member.next_idx += count
                member.credits -= count
                # Members advance without computing their own addresses
                # (their bases differ); recompute lazily when they lead.
                member.prev_page = -1
            stream.prev_page = page
            self._c_elements[0] += len(participants) * count
        if self.stream_grain_coherence:
            span = pattern.elem_size * count
            for member in (participants if participants is not None else (stream,)):
                self._track_range(member.key, addr, span)
        element = idx if count == 1 else (idx, idx + count)
        p = participants if participants is not None else [stream]
        self.bank.stream_read(
            addr,
            requester=stream.requester,
            data_bytes=LINE_SIZE,
            stream_id=stream.spec.sid,
            element=element,
            category=category,
            on_ready=lambda msg, p=p, e=element: self._data_ready(p, e, msg),
        )
        return True

    def _data_ready(self, participants: List[L3Stream], element, msg: CohMsg) -> None:
        """GetU data is at the bank: respond (possibly multicast) and
        chain any indirect children. ``element`` is an index or a
        coalesced ``(start, end)`` range."""
        if len(participants) == 1:
            # Common case: no confluence — skip the members-list build.
            sole = participants[0]
            requester = sole.requester
            self.bank.send_data_u(requester, CohMsg(
                op="GetU", addr=msg.addr, requester=requester,
                data_bytes=LINE_SIZE, stream_id=sole.spec.sid, element=element,
            ))
            if self.indirect_enabled and sole.children:
                elems = (
                    range(element[0], element[1])
                    if isinstance(element, tuple) else (element,)
                )
                for child in sole.children:
                    for idx in elems:
                        self._chain_indirect(sole, child, idx)
            return
        members = [(m.requester, m.spec.sid) for m in participants]
        if isinstance(element, tuple):
            elems = range(element[0], element[1])
        else:
            elems = (element,)
        body = CohMsg(
            op="DataU", addr=line_addr(msg.addr), requester=members[0][0],
            data_bytes=LINE_SIZE, stream_id=members[0][1], element=element,
            se_info=members,
        )
        self.net.multicast(
            src=self.tile, dsts=[tile for tile, _ in members],
            kind=DATA, payload_bits=data_payload_bits(LINE_SIZE),
            dst_port="se_l2", body=body,
        )
        self.stats.add("se_l3.multicasts")
        if self.indirect_enabled:
            for member in participants:
                for child in member.children:
                    for idx in elems:
                        self._chain_indirect(member, child, idx)

    # ------------------------------------------------------------------
    # indirect floating (operands table)
    # ------------------------------------------------------------------
    def _chain_indirect(self, stream: L3Stream, child: StreamSpec, idx: int) -> None:
        if idx >= child.length:
            return
        addr = child.pattern.address(idx)
        data_bytes = child.pattern.elem_size
        # Indirect accesses translate per element (SS IV-E).
        self.tlb.translate(addr)
        self.stats.add("se_l3.tlb_lookups")
        target = self.nuca.bank_of(addr)
        if target == self.tile:
            self._local_indirect(stream.requester, child.sid, idx, addr, data_bytes)
        else:
            body = IndFetch(
                requester=stream.requester, sid=child.sid, element=idx,
                addr=addr, data_bytes=data_bytes,
            )
            self.stats.add("se_l3.indirect_forwards")
            self.net.send_new(
                self.tile, target, CTRL, body.bits(), "se_l3", body=body,
            )

    def _local_indirect(
        self, requester: int, sid: int, idx: int, addr: int, data_bytes: int,
    ) -> None:
        self.bank.stream_read(
            addr, requester=requester, data_bytes=data_bytes,
            stream_id=sid, element=idx, category="float_ind",
            on_ready=lambda msg: self.bank.send_data_u(requester, msg),
        )

    def _indirect_fetch(self, body: IndFetch) -> None:
        self._local_indirect(
            body.requester, body.sid, body.element, body.addr, body.data_bytes,
        )

    # ------------------------------------------------------------------
    # migrate unit
    # ------------------------------------------------------------------
    def _migrate(self, stream: L3Stream, next_addr: int) -> None:
        target = self.nuca.bank_of(next_addr)
        if self._tel is not None:
            self._tel.publish(
                "migrate", tile=self.tile,
                detail=f"{stream.key} elem {stream.next_idx} -> bank {target}",
                requester=stream.requester, sid=stream.spec.sid,
                elem=stream.next_idx, to_bank=target, epoch=stream.epoch,
                credits=stream.credits,
            )
        self._drop(stream)
        self.forwarding[stream.key] = (target, stream.epoch)
        body = Migrate(
            spec=stream.spec, children=stream.children,
            next_idx=stream.next_idx, credits=stream.credits,
            requester=stream.requester, epoch=stream.epoch,
            plan=stream.plan,
        )
        self.stats.add("se_l3.migrations_out")
        self.net.send_new(
            self.tile, target, STREAM, body.bits(), "se_l3", body=body,
        )

    def _drop(self, stream: L3Stream) -> None:
        self.streams.pop(stream.key, None)
        if stream.group is not None:
            group = stream.group
            group.remove(stream)
            if len(group.members) <= 1:
                for member in group.members:
                    member.group = None
                if group in self.groups:
                    self.groups.remove(group)

    # ------------------------------------------------------------------
    # flow unit / termination
    # ------------------------------------------------------------------
    def _credit(self, body: Credit) -> None:
        if self._tel is not None:
            self._tel.publish(
                "credit", tile=self.tile,
                detail=f"({body.requester},{body.sid}) +{body.count}",
                requester=body.requester, sid=body.sid, count=body.count,
            )
        key = (body.requester, body.sid)
        stream = self.streams.get(key)
        if stream is not None and stream.epoch == body.epoch:
            stream.credits += body.count
            self.stats.add("se_l3.credits_received")
            self._arm_pump()
            return
        if stream is not None and stream.epoch > body.epoch:
            # Credit from a superseded incarnation: its stream is gone,
            # the credit must not inflate the new one.
            self.stats.add("se_l3.stale_credits")
            return
        fwd = self.forwarding.get(key)
        if fwd is not None and fwd[1] == body.epoch:
            self.net.send_new(
                self.tile, fwd[0], STREAM, body.bits(), "se_l3", body=body,
            )
        elif fwd is not None and fwd[1] > body.epoch:
            self.stats.add("se_l3.stale_credits")
        else:
            # The credit raced ahead of the stream's migration to this
            # bank: hold it until the stream arrives.
            pending = self.pending_credits.get(key)
            if pending is not None and pending[0] == body.epoch:
                self.pending_credits[key] = (body.epoch,
                                             pending[1] + body.count)
            elif pending is None or pending[0] < body.epoch:
                self.pending_credits[key] = (body.epoch, body.count)
            else:
                self.stats.add("se_l3.stale_credits")
                return
            self.stats.add("se_l3.credits_held")

    def _end(self, body: EndStream) -> None:
        if self._tel is not None:
            self._tel.publish(
                "end", tile=self.tile, detail=f"({body.requester},{body.sid})",
                requester=body.requester, sid=body.sid,
            )
        key = (body.requester, body.sid)
        pending = self.pending_credits.get(key)
        if pending is not None and pending[0] <= body.epoch:
            del self.pending_credits[key]
        stream = self.streams.get(key)
        if stream is None:
            # Child-sid ends don't resolve as resident streams: the
            # child rides its parent. Detach it so the issue unit
            # stops chaining indirect fetches for an ended sid.
            self._detach_child(body)
        if stream is None or stream.epoch <= body.epoch:
            # Range data of a newer incarnation must survive an old end.
            self.ranges.pop(key, None)
        if stream is not None and stream.epoch == body.epoch:
            self._drop(stream)
            self.stats.add("se_l3.ends")
            ack = EndAck(sid=body.sid)
            self.net.send_new(
                self.tile, body.requester, STREAM,
                ack.bits(), "se_l2", body=ack,
            )
            return
        fwd = self.forwarding.get(key)
        if fwd is not None and fwd[1] == body.epoch:
            # Chase the migrated stream, reclaiming the breadcrumb as
            # we pass (hop-by-hop cleanup of the forwarding chain).
            del self.forwarding[key]
            self.net.send_new(
                self.tile, fwd[0], STREAM, body.bits(), "se_l3", body=body,
            )
        else:
            # Unknown here (already finished, or this EndStream is from
            # a superseded incarnation whose stream a newer float
            # replaced): ack so the SE_L2 moves on. Crucially a stale
            # end must NOT kill the resident newer incarnation.
            if stream is not None and stream.epoch > body.epoch:
                self.stats.add("se_l3.stale_ends")
            ack = EndAck(sid=body.sid)
            self.net.send_new(
                self.tile, body.requester, STREAM,
                ack.bits(), "se_l2", body=ack,
            )

    def _detach_child(self, body: EndStream) -> None:
        """Remove an ended indirect child from its resident parent
        float (matched by requester + epoch)."""
        for parent in self.streams.values():
            if (
                parent.requester != body.requester
                or parent.epoch != body.epoch
            ):
                continue
            for child in parent.children:
                if child.sid == body.sid:
                    parent.children.remove(child)
                    self.stats.add("se_l3.child_detached")
                    return

    # ------------------------------------------------------------------
    # stream-grain coherence (SS V-B, optional mode)
    # ------------------------------------------------------------------
    def _track_range(self, key: StreamKey, addr: int, span: int) -> None:
        """Extend the base/bound registers of a stream's fetched range."""
        lo, hi = self.ranges.get(key, (addr, addr + span))
        self.ranges[key] = (min(lo, addr), max(hi, addr + span))

    def check_write(self, addr: int, writer: int) -> None:
        """Directory hook: a write-ownership request for ``addr`` at
        this bank conservatively invalidates any stream whose fetched
        range covers it (false positives allowed — SS V-B), telling
        the requesting core to re-execute (sink) the stream."""
        if not self.stream_grain_coherence:
            return
        for key, (lo, hi) in list(self.ranges.items()):
            if not (lo <= addr < hi):
                continue
            requester, sid = key
            if requester == writer:
                continue
            self.stats.add("se_l3.stream_invalidations")
            stream = self.streams.get(key)
            if stream is not None:
                self._drop(stream)
            self.ranges.pop(key, None)
            self.pending_credits.pop(key, None)
            body = StreamInv(sid=sid, addr=addr)
            self.net.send_new(
                self.tile, requester, CTRL, body.bits(), "se_l2", body=body,
            )

    def flush_floating(self) -> None:
        """Context switch (SS IV-E): discard all floating streams."""
        for stream in list(self.streams.values()):
            self._drop(stream)
        self.forwarding.clear()
        self.ranges.clear()
        self.pending_credits.clear()
