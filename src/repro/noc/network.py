"""Network model: wormhole-routed mesh with per-link occupancy.

Latency model per packet (head flit):

- per hop: ``router_stages + 1`` cycles (5-stage router + 1-cycle
  link, Table III), plus queueing when the next link is still busy
  with earlier packets;
- serialization: the tail flit arrives ``flits`` cycles after the
  head, and each link on the route stays reserved for ``flits``
  cycles (wormhole approximation).

Each unidirectional link keeps a ``busy_until`` reservation, which is
what creates congestion at high utilization — central to Figures 15/16
(traffic and link-width sensitivity).

Multicast (stream confluence) forks the X-Y tree: every *unique* link
in the destination set's routes is traversed once, so merged streams
genuinely save flit-hops on their shared prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.noc.message import TRAFFIC_CLASSES, Packet, _packet_ids
from repro.noc.topology import Link, Mesh
from repro.sim.kernel import Simulator
from repro.sim.stats import Stats

Handler = Callable[[Packet], None]
# Delivery-observer callbacks (Network.add_delivery_observer).
Inject = Callable[[Packet, int, Iterable[Link], int], None]
Handled = Callable[[Handler, Packet], None]


@dataclass
class DeliveryInfo:
    """Returned by :meth:`Network.send` for the caller's accounting."""

    flits: int
    hops: int
    flit_hops: int


class Network:
    """The chip's interconnect. All tiles share one instance."""

    LOCAL_LATENCY = 1  # core-to-colocated-bank hop through the local router

    def __init__(
        self,
        sim: Simulator,
        mesh: Mesh,
        stats: Stats,
        link_bits: int = 256,
        router_stages: int = 5,
    ) -> None:
        self.sim = sim
        self.mesh = mesh
        self.stats = stats
        self.link_bits = link_bits
        self.hop_latency = router_stages + 1
        self._busy_until: Dict[Link, int] = {}
        self._handlers: Dict[Tuple[int, str], Handler] = {}
        # Hot-path caches: X-Y routes are static per (src, dst) pair,
        # flit counts are static per payload size, and the per-class
        # accounting updates interned counter cells (DESIGN.md §12).
        self._route_cache: Dict[Tuple[int, int], List[Link]] = {}
        self._flits_cache: Dict[int, int] = {}
        self._stat_cells: Dict[str, Tuple[List[int], List[int], List[int]]] = {}
        # Lane cache: everything static per (src, dst, kind, payload,
        # port) — route, flit count, stat cells, the local pseudo-link,
        # and a shared DeliveryInfo (callers only read it) — so send()
        # runs traversal, accounting and delivery scheduling inline
        # instead of calling _record/_deliver_at per packet.
        self._lanes: Dict[Tuple[int, int, str, int, str], tuple] = {}
        self._tree_cache: Dict[Tuple[int, Tuple[int, ...]], tuple] = {}
        # Deliveries arriving at the same cycle share one kernel event:
        # arrival cycle -> [(handler, packet), ...] in send order. A
        # batch exists for a cycle iff its drain event is scheduled.
        self._arrivals: Dict[int, List[Tuple[Handler, Packet]]] = {}
        # Packet free-list (DESIGN.md §12): with pooling enabled the
        # network reclaims every delivered packet shell (no handler
        # retains the Packet object — bodies have their own lifetime)
        # and packet() reuses them. Pooling is vetoed by observers
        # (sim.pooling), which may retain packet references.
        self._pooling = getattr(sim, "pooling", False)
        self._pkt_free: List[Packet] = []
        # Delivery observers (add_delivery_observer). While the list is
        # non-empty, send() leaves its fused path for _deliver_at.
        self._observers: List[
            Tuple[Optional[Inject], Optional[Handled], Optional[Handled]]
        ] = []
        san = getattr(sim, "sanitizer", None)
        if san is not None:
            san.watch_network(self)
        tel = getattr(sim, "telemetry", None)
        if tel is not None:
            tel.watch_network(self)

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def register(self, tile: int, port: str, handler: Handler) -> None:
        """Attach ``handler`` for packets addressed to (tile, port)."""
        key = (tile, port)
        if key in self._handlers:
            raise ValueError(f"handler already registered for {key}")
        self._handlers[key] = handler

    def add_delivery_observer(
        self,
        inject: Optional[Inject] = None,
        before: Optional[Handled] = None,
        after: Optional[Handled] = None,
    ) -> None:
        """Append an observer to the delivery-observer list.

        ``inject(packet, when, links, flits)`` runs as each packet is
        scheduled to arrive at cycle ``when``; ``links`` are the mesh
        links that injection reserves for ``flits`` flits (a multicast
        passes its unique tree links with its first leg only).
        ``before(handler, packet)`` runs just before the endpoint
        handler and ``after(handler, packet)`` just after it, in
        reverse registration order so observers nest like wrappers.
        Observers must not send packets.
        """
        self._observers.append((inject, before, after))

    # ------------------------------------------------------------------
    # unicast
    # ------------------------------------------------------------------
    def packet(
        self,
        src: int,
        dst: int,
        kind: str,
        payload_bits: int,
        dst_port: str,
        body=None,
    ) -> Packet:
        """Build a packet, reusing a delivered shell from the free-list
        when pooling is on. Every sender in the simulator builds its
        packets here, so the free-list never holds more shells than
        were once in flight together."""
        free = self._pkt_free
        if not free or kind not in TRAFFIC_CLASSES or payload_bits < 0:
            # A fresh Packet validates kind and payload_bits.
            return Packet(src, dst, kind, payload_bits, dst_port, body)
        packet = free.pop()
        packet.src = src
        packet.dst = dst
        packet.kind = kind
        packet.payload_bits = payload_bits
        packet.dst_port = dst_port
        packet.body = body
        packet.pid = next(_packet_ids)
        return packet

    def send_new(
        self,
        src: int,
        dst: int,
        kind: str,
        payload_bits: int,
        dst_port: str,
        body=None,
        extra_delay: int = 0,
    ) -> DeliveryInfo:
        """Build a packet with :meth:`packet` and send it."""
        return self.send(
            self.packet(src, dst, kind, payload_bits, dst_port, body),
            extra_delay,
        )

    def send(self, packet: Packet, extra_delay: int = 0) -> DeliveryInfo:
        """Inject ``packet`` now (+``extra_delay``); returns accounting
        info immediately while delivery is scheduled asynchronously.

        This is the fused hot path (DESIGN.md §12): one lane-cache
        probe replaces the per-packet route/flits/handler/stat-cell
        lookups, and traversal, accounting and delivery scheduling run
        inline instead of as three method calls. With a delivery
        observer registered, scheduling goes through _deliver_at.
        """
        lanes = self._lanes
        key = (packet.src, packet.dst, packet.kind,
               packet.payload_bits, packet.dst_port)
        lane = lanes[key] if key in lanes else self._make_lane(key, packet)
        route, flits, hkey, c_pkts, c_flits, c_fhops, info, local_link = lane
        sim = self.sim
        busy = self._busy_until
        hop = self.hop_latency
        head = sim.now + extra_delay
        for link in route:
            if link in busy:
                depart = busy[link]
                if depart < head:
                    depart = head
            else:
                depart = head
            busy[link] = depart + flits
            head = depart + hop
        if local_link is not None:
            # Same-tile delivery: serialize on the per-tile pseudo-link
            # so delivery order matches send order there too — the
            # protocol relies on per-route FIFO ordering (a Data grant
            # must never be overtaken by a later forward from the same
            # bank).
            if local_link in busy:
                depart = busy[local_link]
                if depart < head:
                    depart = head
            else:
                depart = head
            busy[local_link] = depart + flits
            head = depart + self.LOCAL_LATENCY
        when = head + flits - 1
        c_pkts[0] += 1
        c_flits[0] += flits
        c_fhops[0] += info.flit_hops
        if self._observers:
            self._deliver_at(when, packet, route, flits)
            return info
        now = sim.now
        if when < now:
            when = now
        arrivals = self._arrivals
        if when in arrivals:
            arrivals[when].append((self._handlers[hkey], packet))
        else:
            arrivals[when] = [(self._handlers[hkey], packet)]
            sim.schedule_at(when, self._drain_cycle, when)
        return info

    def _make_lane(self, key: Tuple[int, int, str, int, str],
                   packet: Packet) -> tuple:
        src, dst, kind, payload, dst_port = key
        flits = self._flits_cache.get(payload)
        if flits is None:
            flits = self._flits_cache[payload] = packet.flits(self.link_bits)
        route = self._route_cache.get((src, dst))
        if route is None:
            route = self._route_cache[(src, dst)] = self.mesh.route(src, dst)
        hkey = (dst, dst_port)
        if hkey not in self._handlers:
            raise KeyError(f"no handler at tile {dst} port {dst_port!r}")
        cells = self._stat_cells.get(kind)
        if cells is None:
            cells = self._stat_cells[kind] = (
                self.stats.counter(f"noc.packets.{kind}"),
                self.stats.counter(f"noc.flits.{kind}"),
                self.stats.counter(f"noc.flit_hops.{kind}"),
            )
        hops = len(route)
        lane = (
            route, flits, hkey, cells[0], cells[1], cells[2],
            DeliveryInfo(flits=flits, hops=hops, flit_hops=flits * hops),
            (dst, dst) if not route else None,
        )
        self._lanes[key] = lane
        return lane

    def _deliver_at(
        self, when: int, packet: Packet, links: Iterable[Link], flits: int,
    ) -> None:
        """Queue ``packet`` for delivery at cycle ``when``: the path of
        every multicast leg, and of send() while observed."""
        handler = self._handlers.get((packet.dst, packet.dst_port))
        if handler is None:
            raise KeyError(
                f"no handler at tile {packet.dst} port {packet.dst_port!r}"
            )
        observers = self._observers
        if observers:
            for inject, _before, _after in observers:
                if inject is not None:
                    inject(packet, when, links, flits)
            handler = self._dispatch_observed
        now = self.sim.now
        if when < now:
            when = now
        batch = self._arrivals.get(when)
        if batch is None:
            self._arrivals[when] = [(handler, packet)]
            self.sim.schedule_at(when, self._drain_cycle, when)
        else:
            batch.append((handler, packet))

    def _dispatch_observed(self, packet: Packet) -> None:
        """Run ``packet``'s endpoint handler between the delivery
        observers' ``before`` and ``after`` callbacks."""
        handler = self._handlers[(packet.dst, packet.dst_port)]
        observers = self._observers
        for _inject, before, _after in observers:
            if before is not None:
                before(handler, packet)
        handler(packet)
        for _inject, _before, after in reversed(observers):
            if after is not None:
                after(handler, packet)

    def _drain_cycle(self, when: int) -> None:
        """Run every delivery that arrives at cycle ``when``.

        Handlers fire in send order (the batch is append-ordered), so
        per-route FIFO delivery is unchanged; batching only merges the
        kernel dispatches. Handlers that send again either hit a later
        cycle or (same-cycle degenerate) re-arm a fresh batch, because
        this cycle's batch is detached before any handler runs. Each
        delivery is still one logical event for ``events_executed``.
        """
        batch = self._arrivals.pop(when)
        sim = self.sim
        pool = self._pkt_free if self._pooling else None
        n = len(batch)
        if n == 1:
            # Singleton batch: the handler runs in tail position, so
            # nested handler fusions stay available.
            handler, packet = batch[0]
            handler(packet)
            if pool is not None:
                packet.body = None
                pool.append(packet)
            return
        sim.count_inlined_events(n - 1)
        # The undrained tail of the batch is invisible to the event
        # queue, so nested handler fusions must stand down while it
        # exists (DESIGN.md §12); the final handler runs unguarded,
        # back in tail position.
        sim._inline_depth += 1
        try:
            for handler, packet in batch[:-1]:
                handler(packet)
                if pool is not None:
                    packet.body = None
                    pool.append(packet)
        finally:
            sim._inline_depth -= 1
        handler, packet = batch[n - 1]
        handler(packet)
        if pool is not None:
            packet.body = None
            pool.append(packet)

    # ------------------------------------------------------------------
    # multicast
    # ------------------------------------------------------------------
    def multicast(
        self,
        src: int,
        dsts: Iterable[int],
        kind: str,
        payload_bits: int,
        dst_port: str,
        body=None,
    ) -> DeliveryInfo:
        """Send one logical packet to several tiles along a shared
        X-Y tree. Each unique tree link carries the flits once."""
        dsts = list(dict.fromkeys(dsts))
        if not dsts:
            raise ValueError("multicast needs at least one destination")
        # One packet per leg, built before any link is reserved (so a
        # bad kind or payload fails first).
        legs = [self.packet(src, dst, kind, payload_bits, dst_port, body)
                for dst in dsts]
        flits = self._flits_cache.get(payload_bits)
        if flits is None:
            flits = self._flits_cache[payload_bits] = legs[0].flits(self.link_bits)
        # X-Y trees are static per (src, destination set): confluence
        # groups multicast the same set for every element, so cache the
        # routes and the deduplicated tree links alongside the unicast
        # lane cache.
        tree_key = (src, tuple(dsts))
        cached = self._tree_cache.get(tree_key)
        if cached is None:
            routes = self.mesh.multicast_tree(src, dsts)
            tree_links = Mesh.unique_links(routes)
            cached = self._tree_cache[tree_key] = (routes, tree_links)
        else:
            routes, tree_links = cached
        # Reserve each tree link once; per-destination arrival follows
        # its own route's (already reserved) links.
        depart_at: Dict[Link, int] = {}
        # Reserve in BFS-ish order: routes share prefixes, so walk each
        # route and reserve links not yet reserved by this multicast.
        for dst in dsts:
            head = self.sim.now
            for link in routes[dst]:
                if link not in depart_at:
                    depart = max(head, self._busy_until.get(link, 0))
                    self._busy_until[link] = depart + flits
                    depart_at[link] = depart
                head = depart_at[link] + self.hop_latency
        total_hops = 0
        links = tree_links  # charged once, with the first leg
        for dst, pkt in zip(dsts, legs):
            route = routes[dst]
            if route:
                arrival = depart_at[route[-1]] + self.hop_latency + flits - 1
            else:
                arrival = self.sim.now + self.LOCAL_LATENCY + flits - 1
            self._deliver_at(arrival, pkt, links, flits)
            links = ()
            total_hops += len(route)
        flit_hops = flits * len(tree_links)
        self._record(kind, flits, len(tree_links))
        self.stats.add("noc.multicast.packets")
        self.stats.add("noc.multicast.saved_flit_hops",
                       flits * total_hops - flit_hops)
        return DeliveryInfo(flits=flits, hops=len(tree_links), flit_hops=flit_hops)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def _record(self, kind: str, flits: int, hops: int) -> None:
        cells = self._stat_cells.get(kind)
        if cells is None:
            cells = self._stat_cells[kind] = (
                self.stats.counter(f"noc.packets.{kind}"),
                self.stats.counter(f"noc.flits.{kind}"),
                self.stats.counter(f"noc.flit_hops.{kind}"),
            )
        # Interned cell updates: Stats.add is a method call per counter
        # and this runs three times per packet.
        cells[0][0] += 1
        cells[1][0] += flits
        cells[2][0] += flits * hops

    def utilization(self, cycles: int) -> float:
        """Average link utilization: flit-hops / (links x cycles)."""
        if cycles <= 0:
            return 0.0
        flit_hops = sum(
            self.stats.get(f"noc.flit_hops.{kind}") for kind in TRAFFIC_CLASSES
        )
        return flit_hops / (self.mesh.num_links * cycles)
